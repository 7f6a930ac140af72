#include "coll/innet.hpp"

#include <algorithm>
#include <cstring>

#include "coll/ring.hpp"
#include "workload/generators.hpp"

namespace flare::coll::detail {

InNetOp::InNetOp(net::Network& net, NetworkManager& manager,
                 const std::vector<net::Host*>& participants,
                 const CollectiveOptions& desc, core::AllreduceConfig cfg,
                 ReductionTree tree, bool owns_install,
                 net::CongestionMonitor* monitor)
    : TreeOpBase(net, manager, participants, desc, cfg, std::move(tree),
                 owns_install, /*sparse=*/false, monitor),
      op_(cfg.op) {
  const u32 esize = core::dtype_size(desc_.dtype);
  if (desc_.kind == CollectiveKind::kBarrier) {
    elems_total_ = 0;
    elems_per_pkt_ = 0;
    set_blocks(1);
  } else {
    elems_total_ = std::max<u64>(1, desc_.data_bytes / esize);
    elems_per_pkt_ = cfg_.elems_per_packet;
    FLARE_ASSERT(elems_per_pkt_ >= 1);
    set_blocks(static_cast<u32>((elems_total_ + elems_per_pkt_ - 1) /
                                elems_per_pkt_));
  }
}

void InNetOp::stage(u64 seed) {
  switch (desc_.kind) {
    case CollectiveKind::kAllreduce:
    case CollectiveKind::kReduce:
      host_data_ = workload::make_dense_data(P_, elems_total_, desc_.dtype,
                                             seed);
      expected_ = core::reference_reduce(host_data_, op_);
      break;
    case CollectiveKind::kBroadcast: {
      Rng rng(seed);
      payload_ = core::TypedBuffer(desc_.dtype, elems_total_);
      payload_.fill_random(rng);
      identity_ = core::TypedBuffer(desc_.dtype, elems_per_pkt_);
      identity_.fill_identity(op_);
      break;
    }
    case CollectiveKind::kBarrier:
      break;
  }
  results_.assign(P_, consumes_payload()
                         ? core::TypedBuffer(desc_.dtype, elems_total_)
                         : core::TypedBuffer{});
}

bool InNetOp::consumes_payload() const {
  return desc_.kind != CollectiveKind::kBarrier;
}

u32 InNetOp::block_elems(u32 b) const {
  if (elems_per_pkt_ == 0) return 0;  // barrier
  const u64 first = static_cast<u64>(b) * elems_per_pkt_;
  return static_cast<u32>(
      std::min<u64>(elems_per_pkt_, elems_total_ - first));
}

const void* InNetOp::contribution(u32 h, u32 b) const {
  const u64 first = static_cast<u64>(b) * elems_per_pkt_;
  switch (desc_.kind) {
    case CollectiveKind::kAllreduce:
    case CollectiveKind::kReduce:
      return host_data_[h].at_byte(first);
    case CollectiveKind::kBroadcast:
      return h == desc_.root ? payload_.at_byte(first) : identity_.data();
    case CollectiveKind::kBarrier:
      return nullptr;
  }
  return nullptr;
}

void InNetOp::send_block(u32 h, u32 b, u16 flags) {
  net::Host* host = participants_[h];
  core::Packet p = core::make_dense_packet(
      cfg_.id, b, tree_.host_child_index[host->host_index()],
      contribution(h, b), block_elems(b), desc_.dtype);
  p.hdr.flags |= flags;
  net::NetPacket np;
  np.kind = net::PacketKind::kReduceUp;
  np.allreduce_id = cfg_.id;
  np.trace = cfg_.trace;
  np.wire_bytes = p.wire_bytes();
  np.reduce = core::make_pooled_packet(std::move(p));
  host->send(std::move(np));
}

bool InNetOp::accept(u32 h, const core::Packet& pkt) {
  const u32 b = pkt.hdr.block_id;
  FLARE_ASSERT(pkt.hdr.elem_count == block_elems(b));
  if (consumes_payload()) {
    const u64 first = static_cast<u64>(b) * elems_per_pkt_;
    std::memcpy(results_[h].at_byte(first), pkt.payload.data(),
                pkt.payload.size());
  }
  return true;
}

std::unique_ptr<OpBase> InNetOp::make_fallback_op() {
  if (desc_.kind != CollectiveKind::kAllreduce) return nullptr;
  CollectiveOptions rdesc = desc_;
  rdesc.algorithm = Algorithm::kHostRing;
  // The ring inherits the session's trace id: the attribution plane sees
  // one continuous tenant across the in-network -> host transition.
  return std::make_unique<RingOp>(net_, participants_, rdesc, cfg_.trace);
}

void InNetOp::check(CollectiveResult& res) {
  switch (desc_.kind) {
    case CollectiveKind::kAllreduce: {
      f64 err = 0.0;
      for (const core::TypedBuffer& r : results_)
        err = std::max(err, r.max_abs_diff(expected_));
      res.max_abs_err = err;
      res.ok = err <= core::reduce_tolerance(desc_.dtype, P_);
      break;
    }
    case CollectiveKind::kReduce:
      res.max_abs_err = results_[desc_.root].max_abs_diff(expected_);
      res.ok = res.max_abs_err <= core::reduce_tolerance(desc_.dtype, P_);
      break;
    case CollectiveKind::kBroadcast: {
      f64 err = 0.0;
      for (const core::TypedBuffer& r : results_)
        err = std::max(err, r.max_abs_diff(payload_));
      res.max_abs_err = err;
      res.ok = err <= (core::dtype_is_float(desc_.dtype) ? 1e-4 : 0.0);
      break;
    }
    case CollectiveKind::kBarrier:
      res.ok = true;  // finalize fires only once every host is released
      break;
  }
}

}  // namespace flare::coll::detail
