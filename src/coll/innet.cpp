#include "coll/innet.hpp"

#include <algorithm>
#include <cstring>

#include "coll/ring.hpp"
#include "core/staggered.hpp"
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
    nb_ = 1;
  } else {
    elems_total_ = std::max<u64>(1, desc_.data_bytes / esize);
    elems_per_pkt_ = cfg_.elems_per_packet;
    FLARE_ASSERT(elems_per_pkt_ >= 1);
    nb_ = static_cast<u32>((elems_total_ + elems_per_pkt_ - 1) /
                           elems_per_pkt_);
  }
  // Staggered sending keeps every block of the operation in flight
  // (Section 5); windowed flow control applies to aligned sending.
  window_ = desc_.order == core::SendOrder::kStaggered
                ? std::max(desc_.window_blocks, nb_)
                : std::max(1u, desc_.window_blocks);
}

void InNetOp::begin(u64 seed, std::shared_ptr<OpState> state) {
  if (!begin_prologue(seed, std::move(state))) return;
  hosts_done_ = 0;
  start_ps_ = net_.sim().now();
  base_traffic_ = net_.total_traffic_bytes();
  const u32 P = static_cast<u32>(participants_.size());

  switch (desc_.kind) {
    case CollectiveKind::kAllreduce:
    case CollectiveKind::kReduce:
      host_data_ = workload::make_dense_data(P, elems_total_, desc_.dtype,
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

  runs_.clear();
  runs_.resize(P);
  for (u32 h = 0; h < P; ++h) {
    HostRun& hr = runs_[h];
    hr.host = participants_[h];
    if (consumes_payload()) {
      hr.result = core::TypedBuffer(desc_.dtype, elems_total_);
    }
    hr.schedule = core::send_schedule(h, P, nb_, desc_.order);
    hr.block_done.assign(nb_, false);
    hr.retry.reset(nb_);
    hr.host->set_reduce_handler(
        cfg_.id, [this, h](const core::Packet& pkt) { on_down(h, pkt); });
  }
  for (u32 h = 0; h < P; ++h) try_send(h);
  subscribe_faults();
  arm_watchdog();
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

void InNetOp::send_block(u32 h, u32 b, u16 extra_flags) {
  HostRun& hr = runs_[h];
  core::Packet p = core::make_dense_packet(
      cfg_.id, b, tree_.host_child_index[hr.host->host_index()],
      contribution(h, b), block_elems(b), desc_.dtype);
  p.hdr.flags |= extra_flags;
  net::NetPacket np;
  np.kind = net::PacketKind::kReduceUp;
  np.allreduce_id = cfg_.id;
  np.trace = cfg_.trace;
  np.wire_bytes = p.wire_bytes();
  np.reduce = core::make_pooled_packet(std::move(p));
  hr.host->send(std::move(np));
}

void InNetOp::try_send(u32 h) {
  HostRun& hr = runs_[h];
  while (hr.next < hr.schedule.size()) {
    const u32 b = hr.schedule[hr.next];
    // After a recovery restart the schedule replays from the top: blocks
    // this host already holds results for are re-contributed (the fresh
    // engines need every child's input) but consume no window slot and
    // await no multicast.
    const bool need_result = !hr.block_done[b];
    if (need_result && hr.outstanding >= window_) break;
    hr.next += 1;
    if (need_result) {
      hr.outstanding += 1;
      hr.retry.sent[b] = true;
      hr.retry.sent_ps[b] = net_.sim().now();
    }
    send_block(h, b, 0);
  }
}

void InNetOp::on_down(u32 h, const core::Packet& pkt) {
  HostRun& me = runs_[h];
  const u32 b = pkt.hdr.block_id;
  FLARE_ASSERT(b < nb_);
  if (me.block_done[b]) return;  // duplicated multicast replica
  me.block_done[b] = true;
  FLARE_ASSERT(pkt.hdr.elem_count == block_elems(b));
  if (consumes_payload()) {
    const u64 first = static_cast<u64>(b) * elems_per_pkt_;
    std::memcpy(me.result.at_byte(first), pkt.payload.data(),
                pkt.payload.size());
  }
  me.blocks_done += 1;
  me.outstanding -= 1;
  if (me.blocks_done == nb_) {
    me.finish_ps = net_.sim().now();
    hosts_done_ += 1;
  }
  try_send(h);
  if (hosts_done_ == runs_.size() && !finished_) {
    finished_ = true;
    // Finalize off this packet's call stack: by the time every host
    // holds every block, all switch-side events of this collective have
    // run (host delivery is causally last on each path), so releasing or
    // resetting switch state afterwards is race-free.
    net_.sim().schedule_after(0, [this] { finalize(); });
  }
}

std::unique_ptr<OpBase> InNetOp::make_fallback_op() {
  if (desc_.kind != CollectiveKind::kAllreduce) return nullptr;
  CollectiveOptions rdesc = desc_;
  rdesc.algorithm = Algorithm::kHostRing;
  // The ring inherits the session's trace id: the attribution plane sees
  // one continuous tenant across the in-network -> host transition.
  return std::make_unique<RingOp>(net_, participants_, rdesc, cfg_.trace);
}

void InNetOp::restart_iteration() {
  for (u32 h = 0; h < runs_.size(); ++h) {
    HostRun& hr = runs_[h];
    hr.host->set_reduce_handler(
        cfg_.id, [this, h](const core::Packet& pkt) { on_down(h, pkt); });
    hr.next = 0;
    hr.outstanding = 0;
    hr.retry.reset(nb_);
  }
  for (u32 h = 0; h < runs_.size(); ++h) try_send(h);
  arm_watchdog();
}

bool InNetOp::scan_timeouts() {
  return scan_block_timeouts(
      static_cast<u32>(runs_.size()), nb_,
      [this](u32 h) -> BlockRetryState& { return runs_[h].retry; },
      [this](u32 h, u32 b) { return bool{runs_[h].block_done[b]}; },
      [this](u32 h, u32 b) { send_block(h, b, core::kFlagRetransmit); });
}

void InNetOp::finalize() {
  const u32 P = static_cast<u32>(runs_.size());
  CollectiveResult res;
  res.blocks = nb_;
  res.in_network = true;
  f64 worst = 0.0, sum = 0.0;
  for (const HostRun& hr : runs_) {
    worst = std::max(worst, static_cast<f64>(hr.finish_ps - start_ps_));
    sum += static_cast<f64>(hr.finish_ps - start_ps_);
  }
  if (desc_.kind == CollectiveKind::kReduce) {
    // Only the destination consumes the result; its delivery time is the
    // reduce latency even though the shared multicast reaches everyone.
    worst = static_cast<f64>(runs_[desc_.root].finish_ps - start_ps_);
  }
  res.completion_seconds = worst / kPsPerSecond;
  res.mean_host_seconds = sum / P / kPsPerSecond;
  res.total_traffic_bytes = net_.total_traffic_bytes() - base_traffic_;
  res.total_packets = net_.total_packets();

  switch (desc_.kind) {
    case CollectiveKind::kAllreduce: {
      f64 err = 0.0;
      for (const HostRun& hr : runs_)
        err = std::max(err, hr.result.max_abs_diff(expected_));
      res.max_abs_err = err;
      res.ok = err <= core::reduce_tolerance(desc_.dtype, P);
      break;
    }
    case CollectiveKind::kReduce:
      res.max_abs_err = runs_[desc_.root].result.max_abs_diff(expected_);
      res.ok = res.max_abs_err <= core::reduce_tolerance(desc_.dtype, P);
      break;
    case CollectiveKind::kBroadcast: {
      f64 err = 0.0;
      for (const HostRun& hr : runs_)
        err = std::max(err, hr.result.max_abs_diff(payload_));
      res.max_abs_err = err;
      res.ok = err <= (core::dtype_is_float(desc_.dtype) ? 1e-4 : 0.0);
      break;
    }
    case CollectiveKind::kBarrier:
      res.ok = true;  // finalize fires only once every host is released
      break;
  }

  for (const TreeSwitchEntry& e : tree_.switches) {
    const net::ReduceRole* role = e.sw->role(cfg_.id);
    if (role != nullptr && role->engine != nullptr) {
      res.switch_working_mem_hwm = std::max(
          res.switch_working_mem_hwm, role->engine->pool().high_water());
    }
  }
  res.retransmits = retransmits_;
  res.recoveries = recoveries_;
  res.migrations = migrations_iter_;
  res.planned_migrations = planned_iter_;
  // Iteration bookkeeping (+ closes this iteration's tracer span).
  record_iteration_time(static_cast<SimTime>(worst));

  if (owns_install_) release_install();
  complete_ = true;
  publish(std::move(res));  // may destroy *this — nothing after
}

}  // namespace flare::coll::detail
