#include "coll/ring.hpp"

#include <algorithm>
#include <cstring>

#include "workload/generators.hpp"

namespace flare::coll::detail {

RingOp::RingOp(net::Network& net, const std::vector<net::Host*>& participants,
               const CollectiveOptions& desc, u32 trace)
    : HostOpBase(net, participants, desc, 0x40000000u, trace,
                 "ring-iteration"),
      op_(desc.op), dtype_(desc.dtype), esize_(core::dtype_size(dtype_)),
      elems_total_(std::max<u64>(1, desc.data_bytes / esize_)) {}

u64 RingOp::chunk_begin(u32 c) const {
  const u64 base = elems_total_ / P_;
  const u64 rem = elems_total_ % P_;
  return static_cast<u64>(c) * base + std::min<u64>(c, rem);
}

void RingOp::stage(u64 seed) {
  vecs_ = workload::make_dense_data(P_, elems_total_, dtype_, seed);
  expected_ = core::reference_reduce(vecs_, op_);
}

HostOpBase::Payload RingOp::payload(u32 h, u32 step) {
  const u32 c = (h + 2 * P_ - step) % P_;
  const u64 elems = chunk_elems(c);
  auto snapshot = std::make_shared<core::TypedBuffer>(dtype_, elems);
  std::memcpy(snapshot->data(), vecs_[h].at_byte(chunk_begin(c)),
              elems * esize_);
  Payload p;
  p.bytes = elems * esize_;
  p.dense = std::move(snapshot);
  return p;
}

void RingOp::consume(u32 h, u32 step, const Payload& in) {
  const u32 c = (h + 2 * P_ - step - 1) % P_;
  FLARE_ASSERT(in.dense != nullptr && in.dense->size() == chunk_elems(c));
  if (step < P_ - 1) {  // scatter-reduce
    op_.apply(dtype_, vecs_[h].at_byte(chunk_begin(c)), in.dense->data(),
              chunk_elems(c));
  } else {  // allgather
    std::memcpy(vecs_[h].at_byte(chunk_begin(c)), in.dense->data(),
                chunk_elems(c) * esize_);
  }
}

void RingOp::check(CollectiveResult& res) {
  res.blocks = P_;
  f64 err = 0.0;
  for (const core::TypedBuffer& vec : vecs_) {
    err = std::max(err, vec.max_abs_diff(expected_));
  }
  res.max_abs_err = err;
  res.ok = err <= core::reduce_tolerance(dtype_, P_);
}

}  // namespace flare::coll::detail
