// Host-based ring (Rabenseifner) allreduce — the bandwidth-optimal
// host-based baseline (Section 1; the "Host-Based Dense" bars of
// Figure 15).  Two phases of P-1 steps each (scatter-reduce, then
// allgather); every host transmits 2 * (P-1)/P * Z bytes, ~2x the traffic
// of the in-network reduction.
//
// Entry point: coll::Communicator with Algorithm::kHostRing.  detail::RingOp
// is the ring's step schedule over detail::HostOpBase (coll/op.hpp), which
// supplies the reliable channel: fragmentation, NACK/replay recovery and
// the bounded NACK budget.  RingOp is also the fault-recovery fallback data
// plane of the in-network dense engine.
#pragma once

#include "coll/op.hpp"
#include "core/reduce_op.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

/// Flat step k of host h: scatter-reduce for k < P-1, allgather after.  At
/// every step h sends chunk (h - k) mod P to its successor and receives
/// chunk (h - k - 1) mod P from its predecessor.
class RingOp final : public HostOpBase {
 public:
  /// `trace`: see HostOpBase.
  RingOp(net::Network& net, const std::vector<net::Host*>& participants,
         const CollectiveOptions& desc, u32 trace = 0);

 private:
  u32 num_steps() const override { return 2 * (P_ - 1); }
  u32 send_peer(u32 h, u32) const override { return (h + 1) % P_; }
  u32 recv_peer(u32 h, u32) const override { return (h + P_ - 1) % P_; }
  void stage(u64 seed) override;
  Payload payload(u32 h, u32 step) override;
  void consume(u32 h, u32 step, const Payload& in) override;
  void check(CollectiveResult& res) override;

  u64 chunk_begin(u32 c) const;
  u64 chunk_elems(u32 c) const {
    return chunk_begin(c + 1) - chunk_begin(c);
  }

  core::ReduceOp op_;
  core::DType dtype_ = core::DType::kFloat32;
  u32 esize_ = 4;
  u64 elems_total_ = 0;
  core::TypedBuffer expected_;
  std::vector<core::TypedBuffer> vecs_;  ///< per host: input, then result
};

}  // namespace flare::coll::detail
