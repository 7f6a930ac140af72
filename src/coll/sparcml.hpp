// SparCML-style host-based sparse allreduce (Renggli et al., SC'19) — the
// "Host-Based Sparse" baseline of Figure 15.
//
// Recursive doubling over log2(P) rounds: partners exchange their full
// current sparse sets and merge them (union, summing on index matches).
// The set densifies every round; when the sparse encoding would exceed the
// dense vector, the host switches to the dense representation — SparCML's
// sparse-to-dense switchover.  Every host handles log2(P) increasingly
// dense messages, which is why the in-network sparse allreduce beats it on
// both time and traffic.
//
// Entry point: coll::Communicator with a sparse workload and
// Algorithm::kSparcml.  detail::SparcmlOp is a first-class op in the
// Communicator lifecycle (run / start / persistent): a step schedule (one
// step per round, partner h ^ 2^r) over the shared HostOpBase channel
// (coll/op.hpp), which draws a fresh wire-protocol id per op and — with
// Tuning::retransmit_timeout_ps enabled — recovers a stalled round by
// NACKing the partner for a replay of the recorded snapshot.  Persistent
// requests re-stage fresh per-iteration gradients
// (SparseWorkload::epoch_pairs).  SparcmlOp is also the fault-recovery
// fallback data plane of the in-network sparse engine.
#pragma once

#include "coll/op.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

class SparcmlOp final : public HostOpBase {
 public:
  /// `trace`: see HostOpBase.
  SparcmlOp(net::Network& net, const std::vector<net::Host*>& participants,
            const CollectiveOptions& desc, u32 trace = 0);

 private:
  struct SpHost {
    std::vector<core::SparsePair> sparse;  ///< sorted by index
    core::TypedBuffer dense;
    bool is_dense = false;
  };

  u32 num_steps() const override { return rounds_; }
  u32 send_peer(u32 h, u32 r) const override { return h ^ (1u << r); }
  u32 recv_peer(u32 h, u32 r) const override { return h ^ (1u << r); }
  void stage(u64 seed) override;
  Payload payload(u32 h, u32 r) override;
  void consume(u32 h, u32 r, const Payload& in) override;
  void check(CollectiveResult& res) override;

  /// Host h's flattened global-index input for this iteration.
  std::vector<core::SparsePair> host_pairs(u32 h, u64 seed) const;
  /// SparCML's switchover: host h drops its sparse set for a dense vector.
  void densify(SpHost& hr) const;

  core::ReduceOp op_;
  u32 rounds_ = 0;
  u64 total_elems_ = 0;
  u64 dense_bytes_ = 0;
  u64 dense_switchovers_ = 0;
  u64 pairs_exchanged_ = 0;
  core::TypedBuffer expected_;
  std::vector<SpHost> runs_;
};

}  // namespace flare::coll::detail
