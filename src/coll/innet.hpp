// In-network DENSE data plane: detail::InNetOp, the op the Communicator
// builds for Algorithm::kFlareDense.
//
// One event-driven driver for ALL in-network dense kinds (Section 8: the
// extension collectives fall out of the allreduce machinery):
//
//   * allreduce — every host contributes its vector and consumes the
//     aggregated multicast;
//   * reduce    — same protocol; only the destination's buffer is the
//     result (the multicast down is shared, as in the paper);
//   * broadcast — the root contributes its data, everyone else the
//     operator identity; the "sum" coming back is the root's vector;
//   * barrier   — one 0-byte block; a host leaves the barrier when the
//     root's empty result multicast reaches it.
//
// Fault tolerance (Tuning::retransmit_timeout_ps > 0), layered like
// NetReduce + Canary (PAPERS.md):
//   1. a per-op watchdog retransmits blocks outstanding past the timeout
//      (switches re-emit cached results for blocks they already finished,
//      so any single loss — contribution, aggregate, or multicast — heals);
//   2. after max_retransmits of one block, or on a fabric fault notice
//      that kills a tree element, the op declares the tree dead: it
//      uninstalls the remains, recomputes + reinstalls on the surviving
//      fabric under a FRESH collective id (stale packets drop harmlessly)
//      and restarts the iteration;
//   3. when no viable tree exists, an allreduce finishes on the host-ring
//      data plane (reduce/broadcast/barrier retry once the fabric heals).
// Persistent requests reinstall transparently between iterations.
//
// This class is a block codec over detail::TreeOpBase (coll/op.{hpp,cpp}):
// it says what a dense block's packet carries and that one multicast
// packet completes it.  The block pipeline (window, send schedule,
// duplicate filter, timeout retransmission), 1-3, the persistent upkeep
// and the congestion migration are the base's, shared verbatim with the
// sparse engine's SparseOp.
#pragma once

#include "coll/op.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

class InNetOp final : public TreeOpBase {
 public:
  InNetOp(net::Network& net, NetworkManager& manager,
          const std::vector<net::Host*>& participants,
          const CollectiveOptions& desc, core::AllreduceConfig cfg,
          ReductionTree tree, bool owns_install,
          net::CongestionMonitor* monitor = nullptr);

 private:
  bool consumes_payload() const;
  u32 block_elems(u32 b) const;

  /// What host `h` feeds into the reduction for block `b`.
  const void* contribution(u32 h, u32 b) const;

  // ------------------------------------------- TreeOpBase codec hooks ----

  void stage(u64 seed) override;
  void send_block(u32 h, u32 b, u16 flags) override;
  /// One multicast packet carries the whole block: copy it out.
  bool accept(u32 h, const core::Packet& pkt) override;
  void check(CollectiveResult& res) override;
  /// Fallback data plane: the host ring (dense allreduce only; the other
  /// kinds wait for the fabric to heal).
  std::unique_ptr<OpBase> make_fallback_op() override;

  core::ReduceOp op_;
  u64 elems_total_ = 0;
  u32 elems_per_pkt_ = 0;
  std::vector<core::TypedBuffer> host_data_;
  core::TypedBuffer payload_;   ///< broadcast source vector
  core::TypedBuffer identity_;  ///< broadcast non-root contribution
  core::TypedBuffer expected_;
  std::vector<core::TypedBuffer> results_;  ///< per host
};

}  // namespace flare::coll::detail
