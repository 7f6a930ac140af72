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
// All of 1-3, the persistent upkeep and the congestion migration live in
// detail::TreeOpBase (coll/op.{hpp,cpp}) and are shared verbatim with the
// sparse engine's SparseOp; this class is the DENSE data plane only.
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

  void begin(u64 seed, std::shared_ptr<OpState> state) override;

 private:
  struct HostRun {
    net::Host* host = nullptr;
    core::TypedBuffer result;
    std::vector<u32> schedule;
    std::size_t next = 0;
    u32 outstanding = 0;
    u64 blocks_done = 0;
    SimTime finish_ps = 0;
    std::vector<bool> block_done;
    BlockRetryState retry;  ///< shared watchdog bookkeeping (TreeOpBase)
  };

  bool consumes_payload() const;
  u32 block_elems(u32 b) const;

  /// What host `h` feeds into the reduction for block `b`.
  const void* contribution(u32 h, u32 b) const;

  void send_block(u32 h, u32 b, u16 extra_flags);
  void try_send(u32 h);
  void on_down(u32 h, const core::Packet& pkt);

  // --------------------------------------------- TreeOpBase data hooks ----

  /// Fallback data plane: the host ring (dense allreduce only; the other
  /// kinds wait for the fabric to heal).
  std::unique_ptr<OpBase> make_fallback_op() override;

  /// Replays the iteration against a freshly installed tree: engines are
  /// new, so every host re-contributes every block; already-delivered
  /// results are kept (their multicast duplicates are dropped on arrival).
  void restart_iteration() override;

  bool scan_timeouts() override;
  void finalize();

  core::ReduceOp op_;
  u64 elems_total_ = 0;
  u32 elems_per_pkt_ = 0;
  u32 nb_ = 0;
  u32 window_ = 0;
  u64 base_traffic_ = 0;
  SimTime start_ps_ = 0;
  std::vector<core::TypedBuffer> host_data_;
  core::TypedBuffer payload_;   ///< broadcast source vector
  core::TypedBuffer identity_;  ///< broadcast non-root contribution
  core::TypedBuffer expected_;
  std::vector<HostRun> runs_;
  u32 hosts_done_ = 0;
};

}  // namespace flare::coll::detail
