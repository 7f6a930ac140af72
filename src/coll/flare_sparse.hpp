// Flare in-network SPARSE allreduce over the network simulator — the first
// in-network sparse allreduce (Section 7; the "Flare Sparse" bars of
// Figure 15).
//
// Hosts transmit only (index, value) pairs, sharded per reduction block
// with per-block shard counts; switches aggregate in hash stores (array at
// the root), spilling collisions as extra traffic; the root multicasts the
// aggregated pairs down.  The workload is pluggable (coll::SparseWorkload)
// so both the uniform SparseSpec generator (Figure 14) and the bucketed
// gradient trace (Figure 15) drive the same protocol; persistent sessions
// draw fresh per-iteration gradients through SparseWorkload::epoch_pairs.
//
// Entry point: coll::Communicator with a sparse workload attached to
// CollectiveOptions (algorithm kAuto or kFlareSparse).  detail::SparseOp is
// a block codec over detail::TreeOpBase, exactly as the dense InNetOp is:
// it says what a sparse block's shards carry and that a block is complete
// once every down-multicast shard is in (Section 7, "Block split").  The
// block pipeline — window, send schedule, timeout retransmission — and
// everything about the install's lifetime come from the base: run()
// blocking, start() nonblocking handles composing on one calendar,
// persistent() install-once/run-many with per-iteration switch hash-store
// reset, fresh-id reinstall fault recovery with a SparCML host fallback,
// and congestion-aware embedding + runtime migration.
#pragma once

#include "coll/op.hpp"
#include "core/block_state.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

/// The in-network sparse block codec (see the file comment).
class SparseOp final : public TreeOpBase {
 public:
  SparseOp(net::Network& net, NetworkManager& manager,
           const std::vector<net::Host*>& participants,
           const CollectiveOptions& desc, core::AllreduceConfig cfg,
           ReductionTree tree, bool owns_install,
           net::CongestionMonitor* monitor = nullptr);

 private:
  void stage(u64 seed) override;
  /// (Re)transmits every shard of host h's contribution to block b.  On a
  /// retransmission the switch trackers deduplicate by (child, shard_seq),
  /// so only the lost shard is fresh; a switch that already completed the
  /// block replays its cached shard sequence off the last shard instead.
  void send_block(u32 h, u32 b, u16 flags) override;
  /// Marks the shard and, at host 0, folds its pairs into the result; the
  /// block is complete once the announced shard count is in.
  bool accept(u32 h, const core::Packet& pkt) override;
  void reset_incomplete() override;
  void check(CollectiveResult& res) override;
  std::unique_ptr<OpBase> make_fallback_op() override;

  core::ReduceOp op_;
  u32 span_ = 0;   ///< index space per block
  u32 ppp_ = 0;    ///< pairs per packet
  u32 esize_ = 4;
  u64 spills_at_begin_ = 0;  ///< engine spill counters at iteration start
  /// Staged (host, block) pair lists for the CURRENT iteration; shared by
  /// the data plane and the reference check.
  std::vector<std::vector<std::vector<core::SparsePair>>> staged_;
  /// Down-multicast shard bookkeeping per (host, block): the per-seq
  /// bitmap makes switch re-emits of cached results idempotent at the host.
  std::vector<std::vector<core::ShardTracker>> down_;
  /// Host 0's accumulation of the down-multicast stream (contents are
  /// identical across hosts, so one copy is checked against the reference).
  core::TypedBuffer result_;
  u64 down_pairs_ = 0;
  u64 host_pairs_sent_ = 0;
};

}  // namespace flare::coll::detail
