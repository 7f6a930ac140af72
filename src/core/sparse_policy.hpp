// Sparse in-network aggregation (Section 7) — the first in-network sparse
// allreduce — as the fourth state machine on the AllreduceEngine chassis.
// Differences from the dense policies:
//
//  * a block may arrive as several packets per child ("Block split"): the
//    per-child shard counters in SparseBlockTracker detect completion;
//  * all-zero blocks arrive as header-only packets ("Empty blocks");
//  * the working structure is a HashStore (leaf switches) or an ArrayStore
//    (root switch, where data has densified);
//  * hash collisions spill into a bounded spill buffer which, when full, is
//    flushed onto the network immediately — trading extra traffic for
//    constant memory (Figure 14's "Extra Traffic" panel).
//
// Parallelism follows Section 6 applied to sparse: B independent stores per
// block (B=1 reproduces the single-buffer critical-section design); the
// causally-last handler merges the B-1 sibling stores, scans, and emits the
// aggregated pairs.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/allreduce_engine.hpp"
#include "core/block_state.hpp"
#include "core/sparse_store.hpp"

namespace flare::core {

/// Builds a sparse wire packet from stored pairs (no f64 round-trip).
Packet make_sparse_packet_from_pairs(const AllreduceConfig& cfg, u32 block_id,
                                     std::vector<StoredPair>::const_iterator
                                         first,
                                     u32 count, u16 flags, u32 shard_seq);

class SparseAggregator final : public AllreduceEngine {
 public:
  SparseAggregator(EngineHost& host, const AllreduceConfig& cfg,
                   u64 pool_capacity_bytes);

 private:
  struct StoreSlot {
    std::unique_ptr<SparseStore> store;
    std::vector<StoredPair> spill;
  };
  struct Block {
    std::vector<StoreSlot> stores;
    SlotQueue slots;  ///< which of the B stores a handler holds
    std::unique_ptr<SparseBlockTracker> tracker;
    u32 seen = 0;      ///< fresh packets registered (at mark time)
    u32 inserted = 0;  ///< fresh packets whose work completed (at end time)
    u32 emit_seq = 0;  ///< shard_seq for packets this node emits
    SimTime first_arrival = 0;
  };

  Block& get_block(u32 block_id, SimTime now);
  std::unique_ptr<SparseStore> make_store() const;
  u64 store_footprint() const;

  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done,
                SimTime now) override;
  /// Open blocks can remain when a persistent session resets an engine
  /// whose iteration the recovery plane abandoned (a fresh-id reinstall
  /// elsewhere left it mid-block): they are dropped and their stores
  /// returned, or the pool would report a leak for the install's lifetime.
  void on_reset() override;
  void run_on_store(u32 block_id, u32 store_idx,
                    std::shared_ptr<const Packet> pkt, SimTime enqueued_at,
                    SimTime start, HandlerDone done);
  /// Flushes `slot`'s spill buffer as a packet leaving at `when`.
  void flush_spill(Block& blk, StoreSlot& slot, u32 block_id, SimTime when);
  void finalize_block(u32 block_id, u32 my_store, SimTime t,
                      HandlerDone done);

  std::unordered_map<u32, Block> blocks_;
};

}  // namespace flare::core
