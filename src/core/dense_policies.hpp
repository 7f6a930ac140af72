// Dense aggregation policies (Section 6 of the paper): three state machines
// on the AllreduceEngine chassis, one per organisation of a block's working
// memory.
//
//  * SingleBufferAggregator (6.1): every packet of a block accumulates into
//    one shared buffer inside a critical section.  Handlers that find the
//    buffer locked spin (PsPIN handlers are never suspended), consuming
//    core cycles — the contention collapse for small messages in Figure 7.
//
//  * MultiBufferAggregator (6.2): B buffers per block; a handler grabs any
//    idle buffer, so the lock-collision probability drops ~B-fold, at the
//    price of the last handler sequentially folding the B-1 partial buffers.
//
//  * TreeAggregator (6.3): every packet is copied into its own leaf buffer
//    (cheap DMA), then partial results are combined pairwise up a FIXED
//    binary tree.  A handler only climbs when its sibling subtree is already
//    done, so no handler ever waits — and because the combine order never
//    exploits associativity or commutativity, floating-point results are
//    bitwise reproducible across arrival orders (F3).
//
// All three are continuation-based state machines over the shared event
// calendar: every cycle charged is causally ordered, so lock waits, merge
// stalls and climb hand-offs happen at their true simulated times.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/allreduce_engine.hpp"
#include "core/block_state.hpp"

namespace flare::core {

class SingleBufferAggregator final : public AllreduceEngine {
 public:
  SingleBufferAggregator(EngineHost& host, const AllreduceConfig& cfg,
                         u64 pool_capacity_bytes);

 private:
  struct Block {
    PayloadVec buf;
    ChildBitmap bitmap;
    u32 aggregated = 0;  ///< packets folded into the buffer so far; the
                         ///< bitmap marks arrivals, but completion requires
                         ///< the aggregation work itself to have run
    bool has_data = false;
    SimTime first_arrival = 0;
    SlotQueue lock;  ///< the critical section (one slot)
  };

  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done,
                SimTime now) override;
  void on_reset() override;
  Block& get_block(u32 block_id, SimTime now);
  void in_critical_section(u32 block_id, std::shared_ptr<const Packet> pkt,
                           SimTime enqueued_at, SimTime start,
                           HandlerDone done);
  void leave_cs(u32 block_id, SimTime end);

  std::unordered_map<u32, Block> blocks_;
};

// ---------------------------------------------------------------------------

class MultiBufferAggregator final : public AllreduceEngine {
 public:
  MultiBufferAggregator(EngineHost& host, const AllreduceConfig& cfg,
                        u64 pool_capacity_bytes);

 private:
  struct Sub {
    PayloadVec buf;
    bool allocated = false;
    bool has_data = false;
  };
  struct Block {
    std::vector<Sub> subs;
    SlotQueue slots;  ///< which of the B sub-buffers a handler holds
    ChildBitmap bitmap;
    u32 aggregated = 0;  ///< packets whose aggregation work has finished
    u32 elems = 0;       ///< payload elements (ragged last block support)
    u32 max_allocated = 0;  ///< peak simultaneously-allocated sub-buffers
    SimTime first_arrival = 0;
  };

  Block& get_block(u32 block_id, SimTime now);
  /// Cached blocks_.at(): a block's packets are handled in a burst (arrive,
  /// aggregate, merge, finish), so consecutive lookups overwhelmingly hit
  /// the same block.  unordered_map references are stable under insert, so
  /// the cache only needs invalidating when the block is erased.
  Block& block_ref(u32 block_id) {
    if (cached_block_ != nullptr && cached_block_id_ == block_id) {
      return *cached_block_;
    }
    Block& b = blocks_.at(block_id);
    cached_block_id_ = block_id;
    cached_block_ = &b;
    return b;
  }
  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done,
                SimTime now) override;
  void on_reset() override;
  void run_on_sub(u32 block_id, u32 sub_idx,
                  std::shared_ptr<const Packet> pkt, SimTime enqueued_at,
                  SimTime start, HandlerDone done);
  void merge_chain(u32 block_id, u32 my_sub, SimTime t, HandlerDone done);
  void finish_block(u32 block_id, u32 my_sub, SimTime t, HandlerDone done);

  std::unordered_map<u32, Block> blocks_;
  u32 cached_block_id_ = 0;
  Block* cached_block_ = nullptr;  ///< one-entry cache over blocks_
};

// ---------------------------------------------------------------------------

class TreeAggregator final : public AllreduceEngine {
 public:
  TreeAggregator(EngineHost& host, const AllreduceConfig& cfg,
                 u64 pool_capacity_bytes);

  /// Exposed for tests: the fixed combine tree over `p` leaves.  Node 0 is
  /// the root; leaves are identified by child index.
  struct TreeShape {
    struct Node {
      u32 lo, hi;       ///< covers children [lo, hi)
      i32 left = -1;    ///< node index, -1 for none
      i32 right = -1;
      i32 parent = -1;
    };
    std::vector<Node> nodes;
    u32 leaf_of(u32 child) const;  ///< node index of leaf for `child`
  };
  static TreeShape build_shape(u32 p);

 private:
  struct NodeState {
    bool done = false;
    bool claimed = false;  ///< a handler is (or has) combining this node
    PayloadVec buf;  ///< subtree result, valid when done
  };
  struct Block {
    std::vector<NodeState> nodes;
    ChildBitmap bitmap;
    u32 elems = 0;          ///< payload elements (ragged last block support)
    u32 alive_buffers = 0;  ///< currently-held leaf/internal buffers
    u32 max_alive = 0;      ///< peak — the paper's M = (P-1)/log2(P) profile
    SimTime first_arrival = 0;
  };

  Block& get_block(u32 block_id, SimTime now);
  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done,
                SimTime now) override;
  void on_reset() override;
  void climb(u32 block_id, u32 node, SimTime t, HandlerDone done);
  void complete_root(u32 block_id, SimTime t, HandlerDone done);

  TreeShape shape_;
  std::unordered_map<u32, Block> blocks_;
};

}  // namespace flare::core
