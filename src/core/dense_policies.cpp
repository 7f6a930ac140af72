#include "core/dense_policies.hpp"

#include <algorithm>
#include <cstring>

namespace flare::core {

namespace {

/// Builds the block-result packet from an aggregation buffer.  `elems` may
/// be smaller than the configured N for the ragged last block of a message.
Packet make_result_packet(const AllreduceConfig& cfg, u32 block_id,
                          PayloadVec&& buf, u32 elems) {
  Packet out;
  out.hdr.allreduce_id = cfg.id;
  out.hdr.block_id = block_id;
  out.hdr.elem_count = elems;
  out.hdr.shard_count = 1;
  out.hdr.flags = kFlagLastShard;
  if (cfg.is_root) out.hdr.flags |= kFlagDown;
  buf.resize(static_cast<std::size_t>(elems) * dtype_size(cfg.dtype));
  out.payload = std::move(buf);
  return out;
}

constexpr const char* kOpenBlocksAtReset =
    "reset with open blocks: packets still in flight";

}  // namespace

// ===========================================================================
// SingleBufferAggregator
// ===========================================================================

SingleBufferAggregator::SingleBufferAggregator(EngineHost& host,
                                               const AllreduceConfig& cfg,
                                               u64 pool_capacity_bytes)
    : AllreduceEngine(host, cfg, pool_capacity_bytes) {}

SingleBufferAggregator::Block& SingleBufferAggregator::get_block(
    u32 block_id, SimTime now) {
  auto [it, inserted] = blocks_.try_emplace(block_id);
  Block& blk = it->second;
  if (inserted) {
    blk.bitmap.reset(cfg_.num_children);
    blk.buf.resize(cfg_.dense_block_bytes());
    blk.first_arrival = now;
    const bool ok = pool_.acquire(cfg_.dense_block_bytes(), now);
    FLARE_ASSERT_MSG(ok, "working-memory pool exhausted (host window too "
                         "large for the allocated buffers)");
  }
  return blk;
}

void SingleBufferAggregator::on_reset() {
  FLARE_ASSERT_MSG(blocks_.empty(), kOpenBlocksAtReset);
}

void SingleBufferAggregator::on_ready(std::shared_ptr<const Packet> pkt,
                                      HandlerDone done, SimTime now) {
  const u32 bid = pkt->hdr.block_id;
  Block& blk = get_block(bid, now);
  if (drop_duplicate(!blk.bitmap.mark(pkt->hdr.child_index), done, now)) {
    return;
  }
  blk.lock.acquire(now, [this, bid, pkt = std::move(pkt), now,
                         done = std::move(done)](SimTime start,
                                                 u32) mutable {
    in_critical_section(bid, std::move(pkt), now, start, std::move(done));
  });
}

void SingleBufferAggregator::in_critical_section(
    u32 block_id, std::shared_ptr<const Packet> pkt, SimTime enqueued_at,
    SimTime start, HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  stats_.cs_wait_cycles.add(static_cast<f64>(start - enqueued_at));
  const auto& costs = host_.costs();
  const u32 elems = pkt->hdr.elem_count;
  FLARE_ASSERT(pkt->payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));

  u64 work;
  if (!blk.has_data) {
    // First packet of the block: plain buffer initialization via DMA.
    // (Barrier blocks are 0-byte; memcpy must not see a null source.)
    if (!pkt->payload.empty()) {
      std::memcpy(blk.buf.data(), pkt->payload.data(),
                  pkt->payload.size());
    }
    blk.has_data = true;
    work = costs.dma_packet_cycles;
  } else {
    cfg_.op.apply(cfg_.dtype, blk.buf.data(), pkt->payload.data(), elems);
    work = costs.aggregation_cycles(cfg_.dtype, elems, cfg_.remote_l1);
  }

  blk.aggregated += 1;
  SimTime end = start + work;
  if (blk.aggregated == cfg_.num_children) {
    FLARE_ASSERT(blk.bitmap.complete());
    end += costs.emit_packet_cycles;
    emit_packet(make_result_packet(cfg_, block_id, std::move(blk.buf), elems),
                end);
    complete_block(block_id, end, blk.first_arrival,
                   static_cast<f64>(cfg_.dense_block_bytes()));
  }
  leave_cs(block_id, end);
  done(end);
}

void SingleBufferAggregator::leave_cs(u32 block_id, SimTime end) {
  schedule(end, [this, block_id] {
    auto it = blocks_.find(block_id);
    if (it == blocks_.end()) return;
    const SimTime now = host_.simulator().now();
    if (it->second.lock.release(0, now)) return;  // the lock hands over
    if (completed_.contains(block_id)) {
      pool_.release(cfg_.dense_block_bytes(), now);
      blocks_.erase(it);
    }
  });
}

// ===========================================================================
// MultiBufferAggregator
// ===========================================================================

MultiBufferAggregator::MultiBufferAggregator(EngineHost& host,
                                             const AllreduceConfig& cfg,
                                             u64 pool_capacity_bytes)
    : AllreduceEngine(host, cfg, pool_capacity_bytes) {
  FLARE_ASSERT_MSG(cfg_.num_buffers >= 1, "multi-buffer needs B >= 1");
}

MultiBufferAggregator::Block& MultiBufferAggregator::get_block(u32 block_id,
                                                               SimTime now) {
  if (cached_block_ != nullptr && cached_block_id_ == block_id) {
    return *cached_block_;
  }
  auto [it, inserted] = blocks_.try_emplace(block_id);
  Block& blk = it->second;
  if (inserted) {
    blk.bitmap.reset(cfg_.num_children);
    blk.subs.resize(cfg_.num_buffers);
    blk.slots.reset(cfg_.num_buffers);
    blk.first_arrival = now;
  }
  cached_block_id_ = block_id;
  cached_block_ = &blk;
  return blk;
}

void MultiBufferAggregator::on_reset() {
  FLARE_ASSERT_MSG(blocks_.empty(), kOpenBlocksAtReset);
  cached_block_ = nullptr;
}

void MultiBufferAggregator::on_ready(std::shared_ptr<const Packet> pkt,
                                     HandlerDone done, SimTime now) {
  const u32 bid = pkt->hdr.block_id;
  Block& blk = get_block(bid, now);
  if (drop_duplicate(!blk.bitmap.mark(pkt->hdr.child_index), done, now)) {
    return;
  }
  blk.slots.acquire(now, [this, bid, pkt = std::move(pkt), now,
                          done = std::move(done)](SimTime start,
                                                  u32 sub) mutable {
    run_on_sub(bid, sub, std::move(pkt), now, start, std::move(done));
  });
}

void MultiBufferAggregator::run_on_sub(u32 block_id, u32 sub_idx,
                                       std::shared_ptr<const Packet> pkt,
                                       SimTime enqueued_at, SimTime start,
                                       HandlerDone done) {
  Block& blk = block_ref(block_id);
  Sub& s = blk.subs[sub_idx];
  stats_.cs_wait_cycles.add(static_cast<f64>(start - enqueued_at));
  const auto& costs = host_.costs();
  const u32 elems = pkt->hdr.elem_count;
  FLARE_ASSERT(pkt->payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));

  if (blk.elems == 0) blk.elems = elems;
  u64 work;
  if (!s.allocated) {
    const bool ok = pool_.acquire(cfg_.dense_block_bytes(), start);
    FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
    s.buf.resize(cfg_.dense_block_bytes());
    s.allocated = true;
    u32 allocated = 0;
    for (const Sub& sub : blk.subs)
      if (sub.allocated) ++allocated;
    blk.max_allocated = std::max(blk.max_allocated, allocated);
  }
  if (!s.has_data) {
    if (!pkt->payload.empty()) {
      std::memcpy(s.buf.data(), pkt->payload.data(), pkt->payload.size());
    }
    s.has_data = true;
    work = costs.dma_packet_cycles;
  } else {
    cfg_.op.apply(cfg_.dtype, s.buf.data(), pkt->payload.data(), elems);
    work = costs.aggregation_cycles(cfg_.dtype, elems, cfg_.remote_l1);
  }

  schedule(start + work,
           [this, block_id, sub_idx, done = std::move(done)]() mutable {
             Block& b = block_ref(block_id);
             b.aggregated += 1;
             const SimTime now = host_.simulator().now();
             if (b.aggregated == cfg_.num_children && b.bitmap.complete()) {
               // Causally-last handler: fold the partial buffers (6.2).
               merge_chain(block_id, sub_idx, now, std::move(done));
             } else {
               b.slots.release(sub_idx, now);
               done(now);
             }
           });
}

void MultiBufferAggregator::merge_chain(u32 block_id, u32 my_sub, SimTime t,
                                        HandlerDone done) {
  Block& blk = block_ref(block_id);
  // By construction no other handler is active on this block (aggregated ==
  // P), so the remaining buffers are idle and can be folded sequentially.
  for (u32 j = 0; j < blk.subs.size(); ++j) {
    if (j == my_sub) continue;
    Sub& s = blk.subs[j];
    FLARE_ASSERT_MSG(!blk.slots.busy(j), "merge with an active buffer");
    if (!s.has_data) continue;
    const u64 merge_cost =
        host_.costs().aggregation_cycles(cfg_.dtype, blk.elems, cfg_.remote_l1);
    schedule(t + merge_cost,
             [this, block_id, my_sub, j, done = std::move(done)]() mutable {
               Block& b = block_ref(block_id);
               cfg_.op.apply(cfg_.dtype, b.subs[my_sub].buf.data(),
                             b.subs[j].buf.data(), b.elems);
               b.subs[j].has_data = false;
               b.subs[j].allocated = false;
               b.subs[j].buf = {};
               const SimTime now = host_.simulator().now();
               pool_.release(cfg_.dense_block_bytes(), now);
               merge_chain(block_id, my_sub, now, std::move(done));
             });
    return;
  }
  finish_block(block_id, my_sub, t, std::move(done));
}

void MultiBufferAggregator::finish_block(u32 block_id, u32 my_sub, SimTime t,
                                         HandlerDone done) {
  Block& blk = block_ref(block_id);
  const SimTime end = t + host_.costs().emit_packet_cycles;
  emit_packet(make_result_packet(cfg_, block_id,
                                 std::move(blk.subs[my_sub].buf), blk.elems),
              end);
  complete_block(block_id, end, blk.first_arrival,
                 static_cast<f64>(blk.max_allocated) *
                     static_cast<f64>(cfg_.dense_block_bytes()));
  release_at(end, cfg_.dense_block_bytes());
  if (cached_block_id_ == block_id) cached_block_ = nullptr;
  blocks_.erase(block_id);
  done(end);
}

// ===========================================================================
// TreeAggregator
// ===========================================================================

TreeAggregator::TreeShape TreeAggregator::build_shape(u32 p) {
  FLARE_ASSERT(p >= 1);
  TreeShape shape;
  // Recursive balanced split with a FIXED midpoint: the association (and the
  // left/right operand order) never depends on arrival order, which is what
  // makes the floating-point result bitwise reproducible (F3).
  struct Builder {
    TreeShape& s;
    u32 build(u32 lo, u32 hi, i32 parent) {
      const u32 idx = static_cast<u32>(s.nodes.size());
      s.nodes.push_back({lo, hi, -1, -1, parent});
      if (hi - lo > 1) {
        const u32 mid = lo + (hi - lo + 1) / 2;
        const u32 l = build(lo, mid, static_cast<i32>(idx));
        const u32 r = build(mid, hi, static_cast<i32>(idx));
        s.nodes[idx].left = static_cast<i32>(l);
        s.nodes[idx].right = static_cast<i32>(r);
      }
      return idx;
    }
  };
  Builder{shape}.build(0, p, -1);
  return shape;
}

u32 TreeAggregator::TreeShape::leaf_of(u32 child) const {
  for (u32 i = 0; i < nodes.size(); ++i) {
    if (nodes[i].left < 0 && nodes[i].lo == child) return i;
  }
  FLARE_UNREACHABLE("child outside tree");
}

TreeAggregator::TreeAggregator(EngineHost& host, const AllreduceConfig& cfg,
                               u64 pool_capacity_bytes)
    : AllreduceEngine(host, cfg, pool_capacity_bytes),
      shape_(build_shape(cfg.num_children)) {}

TreeAggregator::Block& TreeAggregator::get_block(u32 block_id, SimTime now) {
  auto [it, inserted] = blocks_.try_emplace(block_id);
  Block& blk = it->second;
  if (inserted) {
    blk.bitmap.reset(cfg_.num_children);
    blk.nodes.resize(shape_.nodes.size());
    blk.first_arrival = now;
  }
  return blk;
}

void TreeAggregator::on_reset() {
  FLARE_ASSERT_MSG(blocks_.empty(), kOpenBlocksAtReset);
}

void TreeAggregator::on_ready(std::shared_ptr<const Packet> pkt,
                              HandlerDone done, SimTime now) {
  const u32 bid = pkt->hdr.block_id;
  Block& blk = get_block(bid, now);
  const u32 child = pkt->hdr.child_index;
  if (drop_duplicate(!blk.bitmap.mark(child), done, now)) return;
  const u32 elems = pkt->hdr.elem_count;
  FLARE_ASSERT(pkt->payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));
  if (blk.elems == 0) blk.elems = elems;

  const u32 leaf = shape_.leaf_of(child);
  const bool ok = pool_.acquire(cfg_.dense_block_bytes(), now);
  FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
  blk.alive_buffers += 1;
  blk.max_alive = std::max(blk.max_alive, blk.alive_buffers);
  blk.nodes[leaf].buf.assign(pkt->payload.begin(), pkt->payload.end());

  // The copy is DMA-assisted (64 cycles, Section 6.3) — far cheaper than the
  // 1024-cycle aggregation, which is the whole point of the tree design.
  schedule(now + host_.costs().dma_packet_cycles,
           [this, bid, leaf, done = std::move(done)]() mutable {
             auto it = blocks_.find(bid);
             FLARE_ASSERT(it != blocks_.end());
             it->second.nodes[leaf].done = true;
             climb(bid, leaf, host_.simulator().now(), std::move(done));
           });
}

void TreeAggregator::climb(u32 block_id, u32 node, SimTime t,
                           HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  const i32 parent = shape_.nodes[node].parent;
  if (parent < 0) {
    // `node` is the root and it is done: emit the block result.
    complete_root(block_id, t, std::move(done));
    return;
  }
  const auto& pn = shape_.nodes[static_cast<u32>(parent)];
  const u32 sibling = (static_cast<u32>(pn.left) == node)
                          ? static_cast<u32>(pn.right)
                          : static_cast<u32>(pn.left);
  NodeState& sib = blk.nodes[sibling];
  NodeState& par = blk.nodes[static_cast<u32>(parent)];
  if (!sib.done || par.claimed) {
    // Sibling subtree not ready (its handler will continue the climb) or
    // another handler already owns this combine: terminate without waiting.
    done(t);
    return;
  }
  par.claimed = true;
  const u64 combine_cost =
      host_.costs().aggregation_cycles(cfg_.dtype, blk.elems, cfg_.remote_l1);
  schedule(t + combine_cost,
           [this, block_id, parent, done = std::move(done)]() mutable {
             Block& b = blocks_.at(block_id);
             const auto& p = shape_.nodes[static_cast<u32>(parent)];
             NodeState& left = b.nodes[static_cast<u32>(p.left)];
             NodeState& right = b.nodes[static_cast<u32>(p.right)];
             // Fixed operand order: parent = op(left, right).
             cfg_.op.apply(cfg_.dtype, left.buf.data(), right.buf.data(),
                           b.elems);
             NodeState& par2 = b.nodes[static_cast<u32>(parent)];
             par2.buf = std::move(left.buf);
             left.buf = {};
             right.buf = {};
             const SimTime now = host_.simulator().now();
             pool_.release(cfg_.dense_block_bytes(), now);
             b.alive_buffers -= 1;
             par2.done = true;
             climb(block_id, static_cast<u32>(parent), now, std::move(done));
           });
}

void TreeAggregator::complete_root(u32 block_id, SimTime t,
                                   HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  const SimTime end = t + host_.costs().emit_packet_cycles;
  emit_packet(make_result_packet(cfg_, block_id, std::move(blk.nodes[0].buf),
                                 blk.elems),
              end);
  complete_block(block_id, end, blk.first_arrival,
                 static_cast<f64>(blk.max_alive) *
                     static_cast<f64>(cfg_.dense_block_bytes()));
  release_at(end, cfg_.dense_block_bytes());
  blocks_.erase(block_id);
  done(end);
}

}  // namespace flare::core
