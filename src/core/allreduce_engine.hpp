// One installed allreduce on one switch: its configuration, its working-
// memory partition (Section 4: memory is statically partitioned across
// allreduces) and the engine chassis every aggregation policy runs on.
//
// The paper's switch handler is one design with four ways to lay out a
// block's working memory: single buffer, multiple buffers and tree
// (Sections 6.1-6.3, dense_policies.hpp) and sparse hash/array stores
// (Section 7, sparse_policy.hpp).  AllreduceEngine owns what the four share:
// the handler's dispatch + DMA delay, completed-block dedup, guarded
// calendar events, emission and completion accounting, and reset.  SlotQueue
// is the one FIFO hand-over of a block's B buffers/stores (B = 1 is the
// single buffer's critical section).  Each policy adds only its state
// machine, entered at on_ready.
//
// Both hosting substrates (the PsPIN unit and the network-simulator switch)
// hold one engine per installed allreduce id, built by make_engine.
#pragma once

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "core/buffer_pool.hpp"
#include "core/engine_host.hpp"
#include "core/policy.hpp"
#include "core/reduce_op.hpp"

namespace flare::core {

/// Static configuration of one installed allreduce on one switch.
struct AllreduceConfig {
  u32 id = 0;
  /// Attribution tag (Network::alloc_trace_id): stamped onto every packet
  /// this collective serializes so links can account busy-time per session.
  /// Stable across fresh-id reinstalls — only `id` churns on migration.
  /// 0 = untagged.
  u32 trace = 0;
  /// P: number of children of this switch in the reduction tree.
  u32 num_children = 1;
  DType dtype = DType::kFloat32;
  ReduceOp op{OpKind::kSum};
  /// N: elements per (dense) packet / block.
  u32 elems_per_packet = 256;
  AggPolicy policy = AggPolicy::kTree;
  u32 num_buffers = 1;  ///< B for the multi-buffer policy
  bool reproducible = false;
  /// Root of the reduction tree: results are flagged kFlagDown.
  bool is_root = true;
  /// Aggregation buffers live in a remote cluster's L1 (what happens
  /// WITHOUT hierarchical FCFS scheduling, Section 5): every access pays
  /// the up-to-25x penalty.  Used by the scheduler ablation.
  bool remote_l1 = false;

  /// Host-side fault recovery is armed (Tuning::retransmit_timeout_ps):
  /// switches cache each block's emitted packets for retransmission replay
  /// only when someone can actually ask for them.
  bool fault_recovery = false;

  // --- sparse allreduce (Section 7) ---
  bool sparse = false;
  bool hash_storage = true;     ///< hash+spill if true, contiguous array else
  u32 block_span = 0;           ///< elements of index space per sparse block
  u32 pairs_per_packet = 128;   ///< MTU budget in (index, value) pairs
  u32 hash_capacity_pairs = 256;
  u32 spill_capacity_pairs = 64;

  u64 dense_block_bytes() const {
    return static_cast<u64>(elems_per_packet) * dtype_size(dtype);
  }
};

/// Counters shared by all aggregation policies.
struct EngineStats {
  u64 packets_in = 0;
  u64 payload_bytes_in = 0;
  u64 duplicates_dropped = 0;
  u64 blocks_completed = 0;
  u64 packets_emitted = 0;
  u64 bytes_emitted = 0;        ///< wire bytes of emitted packets
  u64 spill_packets = 0;
  u64 spill_pairs = 0;
  RunningStats block_latency;   ///< cycles, first packet arrival -> emit
  RunningStats block_mem_bytes; ///< working-memory footprint per block
  RunningStats cs_wait_cycles;  ///< per-handler critical-section spin time
};

/// The B interchangeable slots of one block — its buffers, its stores, or
/// (B = 1) the single buffer's lock — handed over FIFO.  A handler takes
/// the lowest idle slot or spins in the queue (PsPIN handlers are never
/// suspended); a released slot passes straight to the oldest spinner, which
/// resumes at the release time still holding it.
class SlotQueue {
 public:
  /// Sets the slot count; every slot starts idle.
  void reset(u32 slots) {
    FLARE_ASSERT(slots >= 1);
    n_ = slots;
    low_ = 0;
    high_.assign(slots > 64 ? slots - 64 : 0, false);
  }

  /// Runs `fn(now, slot)` on the lowest idle slot, or queues it to run
  /// `fn(release time, slot)` when a holder releases one.
  template <typename F>
  void acquire(SimTime now, F&& fn) {
    const u32 s = lowest_idle();
    if (s < n_) {
      mark(s, true);
      fn(now, s);
    } else {
      waiters_.emplace_back(std::forward<F>(fn));
    }
  }

  /// Hands `slot` to the oldest waiter, or marks it idle.  Returns true on
  /// a hand-over (the slot stays busy).
  bool release(u32 slot, SimTime at) {
    if (waiters_.empty()) {
      mark(slot, false);
      return false;
    }
    auto fn = std::move(waiters_.front());
    waiters_.pop_front();
    fn(at, slot);
    return true;
  }

  bool busy(u32 slot) const {
    return slot < 64 ? ((low_ >> slot) & 1u) != 0 : high_[slot - 64];
  }

 private:
  // Slots 0-63 live in one word, so the usual B <= 64 never allocates.
  u32 lowest_idle() const {
    const u32 s = static_cast<u32>(std::countr_one(low_));
    if (s < 64) return s;
    return 64 + static_cast<u32>(std::find(high_.begin(), high_.end(), false) -
                                 high_.begin());
  }
  void mark(u32 slot, bool b) {
    if (slot >= 64) {
      high_[slot - 64] = b;
    } else if (b) {
      low_ |= 1ull << slot;
    } else {
      low_ &= ~(1ull << slot);
    }
  }

  u32 n_ = 1;
  u64 low_ = 0;
  std::vector<bool> high_;
  std::deque<std::function<void(SimTime, u32)>> waiters_;
};

/// Aggregation engine of one installed allreduce.  The hosting simulator
/// calls `process` when an HPU core *starts* the handler for a packet; the
/// engine charges dispatch/DMA/aggregation cycles on the event calendar and
/// calls `done` exactly once with the core-release time.
class AllreduceEngine {
 public:
  virtual ~AllreduceEngine() = default;
  AllreduceEngine(const AllreduceEngine&) = delete;
  AllreduceEngine& operator=(const AllreduceEngine&) = delete;

  void process(std::shared_ptr<const Packet> pkt, HandlerDone done);

  /// Between iterations of a persistent collective (install-once /
  /// run-many): clears per-iteration block state (open blocks and the
  /// completed-block dedup set) so the same block ids can run again.
  /// Cumulative stats are preserved.
  void reset();

  const AllreduceConfig& config() const { return cfg_; }
  const EngineStats& stats() const { return stats_; }
  const BufferPool& pool() const { return pool_; }

 protected:
  /// `pool_capacity_bytes == 0` -> accounting-only pool.
  AllreduceEngine(EngineHost& host, const AllreduceConfig& cfg,
                  u64 pool_capacity_bytes);

  /// The policy's state machine, entered once the handler's dispatch and
  /// DMA delay has passed for a packet of a block not yet completed.
  virtual void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done,
                        SimTime now) = 0;
  /// reset() hook for the policy's open blocks.
  virtual void on_reset() = 0;

  /// Duplicate prologue: a packet for a completed block, or from a child
  /// already marked, is counted and its handler ends at once.  Returns
  /// `duplicate`.
  bool drop_duplicate(bool duplicate, const HandlerDone& done, SimTime now) {
    if (duplicate) {
      stats_.duplicates_dropped += 1;
      done(now);
    }
    return duplicate;
  }

  /// Schedules an engine event.  The recovery plane can destroy an engine
  /// (switch crash, role uninstall) while its events are still queued: they
  /// expire instead of touching the dead engine.
  template <typename F>
  void schedule(SimTime at, F&& fn) {
    host_.simulator().schedule_at(
        at, [alive = std::weak_ptr<const char>(alive_),
             fn = std::forward<F>(fn)]() mutable {
          if (!alive.expired()) fn();
        });
  }

  /// Returns `bytes` of working memory to the pool at `at`.
  void release_at(SimTime at, u64 bytes) {
    schedule(at, [this, bytes] {
      pool_.release(bytes, host_.simulator().now());
    });
  }

  /// Sends a packet the engine produced; it leaves at `when`.
  void emit_packet(Packet&& pkt, SimTime when) {
    stats_.packets_emitted += 1;
    stats_.bytes_emitted += pkt.wire_bytes();
    host_.emit(std::move(pkt), when);
  }

  /// Books a finished block: its result left at `end`, it held
  /// `mem_bytes` of working memory, and later packets for it are dropped.
  void complete_block(u32 block_id, SimTime end, SimTime first_arrival,
                      f64 mem_bytes) {
    stats_.blocks_completed += 1;
    stats_.block_latency.add(static_cast<f64>(end - first_arrival));
    stats_.block_mem_bytes.add(mem_bytes);
    completed_.insert(block_id);
  }

  EngineHost& host_;
  AllreduceConfig cfg_;
  BufferPool pool_;
  EngineStats stats_;
  std::unordered_set<u32> completed_;

 private:
  std::shared_ptr<const char> alive_ = std::make_shared<const char>(0);
};

/// Builds the engine for `cfg`: sparse, or the dense policy it names.
std::unique_ptr<AllreduceEngine> make_engine(EngineHost& host,
                                             const AllreduceConfig& cfg,
                                             u64 pool_capacity_bytes = 0);

}  // namespace flare::core
