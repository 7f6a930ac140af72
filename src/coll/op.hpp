// The collective-op lifecycle shared by every engine the Communicator
// drives (coll/communicator.hpp is the public entry point).
//
// detail::OpBase is one in-flight collective on the event calendar: begin()
// kicks off an iteration, publish() hands the result to the caller's
// CollectiveHandle.  Two chassis sit on it:
//
// detail::TreeOpBase is the chassis of the TREE-BACKED in-network ops.
// Dense and sparse hosts play the same role (Section 4.1): stream
// reduction blocks under a window, retransmit a block after a host
// timeout, consume the switch's multicast result.  So the base owns the
// whole block pipeline — per-host send schedules and window, the duplicate
// filter and completion tail of the down path, the timeout scan with
// exponential backoff, restart after a reinstall, and the shared half of
// finalize — and the concrete op (dense InNetOp, sparse SparseOp) is a
// block CODEC: it stages an iteration, encodes a block into packets,
// decides when a received block is complete (one packet dense; every
// shard sparse) and checks the result.  The base also owns the installed
// reduction tree's lifetime and the three control-plane reactions:
//
//   * fault recovery — fresh-id uninstall/reinstall on the surviving
//     fabric, bounded heal-waits, and a pluggable host-side fallback data
//     plane (the ring for dense allreduce, SparCML for sparse);
//   * persistent upkeep — per-iteration engine reset, transparent
//     reinstall after a crash, fallback probing once the fabric heals;
//   * congestion migration — break-before-make re-embedding of the
//     Canary-style dynamic trees, triggered on the worst tree edge's
//     FOREIGN EWMA utilization (per-collective link attribution subtracts
//     the session's own traffic; no completion-time gate needed).
//
// detail::HostOpBase is the one reliable host-to-host channel under the
// HOST-BASED ops (the ring, SparCML).  A host op is a step schedule: each
// host walks steps 0..num_steps()-1, sending one payload to its send peer
// and consuming one payload from its receive peer per step.  The base owns
// everything else — a fresh wire-protocol id per op, fragmentation at
// kMtuBytes with per-fragment reassembly bitmaps, per-step sent snapshots,
// receiver-driven NACK/replay under a watchdog with capped exponential
// backoff, the bounded NACK budget, and the shared half of finalize.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coll/manager.hpp"
#include "coll/options.hpp"
#include "coll/result.hpp"
#include "common/validate.hpp"
#include "net/packet.hpp"

namespace flare::obs {
class Tracer;
}  // namespace flare::obs

namespace flare::coll {

using CompletionFn = std::function<void(const CollectiveResult&)>;

namespace detail {

/// Shared completion record behind a CollectiveHandle.
struct OpState {
  bool done = false;
  CollectiveResult result;
  CompletionFn on_complete;
};

class OpBase {
 public:
  virtual ~OpBase() = default;
  OpBase(const OpBase&) = delete;
  OpBase& operator=(const OpBase&) = delete;

  /// Kicks off one iteration: (re)wires host handlers, stages data and
  /// enqueues the first sends on the calendar.  `state` receives the
  /// result; its on_complete (if any) fires at completion.
  virtual void begin(u64 seed, std::shared_ptr<OpState> state) = 0;

  /// The LIVE reduction tree of an in-network op holding an install;
  /// nullptr for host-based ops and after a fault stripped the tree.
  virtual const ReductionTree* current_tree() const { return nullptr; }

  /// Congestion migrations performed over the op's lifetime (0 for
  /// host-based ops).
  virtual u32 migrations() const { return 0; }

  /// Stages an optimizer-planned re-embedding (a PlacementPlan move) to
  /// apply at the next iteration boundary through the break-before-make
  /// fresh-id path.  Returns false — and stages nothing — for host-based
  /// ops and for tree ops currently without an install (fallback/outage):
  /// the service re-plans such jobs on a later round instead.
  virtual bool plan_migration(const ReductionTree& target) {
    (void)target;
    return false;
  }

  /// Optimizer-planned migrations applied over the op's lifetime —
  /// disjoint from migrations(), which counts only the op's own reactive
  /// moves (the bench asserts the co-placement win comes from planning,
  /// not more reactive churn).
  virtual u32 planned_migrations() const { return 0; }

#if FLARE_VALIDATE_ENABLED
  /// Seeded-violation backdoor for the "plan-apply" audit; false when the
  /// op has no planned-move machinery (host-based ops).
  virtual bool debug_break_next_plan_apply() { return false; }
#endif

  /// Releases installed switch state and host handlers; idempotent, no-op
  /// for host-based ops.  Called by PersistentCollective::release().
  virtual void release_install() {}

  /// True once finalize ran and (for one-shot ops) resources are released.
  bool reapable() const { return complete_; }

 protected:
  OpBase() = default;

  /// Publishes the result and invokes the completion callback.  MUST be
  /// the last thing a finalize path does: the callback may destroy the op
  /// (service jobs self-erase), so no member access is allowed after it.
  void publish(CollectiveResult&& res) {
    auto st = std::move(state_);
    st->result = std::move(res);
    st->done = true;
    auto cb = std::move(st->on_complete);
    if (cb) cb(st->result);  // 'this' may be destroyed here
  }

  std::shared_ptr<OpState> state_;
  bool complete_ = false;
};

/// Chassis of the tree-backed in-network ops (see the file comment).  The
/// concrete op is a block codec: it supplies the packet contents and the
/// "block complete" test through the hooks below; the block pipeline and
/// everything about the install's lifetime — recovery, persistence,
/// migration — run here, identically for the dense and sparse engines.
class TreeOpBase : public OpBase {
 public:
  TreeOpBase(net::Network& net, NetworkManager& manager,
             const std::vector<net::Host*>& participants,
             const CollectiveOptions& desc, core::AllreduceConfig cfg,
             ReductionTree tree, bool owns_install, bool sparse,
             net::CongestionMonitor* monitor);
  ~TreeOpBase() override;

  /// Kicks off one iteration: persistent upkeep and migration at the
  /// boundary, then either the fallback data plane or the in-network
  /// block pipeline (stage, wire hosts, first window of sends, watchdog).
  void begin(u64 seed, std::shared_ptr<OpState> state) final;

  const ReductionTree* current_tree() const override {
    return installed_ ? &tree_ : nullptr;
  }
  u32 migrations() const override { return migrations_total_; }
  bool plan_migration(const ReductionTree& target) override;
  u32 planned_migrations() const override { return planned_total_; }
  void release_install() override;

#if FLARE_VALIDATE_ENABLED
  /// After the next planned migration installs, silently strips the first
  /// tree switch's role so the audit MUST fire (validate_test proves it).
  bool debug_break_next_plan_apply() override {
    debug_break_plan_apply_ = true;
    return true;
  }
#endif

 protected:
  // ---- hooks the block codec supplies -----------------------------------

  /// Stages the iteration's inputs, reference and per-host receive state
  /// from `seed`; runs once per in-network iteration, before any send.
  virtual void stage(u64 seed) = 0;
  /// (Re)transmits host h's contribution to block b, OR-ing `flags` into
  /// every packet header (kFlagRetransmit on a watchdog resend).
  virtual void send_block(u32 h, u32 b, u16 flags) = 0;
  /// Host h received `pkt` for block pkt.hdr.block_id, which it has not
  /// completed yet.  Absorbs the packet; true once the block is complete.
  virtual bool accept(u32 h, const core::Packet& pkt) = 0;
  /// A recovery restart swaps in fresh engines: forget the partial receive
  /// state of every block some host has not completed.
  virtual void reset_incomplete() {}
  /// Checks the hosts' results: fills max_abs_err, ok and any
  /// codec-specific counters of `res`.
  virtual void check(CollectiveResult& res) = 0;
  /// Host-side fallback data plane once no viable tree remains (the ring
  /// for dense allreduce, SparCML for sparse allreduce); nullptr when there
  /// is none (reduce/broadcast/barrier, and sparse groups SparCML cannot
  /// serve, wait for the fabric to heal).
  virtual std::unique_ptr<OpBase> make_fallback_op() = 0;

  // ---- shared machinery --------------------------------------------------

  /// Sets the reduction blocks per iteration (and, from it, the window);
  /// the codec calls this once from its constructor.
  void set_blocks(u32 blocks);
  /// Host h holds block b's result this iteration.
  bool block_complete(u32 h, u32 b) const { return runs_[h].block_done[b]; }

  net::Network& net_;
  NetworkManager& manager_;
  const std::vector<net::Host*>& participants_;
  CollectiveOptions desc_;
  core::AllreduceConfig cfg_;
  ReductionTree tree_;
  const u32 P_;
  u32 nb_ = 0;  ///< reduction blocks per iteration

 private:
  /// One host's walk through the iteration's blocks, with the per-block
  /// retry bookkeeping the watchdog reads.
  struct HostRun {
    std::vector<u32> schedule;  ///< send order (core::send_schedule)
    std::size_t next = 0;       ///< next schedule slot to send
    u32 outstanding = 0;        ///< sent blocks awaiting their result
    u64 blocks_done = 0;
    SimTime finish_ps = 0;
    std::vector<bool> block_done;
    std::vector<bool> sent;        ///< result still pending for a sent block
    std::vector<SimTime> sent_ps;  ///< last (re)transmission time per block
    std::vector<u32> retries;      ///< retransmissions per block this epoch
  };

  /// Wires every host's result handler, rewinds the schedules and sends
  /// the first window — the shared tail of begin() and a restart.
  void start_sends();
  /// Sends host h's next schedule slots while the window has room.
  void try_send(u32 h);
  void on_down(u32 h, const core::Packet& pkt);
  void finalize();
  /// Replays the CURRENT iteration against a freshly installed tree
  /// (engines are new: every host re-contributes every block;
  /// already-delivered results are kept and their multicast duplicates
  /// dropped on arrival).
  void restart_iteration();
  /// Stamps the op's retransmits, recoveries and migrations into `res`.
  void stamp_counters(CollectiveResult& res) const;

  /// An iteration is executing (guards watchdog and fault-notice events).
  bool iteration_active() const { return !finished_ && state_ != nullptr; }
  bool fallback_active() const { return fallback_op_ != nullptr; }

  /// Fresh-id reinstall on the surviving fabric; false when admission
  /// rejects every candidate root.  Bumps recoveries_ on success.
  bool try_reinstall();

  /// Tree declared dead (`force` skips the liveness probe — progress
  /// stopped although the tree LOOKS healthy, e.g. a restarted switch).
  /// Reinstall, or hand the iteration to the fallback data plane, or arm
  /// the heal-wait poll (at most one per op); gives up past the wait
  /// budget.
  void recover(bool force);

  /// Permanent outage: publish ok == false so callers observe the failure
  /// instead of spinning the calendar forever.
  void give_up();

  void subscribe_faults();
  void on_fault(const net::FaultNotice& notice);
  void arm_watchdog();
  void on_watchdog();

  /// One watchdog pass: walks every (host, block) whose result is pending,
  /// applies the exponential backoff, re-sends timed-out blocks with
  /// kFlagRetransmit, and returns true when some block exhausted
  /// max_retransmits (the signal to escalate into recover()).
  bool scan_block_timeouts();

  /// The network's tracer when this collective is traceable (nonzero trace
  /// id — the tracer's row key); nullptr otherwise.  Call-sites guard on
  /// it, so an untraced run pays one branch.
  obs::Tracer* tracer() const;
  /// Opens/closes the per-iteration span on the collective's row.
  void trace_iteration_begin();
  void trace_iteration_end();

  /// Persistent re-run upkeep: reset healthy engines, transparently
  /// reinstall a damaged tree, or probe a healed fabric to leave the
  /// fallback data plane.
  void refresh_persistent_install();

  /// Iteration-boundary migration check (Canary's dynamic trees): when the
  /// installed tree's links run hot AND a sufficiently cheaper embedding
  /// exists, move there via the fresh-id reinstall path.
  void maybe_migrate();

  /// Consumes the tree staged by plan_migration() at the iteration
  /// boundary.  True when a plan was pending and ATTEMPTED (the reactive
  /// check is skipped that boundary — two controllers re-embedding one
  /// session in the same instant would fight); false when nothing was
  /// staged or the plan went stale (fabric changed since the optimizer
  /// froze it).
  bool apply_planned_migration();

  /// Break-before-make re-embedding onto `target` via the fresh-id
  /// reinstall path — the shared tail of maybe_migrate() and
  /// apply_planned_migration().  Counts a migration (reactive or planned
  /// per `planned`) only when the switch set actually changed.
  void migrate_to(const ReductionTree& target, bool planned);

  /// FLARE_VALIDATE "plan-apply" audit: a planned move must leave the op
  /// either fully installed (every tree switch holds the fresh id's role)
  /// or fully rolled off the fabric onto a recovery path.  No-op for
  /// reactive moves and in non-validating builds.
  void validate_plan_apply(bool planned);

  /// Constructs the fallback op (when the kind has one) and releases the
  /// install; false when no fallback applies.
  bool prepare_fallback();
  void start_fallback_iteration(u64 seed);
  void on_fallback_done();

  bool owns_install_;
  /// This op owns the install's lifetime in both modes (one-shot releases
  /// at finalize; persistent on PersistentCollective::release()); false
  /// only after release or while a fault left the op treeless.
  bool installed_ = true;
  /// Sparse engines run at the sparse calibrated service rate and install
  /// hash/array stores — the only dense/sparse asymmetry the base carries.
  const bool sparse_;
  bool finished_ = false;
  u64 seed_ = 0;

  // --- block pipeline ---
  u32 window_ = 0;  ///< blocks a host may have awaiting results
  std::vector<HostRun> runs_;
  u32 hosts_done_ = 0;
  SimTime start_ps_ = 0;
  u64 base_traffic_ = 0;

  // --- fault tolerance ---
  /// Heal-wait budget for kinds with no host fallback: ~64 timeout periods
  /// of continuous no-viable-tree before the op publishes a failed result.
  static constexpr u32 kMaxRecoverWaits = 64;
  SimTime timeout_ps_ = 0;
  u32 max_retry_ = 4;
  u32 recover_waits_ = 0;
  /// A heal-wait poll is on the calendar.  The watchdog escalates into
  /// recover() every period; without this each escalation would start one
  /// more self-rescheduling poll chain and burn the wait budget k-fold.
  bool heal_poll_armed_ = false;
  /// Outlives-`this` guard for watchdog/listener events on the calendar.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  u64 retransmits_ = 0;
  u32 recoveries_ = 0;

  // --- congestion adaptation ---
  net::CongestionMonitor* monitor_ = nullptr;
  u32 migrations_iter_ = 0;   ///< while preparing the CURRENT iteration
  u32 migrations_total_ = 0;  ///< over the op's lifetime
  u32 planned_iter_ = 0;      ///< optimizer-planned, CURRENT iteration
  u32 planned_total_ = 0;     ///< optimizer-planned, op lifetime

  /// Host-side fallback data plane once no viable tree remains.
  std::unique_ptr<OpBase> fallback_op_;
  std::shared_ptr<OpState> fallback_state_;

  /// Re-embedding staged by plan_migration(), consumed at the next
  /// iteration boundary by apply_planned_migration().
  std::optional<ReductionTree> planned_tree_;
#if FLARE_VALIDATE_ENABLED
  bool debug_break_plan_apply_ = false;
#endif

  bool first_begin_ = true;
  bool iter_span_open_ = false;  ///< balances B/E on the tracer row
  u64 fault_listener_ = 0;
  bool listening_ = false;
  bool watchdog_armed_ = false;
};


/// Chassis of the host-based ops (see the file comment).  The concrete op
/// supplies the step schedule and its data through the hooks below; the
/// base never knows which schedule it serves.
///
/// Fault tolerance (Tuning::retransmit_timeout_ps > 0): a host advances
/// strictly step by step, so loss detection is receiver-driven — a host
/// stalled on its expected step for longer than the timeout NACKs its
/// receive peer, which replays the recorded snapshot.  Fragment
/// bookkeeping is idempotent (per-step bitmap), so duplicated replays and
/// NACK storms are harmless, and a lost NACK is simply re-issued on the
/// next watchdog tick.
class HostOpBase : public OpBase {
 public:
  ~HostOpBase() override;

  void begin(u64 seed, std::shared_ptr<OpState> state) final;

 protected:
  /// Fragmentation unit for ring / SparCML messages.
  static constexpr u64 kMtuBytes = 4096;

  /// What one host sends at one step.  Fragmented at kMtuBytes; the typed
  /// data rides on the last fragment.
  struct Payload {
    u64 bytes = 0;
    std::shared_ptr<const core::TypedBuffer> dense;
    std::shared_ptr<const std::vector<core::StoredPair>> sparse;
  };

  /// `proto_base` is the op family's wire-protocol prefix (a fresh
  /// collective id is added, so overlapping ops over shared hosts never
  /// mix fragments).  `trace`: attribution/tracer row id — nonzero when
  /// the op is the fallback plane of an in-network session (it inherits
  /// the session's stable trace so the attribution plane sees one
  /// continuous tenant); 0 allocates a fresh one.  `span` names the
  /// per-iteration tracer span.
  HostOpBase(net::Network& net, const std::vector<net::Host*>& participants,
             const CollectiveOptions& desc, u32 proto_base, u32 trace,
             const char* span);

  // ---- hooks the concrete schedule supplies ------------------------------

  /// Steps every host walks per iteration.
  virtual u32 num_steps() const = 0;
  /// Host h's destination at `step`.
  virtual u32 send_peer(u32 h, u32 step) const = 0;
  /// Host h's source at `step` (the host a stalled h NACKs).
  virtual u32 recv_peer(u32 h, u32 step) const = 0;
  /// Stages the iteration's inputs and reference result from `seed`.
  virtual void stage(u64 seed) = 0;
  /// The payload host h sends at `step`; called once per step, after h
  /// consumed step - 1.
  virtual Payload payload(u32 h, u32 step) = 0;
  /// Host h received its complete `step` payload.
  virtual void consume(u32 h, u32 step, const Payload& in) = 0;
  /// Checks the hosts' results: fills blocks, max_abs_err, ok and any
  /// op-specific counters of `res`.
  virtual void check(CollectiveResult& res) = 0;

  net::Network& net_;
  const std::vector<net::Host*>& participants_;
  CollectiveOptions desc_;
  const u32 P_;

 private:
  /// Reassembly state of one step's payload: per-fragment bitmap so that
  /// replayed fragments never double-count.
  struct Partial {
    std::vector<bool> have;
    u32 have_count = 0;
    Payload data;
  };
  struct HostChannel {
    u32 step = 0;
    SimTime finish_ps = 0;
    SimTime last_progress_ps = 0;
    u32 nacks = 0;  ///< NACKs since last progress (backoff input)
    std::unordered_map<u32, Partial> inbox;  ///< by step
    /// What this host sent per step — kept until the op finishes so a NACK
    /// can replay it (the working data has moved on by then).
    std::unordered_map<u32, Payload> sent;
  };

  void send_step(u32 h, u32 step);
  /// Sends every fragment of `p` to h's send peer at `step` (first send
  /// and NACK-triggered replays take the same path).
  void transmit(u32 h, u32 step, const Payload& p);
  /// Stamps `msg` as host h's and sends it to its dst_host on flow
  /// `flow` of this op.
  void post(u32 h, std::shared_ptr<net::HostMsg> msg, u64 flow,
            u64 wire_bytes);
  void on_msg(u32 h, const net::HostMsg& msg);
  void handle_nack(u32 h, u32 step);
  void send_nack(u32 h);
  void arm_watchdog();
  void on_watchdog();
  void advance(u32 h);
  void schedule_finalize();
  void release_handlers();
  /// Permanent stall: publish a failed result and release host handlers so
  /// the calendar can drain.
  void give_up();
  void finalize();

  const u32 proto_;
  const u32 trace_;  ///< attribution tag + tracer row (see ctor)
  const char* span_;
  /// NACK budget per stalled host before the op reports failure: with the
  /// capped exponential backoff this tolerates outages two orders longer
  /// than the timeout while still bounding a permanent stall.
  static constexpr u32 kMaxNacks = 64;
  SimTime timeout_ps_ = 0;
  /// Outlives-`this` guard for events left on the calendar.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  bool watchdog_armed_ = false;
  bool handlers_set_ = false;
  bool finished_ = false;
  u64 base_traffic_ = 0;
  SimTime start_ps_ = 0;
  u64 retransmits_ = 0;
  std::vector<HostChannel> hosts_;
  u32 hosts_done_ = 0;
};

}  // namespace detail

}  // namespace flare::coll
