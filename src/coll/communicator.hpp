// Communicator sessions with persistent collectives — one API for every
// collective the Flare substrate serves.
//
// A Communicator binds a participant group to a net::Network + a
// NetworkManager control plane and executes CollectiveOptions descriptors
// three ways:
//
//   * run(desc)          — blocking one-shot: install (in-network schemes),
//                          drive the event calendar to idle, uninstall,
//                          return the result;
//   * start(desc, cb)    — nonblocking: wires the collective onto the
//                          SHARED event calendar and returns a
//                          CollectiveHandle; the caller drives
//                          net.sim().run() (possibly with other collectives
//                          in flight) and reads result() post-drain;
//   * persistent(desc)   — computes + installs the reduction tree and
//                          switch engines ONCE, then run()/start() executes
//                          iterations against the installed state,
//                          amortizing compute_tree/install across a
//                          training loop (iteration i uses seed + i); the
//                          per-iteration reset clears engine block state
//                          but never touches the admission slot.
//
// The paper's training workloads re-issue the same allreduce every
// iteration (Section 4's network manager installs the tree once per
// communicator); Canary and SparCML (PAPERS.md) motivate the long-lived
// session and per-call algorithm switching this API provides.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "coll/manager.hpp"
#include "coll/op.hpp"
#include "coll/options.hpp"
#include "coll/result.hpp"

namespace flare::coll {

class TreeCache;
class Communicator;

/// Handle to a started (nonblocking) collective.  Cheap to copy; stays
/// valid after the Communicator finishes the operation.
class CollectiveHandle {
 public:
  CollectiveHandle() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ != nullptr && state_->done; }
  /// Valid once done() — typically after draining the event calendar.
  const CollectiveResult& result() const;

 private:
  friend class Communicator;
  friend class PersistentCollective;
  explicit CollectiveHandle(std::shared_ptr<detail::OpState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::OpState> state_;
};

struct CommunicatorConfig {
  /// Shared control plane (e.g. the service layer's); the Communicator
  /// owns a private manager when null.
  NetworkManager* manager = nullptr;
  /// Optional reduction-tree embedding reuse across sessions.
  TreeCache* cache = nullptr;
  /// Candidate tree roots tried in THIS order (a root-selection policy);
  /// empty -> best-fit retry over every switch.
  std::vector<net::NodeId> roots;
  /// Congestion plane (must outlive the session): embedding turns
  /// congestion-aware — the monitor's edge costs become the link-cost
  /// provider of a PRIVATE manager (a shared `manager` keeps whatever
  /// provider its owner set, so one session can never rewire another's
  /// control plane), the monitor is sampled before each install, and
  /// persistent sessions migrate per Tuning::migrate_above.  Null keeps
  /// the congestion-blind behavior.
  net::CongestionMonitor* monitor = nullptr;
};

/// A persistent collective request: install-once / run-many.  Move-only;
/// releases the installed switch state on destruction (or release()).
class PersistentCollective {
 public:
  PersistentCollective();  // empty (ok() == false) until assigned
  PersistentCollective(PersistentCollective&& other) noexcept;
  PersistentCollective& operator=(PersistentCollective&& other) noexcept;
  PersistentCollective(const PersistentCollective&) = delete;
  PersistentCollective& operator=(const PersistentCollective&) = delete;
  ~PersistentCollective();

  /// False when admission rejected the install (and no fallback applies):
  /// run()/start() must not be called.
  bool ok() const { return op_ != nullptr; }
  /// Admission outcome of the one-time install (attempts, cache_hit,
  /// any_feasible; empty tree for host data plane persistents, which need
  /// none).  After a fault recovery this reports the ORIGINAL admission;
  /// tree() always reflects the live (possibly reinstalled) embedding.
  const InstallReport& install_report() const { return report_; }
  /// True when this request currently holds an installed reduction tree
  /// (false for host data plane persistents — including the kAuto
  /// admission fallback — and for requests that lost their tree to a
  /// fabric fault and are finishing on the host data plane).
  bool in_network() const;
  /// Asserts in_network(): host data plane persistents have no tree.
  /// Returns the LIVE tree, which may differ from install_report()'s after
  /// a fault-triggered reinstall or a congestion migration.
  const ReductionTree& tree() const;
  u32 iterations() const { return iterations_; }
  /// Congestion-triggered re-embeddings over the session's lifetime (each
  /// iteration's CollectiveResult carries its own share).
  u32 migrations() const;
  /// Optimizer-planned re-embeddings applied over the session's lifetime
  /// (disjoint from the reactive migrations() count).
  u32 planned_migrations() const;
  /// Traffic-attribution tag (core::AllreduceConfig::trace) of this
  /// session — stable across reinstalls and migrations; 0 when empty.
  /// The co-placement snapshot keys per-job link EWMAs off it.
  u32 trace() const { return cfg_.trace; }

  /// Stages a PlacementPlan move: the session re-embeds onto `target` at
  /// its next iteration boundary via the break-before-make fresh-id path.
  /// False (nothing staged) for host data plane persistents and sessions
  /// currently without an install.
  bool plan_migration(const ReductionTree& target);

#if FLARE_VALIDATE_ENABLED
  /// Test backdoor: breaks the next planned-move application so the
  /// FLARE_VALIDATE "plan-apply" audit must fire (validate_test).  False
  /// when the session has no tree op.
  bool debug_break_next_plan_apply();
#endif

  /// Blocking iteration: resets per-iteration engine/host state, executes
  /// against the installed tree, drives the calendar to idle.  When the
  /// fabric faulted since the last iteration (switch crash, dead link) and
  /// Tuning::retransmit_timeout_ps is enabled, the tree is transparently
  /// recomputed and reinstalled first.
  CollectiveResult run();
  /// Nonblocking iteration on the shared calendar.  Iterations of ONE
  /// persistent request must not overlap each other (the installed engine
  /// state is per-request); distinct requests may.
  CollectiveHandle start(CompletionFn on_complete = {});

  /// Uninstalls the tree and detaches; idempotent.
  void release();

 private:
  friend class Communicator;
  Communicator* comm_ = nullptr;
  CollectiveOptions desc_;
  core::AllreduceConfig cfg_{};
  InstallReport report_;
  std::unique_ptr<detail::OpBase> op_;  ///< reused across iterations
  u32 iterations_ = 0;
};

class Communicator {
 public:
  Communicator(net::Network& net, std::vector<net::Host*> participants,
               CommunicatorConfig cfg = {});
  ~Communicator();
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  /// Blocking one-shot collective.  Requires an otherwise-idle calendar
  /// position (it drives net.sim().run() to completion).  On admission
  /// rejection: kAuto allreduce falls back to the host ring; explicit
  /// in-network algorithms return ok == false.
  CollectiveResult run(const CollectiveOptions& desc);

  /// Nonblocking one-shot: installs (in-network schemes) and enqueues the
  /// first sends, then returns.  The caller drives the calendar; `cb` (if
  /// any) fires at completion, on the calendar.  Every algorithm — dense,
  /// sparse, host-based — composes on the one shared calendar.
  CollectiveHandle start(const CollectiveOptions& desc,
                         CompletionFn on_complete = {});

  /// Install-once / run-many (see PersistentCollective).  Supported for
  /// every engine: the in-network dense kinds, the in-network sparse
  /// allreduce (per-iteration switch hash-store reset, fresh gradients via
  /// SparseWorkload::epoch_pairs), the host ring and SparCML.  kAuto falls
  /// back to a persistent host data plane (ring, or SparCML for sparse
  /// workloads) when admission rejects the install.
  PersistentCollective persistent(const CollectiveOptions& desc);

  net::Network& network() { return net_; }
  NetworkManager& manager() { return *manager_; }
  const std::vector<net::Host*>& participants() const {
    return participants_;
  }

 private:
  friend class PersistentCollective;

  Algorithm resolve_algorithm(const CollectiveOptions& desc) const;
  core::AllreduceConfig make_config(const CollectiveOptions& desc,
                                    Algorithm alg) const;
  InstallReport install(const CollectiveOptions& desc,
                        const core::AllreduceConfig& cfg, bool sparse);
  /// Adopts `op` into ops_, wires a handle/state pair and begins the
  /// first iteration — the one completion contract for every engine.
  CollectiveHandle start_op(std::unique_ptr<detail::OpBase> op, u64 seed,
                            CompletionFn on_complete);
  /// Host-side data plane for `alg` (kHostRing or kSparcml), used both for
  /// explicit requests and for kAuto admission fallbacks.
  std::unique_ptr<detail::OpBase> make_host_op(const CollectiveOptions& desc,
                                               Algorithm alg);
  /// The one op factory behind start() and persistent().  In-network
  /// algorithms get a config (`cfg`) and an install (`report`, the
  /// admission outcome) and become an InNetOp or SparseOp; when admission
  /// rejects a kAuto allreduce the op is the host fallback instead.
  /// nullptr when an explicit in-network request is rejected.
  /// `owns_install`: one-shot ops release the install at finalize;
  /// persistent ones keep it until PersistentCollective::release().
  std::unique_ptr<detail::OpBase> make_op(const CollectiveOptions& desc,
                                          bool owns_install,
                                          core::AllreduceConfig& cfg,
                                          InstallReport& report);
  void reap();

  net::Network& net_;
  std::vector<net::Host*> participants_;
  CommunicatorConfig cfg_;
  std::unique_ptr<NetworkManager> owned_manager_;
  NetworkManager* manager_ = nullptr;
  /// One-shot ops in flight (completed ops are reaped lazily).
  std::vector<std::unique_ptr<detail::OpBase>> ops_;
};

}  // namespace flare::coll
