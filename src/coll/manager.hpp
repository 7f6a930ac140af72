// The network manager (Section 4): given the participants of an allreduce,
// computes a reduction tree embedded in the physical topology, and installs
// the aggregation handlers + per-switch tree roles through the control
// plane.  Memory is statically partitioned: each switch accepts at most
// `max_allreduces` concurrent reductions; installation fails (and rolls
// back) when any switch on the tree is full, in which case the caller can
// retry with a different root or fall back to host-based allreduce —
// exactly the paper's admission policy.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace flare::net {
class CongestionMonitor;  // net/telemetry.hpp
}

namespace flare::coll {

struct TreeSwitchEntry {
  net::Switch* sw = nullptr;
  u32 depth = 0;                  ///< 0 at the root
  u32 parent_port = UINT32_MAX;   ///< port toward tree parent (non-root)
  u16 child_index_at_parent = 0;
  std::vector<u32> child_ports;   ///< ports to tree children (hosts+switches)
  u32 num_children = 0;
};

struct ReductionTree {
  net::NodeId root = net::kInvalidNode;
  std::vector<TreeSwitchEntry> switches;     ///< root first (BFS order)
  std::vector<u16> host_child_index;         ///< by host_index
  u32 max_depth = 0;
  /// Total embedding cost under the link-cost provider compute_tree ran
  /// with: the sum of every tree edge's cost (parent links + child links,
  /// including host access links).  Edge count when no provider (unit hop
  /// costs).  Congestion-aware placement and migration compare this.
  f64 cost = 0.0;
};

/// Outcome of an admission round (replaces the out-pointer parameters the
/// install entry points used to take).  Smart-pointer style accessors keep
/// `if (!report)` / `report->switches` call sites reading naturally.
struct InstallReport {
  std::optional<ReductionTree> tree;  ///< installed tree on success
  u32 attempts = 0;                   ///< install attempts across roots
  bool cache_hit = false;             ///< embedding reused from a TreeCache
  /// Whether at least one candidate root produced a tree every switch of
  /// which has a non-zero memory partition — false means the job can NEVER
  /// run in-network with these roots, not just not right now.
  bool any_feasible = false;

  bool has_value() const { return tree.has_value(); }
  explicit operator bool() const { return has_value(); }
  ReductionTree& operator*() { return *tree; }
  const ReductionTree& operator*() const { return *tree; }
  ReductionTree* operator->() { return &*tree; }
  const ReductionTree* operator->() const { return &*tree; }
};

/// True when every element of an installed (or cached) tree can still carry
/// traffic: no tree switch has failed and every tree edge — parent links
/// and child links, including the host access links — is up in both
/// directions.  The recovery machinery uses this both to validate cached
/// embeddings and to decide that a running collective's tree is dead.
bool tree_alive(const net::Network& net, const ReductionTree& tree);

/// Worst monitor EWMA utilization across every edge of `tree` (parent and
/// child links, both directions — host access links included via the child
/// ports).  The migration trigger and the TreeCache staleness validator
/// both key off this.
f64 tree_max_congestion(const net::CongestionMonitor& monitor,
                        const ReductionTree& tree);

/// tree_max_congestion with one collective's own traffic subtracted per
/// edge (CongestionMonitor::edge_congestion_excluding).  THE persistent-
/// session migration trigger: a session running alone on a hot-looking
/// tree reads ~0 — only foreign heat registers — which is what let the
/// completion-time regression gate retire.
f64 tree_max_congestion_excluding(const net::CongestionMonitor& monitor,
                                  const ReductionTree& tree, u32 trace);

class NetworkManager {
 public:
  explicit NetworkManager(net::Network& net) : net_(net) {}

  net::Network& network() { return net_; }

  /// Fresh collective identifier, unique across every manager sharing the
  /// network (the counter lives on net::Network).
  u32 next_id() { return net_.alloc_collective_id(); }

  /// Pluggable embedding edge-cost provider: the cost (>= 1, where 1 is an
  /// idle hop) of crossing the duplex link behind `port` of `node`.  Null
  /// (the default) keeps unit hop costs — plain shortest-hop BFS.  Wire a
  /// CongestionMonitor's edge_cost here and compute_tree routes trees
  /// around congested links, while install_with_retry prefers the
  /// cheapest (least-congested) embedding over the smallest.  The
  /// provider must be a pure function of (node, port) for the duration of
  /// one embedding call: each call evaluates it at most once per
  /// (switch, port) and reuses the value for the search and the tree cost.
  using LinkCostFn = std::function<f64(net::NodeId node, u32 port)>;
  void set_link_cost(LinkCostFn cost) { link_cost_ = std::move(cost); }
  const LinkCostFn& link_cost() const { return link_cost_; }

  /// Builds the reduction tree rooted at `root` spanning `participants`:
  /// shortest paths over the switches (hosts hang off their single access
  /// switch) by BFS under unit hop costs, by Dijkstra when a link-cost
  /// provider is set; a switch joins when a participant sits below it.
  /// Returns nullopt if `root` is not a live switch or some participant is
  /// unreachable from it.  The switch graph the search runs on is cached
  /// on the first embedding and rebuilt whenever the network's node or
  /// link count changes (topologies only grow); link and switch liveness
  /// is read live on every call.
  std::optional<ReductionTree> compute_tree(
      const std::vector<net::Host*>& participants, net::NodeId root);

  /// The cheapest compute_tree over every switch as root, nullopt when no
  /// root spans the participants.  Ties keep the root that comes first in
  /// net.switches() order (strict less).  The provider is evaluated at most
  /// once per (switch, port) for the whole sweep.
  std::optional<ReductionTree> cheapest_tree(
      const std::vector<net::Host*>& participants);

  /// Installs `cfg` on every tree switch.  For sparse allreduces the root
  /// switch uses array storage and the others hash storage (Section 7,
  /// "densification").  Rolls back on admission failure and returns false.
  bool install(const ReductionTree& tree, core::AllreduceConfig cfg,
               f64 switch_service_bps);

  void uninstall(const ReductionTree& tree, u32 allreduce_id);

  /// compute_tree + install, preferring the smallest (then shallowest)
  /// embedding — the cheapest under a provider — and retrying every switch
  /// as root until one admission succeeds.  All candidates share one
  /// edge-cost table.
  InstallReport install_with_retry(
      const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
      f64 switch_service_bps);

  /// Like install_with_retry but tries roots in the CALLER's order (the
  /// service layer's root-selection policy decides), optionally reusing
  /// embeddings from `cache`.  The report's tree is empty if every
  /// candidate was rejected by admission.
  InstallReport install_with_roots(
      const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
      f64 switch_service_bps, const std::vector<net::NodeId>& roots,
      class TreeCache* cache = nullptr);

  /// Invoked after every uninstall() with the released allreduce id — the
  /// service layer hooks this to re-try queued admissions when switch
  /// slots free up.
  using ReleaseListener = std::function<void(u32 allreduce_id)>;
  void set_release_listener(ReleaseListener listener) {
    on_release_ = std::move(listener);
  }

 private:
  /// One switch-to-switch arc of the cached switch graph, in the order
  /// Network::neighbors lists it (parallel links included, usable or not:
  /// the tree wires each child at exactly the arc the search reached it
  /// over).
  struct Arc {
    u32 peer = 0;                  ///< switch slot of the peer
    u32 my_port = 0;
    /// The peer's port whose link is out->reverse() — a child's
    /// parent_port.
    u32 back_port = 0;
    const net::Link* out = nullptr;
    const net::Switch* peer_sw = nullptr;
  };
  /// A host's single access link, by host_index.
  struct Access {
    u32 leaf = UINT32_MAX;        ///< switch slot; UINT32_MAX: not a switch
    u32 leaf_port = 0;            ///< leaf's first port toward the host
    const net::Link* up = nullptr;    ///< host -> leaf
    const net::Link* down = nullptr;  ///< leaf -> host
    bool single_homed = false;
  };

  /// Switch-only adjacency in CSR form, slot = position in
  /// net.switches() (ascending node id).  Built on the first embedding and
  /// rebuilt when the node or link count changes; link and switch STATE is
  /// read live, so faults never invalidate it.
  void ensure_graph();
  /// Starts one embedding call: a fresh edge-cost table and the
  /// participants grouped under their access switches.  False when some
  /// participant's access link cannot carry traffic (no root can span).
  bool begin_call(const std::vector<net::Host*>& participants);
  /// Provider cost of the duplex link behind `out` (leaving switch `slot`
  /// through `port`), evaluated at most once per call.
  f64 edge_cost(u32 slot, u32 port, const net::Link* out);
  /// Shortest-path search from `root` plus the needed-switch marking;
  /// false when `root` cannot host a tree spanning the participants.
  bool search(u32 root);
  /// Walks the searched tree in BFS order (root first; per switch, host
  /// children then child switches) summing its edge costs in exactly that
  /// order, and fills `tree` when non-null.
  f64 walk(u32 root, ReductionTree* tree);
  ReductionTree build(u32 root);

  net::Network& net_;
  ReleaseListener on_release_;
  LinkCostFn link_cost_;

  // Cached switch graph.
  u32 graph_nodes_ = 0;
  u32 graph_links_ = 0;
  std::vector<net::Switch*> sw_;          ///< by slot
  std::vector<u32> slot_of_;              ///< by node id; UINT32_MAX: host
  std::vector<u32> arc_begin_;            ///< by slot, size S + 1
  std::vector<Arc> arcs_;
  std::vector<Access> access_;

  // Per-call workspace.
  u32 cost_epoch_ = 0;
  std::vector<u32> cost_mark_;            ///< by link index
  std::vector<f64> cost_val_;             ///< by link index
  std::vector<std::vector<const net::Host*>> hosts_at_;  ///< by slot
  std::vector<u32> leaves_;               ///< slots with participants
  // Per-root workspace.
  std::vector<u32> dist_;
  std::vector<f64> path_cost_;
  std::vector<u32> pred_;                 ///< slot; UINT32_MAX at the root
  std::vector<u32> pred_arc_;             ///< arc that reached the slot
  std::vector<std::pair<f64, u32>> heap_;
  std::vector<u32> queue_;
  std::vector<u16> child_index_;
  u32 stamp_ = 0;
  std::vector<u32> needed_;               ///< == stamp_: on the tree
};

}  // namespace flare::coll
