#include "coll/manager.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "coll/tree_cache.hpp"
#include "common/assert.hpp"
#include "net/telemetry.hpp"

namespace flare::coll {

bool tree_alive(const net::Network& net, const ReductionTree& tree) {
  for (const TreeSwitchEntry& e : tree.switches) {
    if (e.sw->failed()) return false;
    if (e.sw->id() != tree.root &&
        !net.port_usable(e.sw->id(), e.parent_port)) {
      return false;
    }
    for (const u32 p : e.child_ports) {
      if (!net.port_usable(e.sw->id(), p)) return false;
    }
  }
  return !tree.switches.empty();
}

void NetworkManager::ensure_graph() {
  const u32 n = net_.num_nodes();
  if (n == graph_nodes_ && net_.num_links() == graph_links_) return;
  graph_nodes_ = n;
  graph_links_ = net_.num_links();

  const std::vector<net::Switch*>& sws = net_.switches();
  const u32 s = static_cast<u32>(sws.size());
  sw_.assign(sws.begin(), sws.end());
  slot_of_.assign(n, UINT32_MAX);
  for (u32 i = 0; i < s; ++i) slot_of_[sws[i]->id()] = i;
  // The port of `from` whose outgoing link is `link`.
  const auto port_of = [this](net::NodeId from, const net::Link* link) {
    for (const net::PortPeer& pp : net_.neighbors(from)) {
      if (&net_.node(from).port(pp.my_port) == link) return pp.my_port;
    }
    return UINT32_MAX;
  };

  arc_begin_.assign(1, 0);
  arcs_.clear();
  for (const net::Switch* sw : sws) {
    for (const net::PortPeer& pp : net_.neighbors(sw->id())) {
      const u32 peer = slot_of_[pp.peer];
      if (peer == UINT32_MAX) continue;  // hosts are not part of the search
      const net::Link* out = &sw->port(pp.my_port);
      arcs_.push_back({peer, pp.my_port, port_of(pp.peer, out->reverse()),
                       out, sws[peer]});
    }
    arc_begin_.push_back(static_cast<u32>(arcs_.size()));
  }

  access_.assign(net_.hosts().size(), Access{});
  for (const net::Host* host : net_.hosts()) {
    Access& a = access_[host->host_index()];
    const std::vector<net::PortPeer>& adj = net_.neighbors(host->id());
    a.single_homed = adj.size() == 1;
    if (!a.single_homed || slot_of_[adj[0].peer] == UINT32_MAX) continue;
    a.leaf = slot_of_[adj[0].peer];
    a.up = &host->port(adj[0].my_port);
    a.leaf_port = port_of(adj[0].peer, a.up->reverse());
    a.down = &sws[a.leaf]->port(a.leaf_port);
  }

  cost_mark_.assign(graph_links_, 0);
  cost_val_.assign(graph_links_, 0.0);
  cost_epoch_ = 0;
  hosts_at_.assign(s, {});
  leaves_.clear();
  dist_.assign(s, 0);
  path_cost_.assign(s, 0.0);
  pred_.assign(s, UINT32_MAX);
  pred_arc_.assign(s, UINT32_MAX);
  child_index_.assign(s, 0);
  needed_.assign(s, 0);
  stamp_ = 0;
}

bool NetworkManager::begin_call(const std::vector<net::Host*>& participants) {
  FLARE_ASSERT(!participants.empty());
  ensure_graph();
  if (++cost_epoch_ == 0) {  // wrapped: no mark may look current
    std::fill(cost_mark_.begin(), cost_mark_.end(), 0);
    cost_epoch_ = 1;
  }
  for (const u32 leaf : leaves_) hosts_at_[leaf].clear();
  leaves_.clear();
  for (const net::Host* host : participants) {
    const Access& a = access_[host->host_index()];
    FLARE_ASSERT_MSG(a.single_homed, "hosts must be single-homed");
    // The access link must carry traffic both ways for the host to join
    // (Network::port_usable on the host's port).
    if (a.leaf == UINT32_MAX || !a.up->up() || !a.up->reverse()->up() ||
        sw_[a.leaf]->failed()) {
      return false;
    }
    if (hosts_at_[a.leaf].empty()) leaves_.push_back(a.leaf);
    hosts_at_[a.leaf].push_back(host);
  }
  return true;
}

f64 NetworkManager::edge_cost(u32 slot, u32 port, const net::Link* out) {
  if (!link_cost_) return 1.0;
  const u32 i = out->index();
  if (cost_mark_[i] != cost_epoch_) {
    cost_mark_[i] = cost_epoch_;
    cost_val_[i] = link_cost_(sw_[slot]->id(), port);
  }
  return cost_val_[i];
}

bool NetworkManager::search(u32 root) {
  // Fault awareness: a failed root can host nothing, and the search must
  // not route the tree across failed switches or down links.
  if (sw_[root]->failed()) return false;
  constexpr u32 kUnreached = std::numeric_limits<u32>::max();
  std::fill(dist_.begin(), dist_.end(), kUnreached);
  std::fill(path_cost_.begin(), path_cost_.end(),
            std::numeric_limits<f64>::infinity());
  std::fill(pred_.begin(), pred_.end(), UINT32_MAX);
  pred_arc_[root] = UINT32_MAX;
  dist_[root] = 0;
  path_cost_[root] = 0.0;
  // An arc is usable when its duplex link is up both ways and the peer is
  // alive (Network::port_usable without the adjacency scan).
  const auto usable = [](const Arc& arc) {
    return arc.out->up() && arc.out->reverse()->up() && !arc.peer_sw->failed();
  };

  // `dist` counts hops either way (it is the tree DEPTH, which sizes the
  // aggregation pipeline); `cost` carries the provider metric the
  // predecessor choice minimizes.
  if (!link_cost_) {
    queue_.assign(1, root);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const u32 cur = queue_[head];
      for (u32 k = arc_begin_[cur]; k < arc_begin_[cur + 1]; ++k) {
        const Arc& arc = arcs_[k];
        if (dist_[arc.peer] != kUnreached || !usable(arc)) continue;
        dist_[arc.peer] = dist_[cur] + 1;
        pred_[arc.peer] = cur;
        pred_arc_[arc.peer] = k;
        queue_.push_back(arc.peer);
      }
    }
  } else {
    // Dijkstra in (cost, node-id) order — slots ascend with node ids — on
    // a binary heap with lazy deletion: an entry above its node's current
    // cost is stale.  Only a strictly cheaper path replaces a predecessor,
    // so equal-cost fabrics embed identically on every run.
    heap_.assign(1, {0.0, root});
    const std::greater<std::pair<f64, u32>> later;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const auto [ccost, cur] = heap_.back();
      heap_.pop_back();
      if (ccost > path_cost_[cur]) continue;
      for (u32 k = arc_begin_[cur]; k < arc_begin_[cur + 1]; ++k) {
        const Arc& arc = arcs_[k];
        if (!usable(arc)) continue;
        const f64 ncost =
            path_cost_[cur] + edge_cost(cur, arc.my_port, arc.out);
        if (ncost >= path_cost_[arc.peer]) continue;
        path_cost_[arc.peer] = ncost;
        dist_[arc.peer] = dist_[cur] + 1;
        pred_[arc.peer] = cur;
        pred_arc_[arc.peer] = k;
        heap_.emplace_back(ncost, arc.peer);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }

  // A switch is needed if participant hosts sit below it in the tree.
  if (++stamp_ == 0) {  // wrapped: no mark may look current
    std::fill(needed_.begin(), needed_.end(), 0);
    stamp_ = 1;
  }
  for (const u32 leaf : leaves_) {
    if (dist_[leaf] == kUnreached) return false;
    for (u32 cur = leaf; cur != UINT32_MAX && needed_[cur] != stamp_;
         cur = pred_[cur]) {
      needed_[cur] = stamp_;
    }
  }
  return needed_[root] == stamp_;
}

f64 NetworkManager::walk(u32 root, ReductionTree* tree) {
  // Entries in BFS order (root first).  Per switch: participant hosts
  // first, then needed child switches, each at exactly the arc the search
  // reached it over (a parallel link is never a second child).  The cost
  // sums every tree edge once, child links only (parent links are the same
  // edges seen from below), in exactly this order.
  f64 total = 0.0;
  queue_.assign(1, root);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const u32 cur = queue_[head];
    TreeSwitchEntry* e = nullptr;
    if (tree != nullptr) {
      e = &tree->switches.emplace_back();
      e->sw = sw_[cur];
      e->depth = dist_[cur];
      tree->max_depth = std::max(tree->max_depth, e->depth);
      if (cur != root) {
        e->parent_port = arcs_[pred_arc_[cur]].back_port;
        e->child_index_at_parent = child_index_[cur];
      }
    }
    u16 next_index = 0;
    for (const net::Host* host : hosts_at_[cur]) {
      const Access& a = access_[host->host_index()];
      total += edge_cost(cur, a.leaf_port, a.down);
      if (e != nullptr) {
        e->child_ports.push_back(a.leaf_port);
        tree->host_child_index[host->host_index()] = next_index;
      }
      ++next_index;
    }
    for (u32 k = arc_begin_[cur]; k < arc_begin_[cur + 1]; ++k) {
      const Arc& arc = arcs_[k];
      if (pred_arc_[arc.peer] != k || needed_[arc.peer] != stamp_) continue;
      total += edge_cost(cur, arc.my_port, arc.out);
      if (e != nullptr) e->child_ports.push_back(arc.my_port);
      child_index_[arc.peer] = next_index++;
      queue_.push_back(arc.peer);
    }
    if (e != nullptr) e->num_children = next_index;
  }
  return total;
}

ReductionTree NetworkManager::build(u32 root) {
  ReductionTree tree;
  tree.root = sw_[root]->id();
  tree.host_child_index.assign(net_.hosts().size(), 0);
  tree.cost = walk(root, &tree);
  return tree;
}

std::optional<ReductionTree> NetworkManager::compute_tree(
    const std::vector<net::Host*>& participants, net::NodeId root) {
  if (!begin_call(participants)) return std::nullopt;
  const u32 slot = root < slot_of_.size() ? slot_of_[root] : UINT32_MAX;
  if (slot == UINT32_MAX || !search(slot)) return std::nullopt;
  return build(slot);
}

std::optional<ReductionTree> NetworkManager::cheapest_tree(
    const std::vector<net::Host*>& participants) {
  if (!begin_call(participants)) return std::nullopt;
  // Score every root without building its tree; only the winner is
  // searched again and built (same cost table, so the same cost bit for
  // bit).
  u32 best = UINT32_MAX;
  f64 best_cost = 0.0;
  for (u32 slot = 0; slot < sw_.size(); ++slot) {
    if (!search(slot)) continue;
    const f64 c = walk(slot, nullptr);
    if (best == UINT32_MAX || c < best_cost) {
      best = slot;
      best_cost = c;
    }
  }
  if (best == UINT32_MAX) return std::nullopt;
  search(best);
  return build(best);
}

f64 tree_max_congestion(const net::CongestionMonitor& monitor,
                        const ReductionTree& tree) {
  f64 worst = 0.0;
  for (const TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) {
      worst = std::max(worst, monitor.edge_congestion(e.sw->id(), p));
    }
  }
  return worst;
}

f64 tree_max_congestion_excluding(const net::CongestionMonitor& monitor,
                                  const ReductionTree& tree, u32 trace) {
  f64 worst = 0.0;
  for (const TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) {
      worst = std::max(
          worst, monitor.edge_congestion_excluding(e.sw->id(), p, trace));
    }
  }
  return worst;
}

bool NetworkManager::install(const ReductionTree& tree,
                             core::AllreduceConfig cfg,
                             f64 switch_service_bps) {
  // Admission precheck: reject before touching any switch.  A partial
  // install would bump occupancy gauges whose high-water marks cannot be
  // rolled back, corrupting the peak-occupancy telemetry.
  for (const TreeSwitchEntry& e : tree.switches) {
    if (!e.sw->can_install()) return false;
  }
  std::vector<net::Switch*> installed;
  for (const TreeSwitchEntry& e : tree.switches) {
    core::AllreduceConfig sw_cfg = cfg;
    sw_cfg.num_children = e.num_children;
    sw_cfg.is_root = (e.sw->id() == tree.root);
    if (cfg.sparse) {
      // Densification along the tree: hash at the leaves/interior, array at
      // the root (Section 7).
      sw_cfg.hash_storage = !sw_cfg.is_root;
    }
    net::ReduceRole role;
    role.is_root = sw_cfg.is_root;
    role.parent_port = e.parent_port;
    role.child_index_at_parent = e.child_index_at_parent;
    role.child_ports = e.child_ports;
    role.service_bps = switch_service_bps;
    if (!e.sw->install_reduce(sw_cfg, std::move(role))) {
      for (net::Switch* sw : installed) sw->uninstall_reduce(cfg.id);
      return false;
    }
    installed.push_back(e.sw);
  }
  return true;
}

void NetworkManager::uninstall(const ReductionTree& tree, u32 allreduce_id) {
  for (const TreeSwitchEntry& e : tree.switches)
    e.sw->uninstall_reduce(allreduce_id);
#if FLARE_VALIDATE_ENABLED
  // Op-release audit: after an uninstall no switch of the tree may still
  // hold a role for the id (a survivor would pin a slot and a stale
  // engine for the install's lifetime — invisible until admission jams).
  for (const TreeSwitchEntry& e : tree.switches) {
    if (e.sw->role(allreduce_id) != nullptr) {
      validate::fail("op-release",
                     "switch '" + e.sw->name() + "' still holds a role " +
                         "for allreduce " + std::to_string(allreduce_id) +
                         " after uninstall");
    }
  }
#endif
  if (on_release_) on_release_(allreduce_id);
}

InstallReport NetworkManager::install_with_roots(
    const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
    f64 switch_service_bps, const std::vector<net::NodeId>& roots,
    TreeCache* cache) {
  InstallReport report;
  for (const net::NodeId root : roots) {
    report.attempts += 1;
    bool hit = false;
    std::optional<ReductionTree> tree =
        cache != nullptr
            ? cache->get_or_compute(*this, participants, root, &hit)
            : compute_tree(participants, root);
    if (!tree) continue;
    if (!report.any_feasible) {
      report.any_feasible = std::all_of(
          tree->switches.begin(), tree->switches.end(),
          [](const TreeSwitchEntry& e) { return e.sw->max_allreduces() > 0; });
    }
    if (install(*tree, cfg, switch_service_bps)) {
      report.cache_hit = hit;
      report.tree = std::move(tree);
      return report;
    }
  }
  return report;
}

InstallReport NetworkManager::install_with_retry(
    const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
    f64 switch_service_bps) {
  InstallReport report;
  // Prefer the embedding that uses the fewest switches (and, among those,
  // the shallowest): less switch memory consumed and fewer hops.  Under a
  // link-cost provider the preference inverts to CHEAPEST first — a
  // slightly larger tree over idle links beats a compact one through a
  // congested spine (Canary's placement result) — with size/depth/root as
  // deterministic tie-breaks.
  std::vector<ReductionTree> candidates;
  if (begin_call(participants)) {
    for (u32 slot = 0; slot < sw_.size(); ++slot) {
      if (search(slot)) candidates.push_back(build(slot));
    }
  }
  if (link_cost_) {
    std::sort(candidates.begin(), candidates.end(),
              [](const ReductionTree& a, const ReductionTree& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.switches.size() != b.switches.size())
                  return a.switches.size() < b.switches.size();
                if (a.max_depth != b.max_depth)
                  return a.max_depth < b.max_depth;
                return a.root < b.root;
              });
  } else {
    std::sort(candidates.begin(), candidates.end(),
              [](const ReductionTree& a, const ReductionTree& b) {
                if (a.switches.size() != b.switches.size())
                  return a.switches.size() < b.switches.size();
                return a.max_depth < b.max_depth;
              });
  }
  for (ReductionTree& tree : candidates) {
    report.attempts += 1;
    if (!report.any_feasible) {
      report.any_feasible = std::all_of(
          tree.switches.begin(), tree.switches.end(),
          [](const TreeSwitchEntry& e) { return e.sw->max_allreduces() > 0; });
    }
    if (install(tree, cfg, switch_service_bps)) {
      report.tree = std::move(tree);
      return report;
    }
  }
  return report;
}

}  // namespace flare::coll
