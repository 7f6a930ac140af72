// Collectives over the network simulator: reduction-tree computation and
// admission control, Flare dense/sparse end-to-end on single-switch and
// fat-tree topologies, ring allreduce, SparCML recursive doubling — all
// driven through the coll::Communicator descriptor API and functionally
// verified, plus the traffic relationships the paper claims (in-network
// dense moves ~half the bytes of the host ring; Flare sparse moves far
// less than SparCML).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "coll/communicator.hpp"
#include "coll/flare_sparse.hpp"
#include "coll/manager.hpp"
#include "coll/sparcml.hpp"
#include "coll/tree_cache.hpp"
#include "common/rng.hpp"
#include "workload/generators.hpp"

namespace flare::coll {
namespace {

CollectiveResult run_collective(net::Network& net,
                                const std::vector<net::Host*>& hosts,
                                const CollectiveOptions& desc) {
  Communicator comm(net, hosts);
  return comm.run(desc);
}

CollectiveOptions dense_desc(u64 data_bytes,
                             core::DType dtype = core::DType::kFloat32) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.data_bytes = data_bytes;
  desc.dtype = dtype;
  return desc;
}

CollectiveOptions ring_desc(u64 data_bytes,
                            core::DType dtype = core::DType::kFloat32) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kHostRing;
  desc.data_bytes = data_bytes;
  desc.dtype = dtype;
  return desc;
}

// ------------------------------------------------------------ manager -----

TEST(Manager, SingleSwitchTree) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  NetworkManager mgr(net);
  auto tree = mgr.compute_tree(topo.hosts, topo.leaves[0]->id());
  ASSERT_TRUE(tree.has_value());
  ASSERT_EQ(tree->switches.size(), 1u);
  EXPECT_EQ(tree->switches[0].num_children, 4u);
  EXPECT_EQ(tree->max_depth, 0u);
  // Host child indices are a permutation of 0..3.
  std::set<u16> idx(tree->host_child_index.begin(),
                    tree->host_child_index.end());
  EXPECT_EQ(idx.size(), 4u);
}

TEST(Manager, FatTreeSpansAllParticipants) {
  net::Network net;
  net::FatTreeSpec spec;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  auto tree = mgr.compute_tree(topo.hosts, topo.spines[0]->id());
  ASSERT_TRUE(tree.has_value());
  // Every leaf aggregates its 4 hosts; total children across switches =
  // 64 hosts + (#switches - 1) switch-to-switch edges.
  u64 total_children = 0;
  for (const auto& e : tree->switches) total_children += e.num_children;
  EXPECT_EQ(total_children, 64u + tree->switches.size() - 1);
  EXPECT_EQ(tree->root, topo.spines[0]->id());
  EXPECT_GE(tree->switches.size(), 17u);  // root + 16 leaves at minimum
}

TEST(Manager, SubsetParticipantsPruneTree) {
  net::Network net;
  net::FatTreeSpec spec;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  // Only the 4 hosts of leaf3 participate: the tree should include leaf3
  // and not every other leaf.
  std::vector<net::Host*> subset(topo.hosts.begin() + 12,
                                 topo.hosts.begin() + 16);
  auto tree = mgr.install_with_retry(subset, [&] {
    core::AllreduceConfig cfg;
    cfg.id = mgr.next_id();
    cfg.dtype = core::DType::kInt32;
    cfg.elems_per_packet = 16;
    return cfg;
  }(), 1e12);
  ASSERT_TRUE(tree.has_value());
  EXPECT_LE(tree->switches.size(), 2u);
  EXPECT_GE(tree.attempts, 1u);  // the InstallReport counts the rounds
  EXPECT_TRUE(tree.any_feasible);
}

TEST(Manager, AdmissionFailureRollsBack) {
  net::Network net;
  auto topo = net::build_single_switch(net, 2, net::LinkSpec{},
                                       /*max_allreduces=*/1);
  NetworkManager mgr(net);
  core::AllreduceConfig cfg;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  cfg.id = mgr.next_id();
  auto first = mgr.install_with_retry(topo.hosts, cfg, 1e12);
  ASSERT_TRUE(first.has_value());
  cfg.id = mgr.next_id();
  auto second = mgr.install_with_retry(topo.hosts, cfg, 1e12);
  EXPECT_FALSE(second.has_value());  // the paper's fallback-to-host case
  EXPECT_TRUE(second.any_feasible);  // rejected NOW, not inadmissible
  mgr.uninstall(*first, 1);
  cfg.id = mgr.next_id();
  EXPECT_TRUE(mgr.install_with_retry(topo.hosts, cfg, 1e12).has_value());
}

TEST(Manager, PartialInstallRollbackRestoresOccupancy) {
  // 16 hosts, radix 4 -> 8 leaves (2 hosts each) + 4 spines, 2 slots each.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  spec.max_allreduces = 2;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);

  // Participants under two leaves: the spine-rooted tree spans >= 3
  // switches, so a full switch deep in the install order forces a rollback
  // of the earlier, successful installs.
  std::vector<net::Host*> parts(topo.hosts.begin(), topo.hosts.begin() + 4);
  auto tree = mgr.compute_tree(parts, topo.spines[0]->id());
  ASSERT_TRUE(tree.has_value());
  ASSERT_GE(tree->switches.size(), 3u);

  // Fill the LAST tree switch to capacity with unrelated reductions.
  net::Switch* full = tree->switches.back().sw;
  while (full->can_install()) {
    core::AllreduceConfig dummy;
    dummy.id = mgr.next_id();
    dummy.dtype = core::DType::kInt32;
    dummy.elems_per_packet = 16;
    ASSERT_TRUE(full->install_reduce(dummy, net::ReduceRole{}));
  }

  std::vector<u32> before;
  std::vector<u64> hwm_before;
  for (const net::Switch* sw : net.switches()) {
    before.push_back(sw->installed_reduces());
    hwm_before.push_back(sw->occupancy().high_water());
  }

  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  EXPECT_FALSE(mgr.install(*tree, cfg, 1e12));

  // After the rejected admission every switch is back at its prior
  // occupancy, no switch holds the rejected id, and the occupancy
  // telemetry (high-water mark) was not polluted by a partial install.
  for (std::size_t i = 0; i < net.switches().size(); ++i) {
    EXPECT_EQ(net.switches()[i]->installed_reduces(), before[i])
        << net.switches()[i]->name();
    EXPECT_EQ(net.switches()[i]->role(cfg.id), nullptr);
    EXPECT_EQ(net.switches()[i]->occupancy().high_water(), hwm_before[i])
        << net.switches()[i]->name();
  }

  // A smaller tree avoiding the full switch still installs: single-leaf
  // participants rooted at a leaf that has slots left.
  net::Switch* free_leaf = topo.leaves[0] == full ? topo.leaves[1]
                                                  : topo.leaves[0];
  const u32 leaf_index = free_leaf == topo.leaves[0] ? 0 : 1;
  std::vector<net::Host*> small = {topo.hosts[2 * leaf_index],
                                   topo.hosts[2 * leaf_index + 1]};
  auto small_tree = mgr.compute_tree(small, free_leaf->id());
  ASSERT_TRUE(small_tree.has_value());
  EXPECT_EQ(small_tree->switches.size(), 1u);
  core::AllreduceConfig cfg2;
  cfg2.id = mgr.next_id();
  cfg2.dtype = core::DType::kInt32;
  cfg2.elems_per_packet = 16;
  const u32 leaf_before = free_leaf->installed_reduces();
  EXPECT_TRUE(mgr.install(*small_tree, cfg2, 1e12));
  EXPECT_EQ(free_leaf->installed_reduces(), leaf_before + 1);
  mgr.uninstall(*small_tree, cfg2.id);
  EXPECT_EQ(free_leaf->installed_reduces(), leaf_before);
}

TEST(Manager, ReleaseListenerFiresOnUninstall) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  NetworkManager mgr(net);
  std::vector<u32> released;
  mgr.set_release_listener([&](u32 id) { released.push_back(id); });
  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  auto tree = mgr.install_with_retry(topo.hosts, cfg, 1e12);
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(released.empty());
  mgr.uninstall(*tree, cfg.id);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], cfg.id);
}

TEST(Manager, IdsUniqueAcrossManagersOnOneNetwork) {
  // Concurrent sessions each own a manager; ids come from the network so
  // two sessions can never install colliding reductions on a shared
  // switch.
  net::Network net;
  net::build_single_switch(net, 2);
  NetworkManager a(net), b(net);
  std::set<u32> ids = {a.next_id(), b.next_id(), a.next_id(), b.next_id()};
  EXPECT_EQ(ids.size(), 4u);
}

// ------------------------------------------------------ embedding oracle ---

/// The reference embedding NetworkManager must reproduce bit for bit: BFS
/// under unit hop costs, otherwise Dijkstra over a std::set frontier, with
/// a fresh switch map, Network::port_usable on every relaxation, the
/// provider called on every relaxation and again for the tree cost.
std::optional<ReductionTree> oracle_tree(
    net::Network& net, const std::vector<net::Host*>& participants,
    net::NodeId root, const NetworkManager::LinkCostFn& link_cost) {
  const u32 n = net.num_nodes();
  std::vector<u32> dist(n, std::numeric_limits<u32>::max());
  std::vector<f64> cost(n, std::numeric_limits<f64>::infinity());
  std::vector<net::NodeId> pred(n, net::kInvalidNode);
  std::vector<u32> pred_port(n, UINT32_MAX);  ///< port at the child
  std::vector<u32> pred_via(n, UINT32_MAX);   ///< port at the parent
  dist[root] = 0;
  cost[root] = 0.0;
  std::unordered_map<net::NodeId, net::Switch*> switch_by_id;
  for (net::Switch* sw : net.switches()) switch_by_id[sw->id()] = sw;
  if (!switch_by_id.contains(root)) return std::nullopt;
  if (switch_by_id.at(root)->failed()) return std::nullopt;
  const auto back_port = [&net](net::NodeId from, net::NodeId to) {
    for (const net::PortPeer& back : net.neighbors(from)) {
      if (back.peer == to) return back.my_port;
    }
    return UINT32_MAX;
  };
  // The port of `from` whose link runs back over `to`'s port `via`.
  const auto reverse_port = [&net](net::NodeId from, net::NodeId to,
                                   u32 via) {
    const net::Link* back = net.node(to).port(via).reverse();
    for (const net::PortPeer& pp : net.neighbors(from)) {
      if (&net.node(from).port(pp.my_port) == back) return pp.my_port;
    }
    return UINT32_MAX;
  };

  if (!link_cost) {
    std::deque<net::NodeId> frontier{root};
    while (!frontier.empty()) {
      const net::NodeId cur = frontier.front();
      frontier.pop_front();
      for (const net::PortPeer& pp : net.neighbors(cur)) {
        if (!switch_by_id.contains(pp.peer)) continue;
        if (dist[pp.peer] != std::numeric_limits<u32>::max()) continue;
        if (!net.port_usable(cur, pp.my_port)) continue;
        dist[pp.peer] = dist[cur] + 1;
        cost[pp.peer] = cost[cur] + 1.0;
        pred[pp.peer] = cur;
        pred_port[pp.peer] = reverse_port(pp.peer, cur, pp.my_port);
        pred_via[pp.peer] = pp.my_port;
        frontier.push_back(pp.peer);
      }
    }
  } else {
    std::set<std::pair<f64, net::NodeId>> frontier{{0.0, root}};
    while (!frontier.empty()) {
      const auto [ccost, cur] = *frontier.begin();
      frontier.erase(frontier.begin());
      if (ccost > cost[cur]) continue;
      for (const net::PortPeer& pp : net.neighbors(cur)) {
        if (!switch_by_id.contains(pp.peer)) continue;
        if (!net.port_usable(cur, pp.my_port)) continue;
        const f64 ncost = cost[cur] + link_cost(cur, pp.my_port);
        if (ncost >= cost[pp.peer]) continue;
        frontier.erase({cost[pp.peer], pp.peer});
        cost[pp.peer] = ncost;
        dist[pp.peer] = dist[cur] + 1;
        pred[pp.peer] = cur;
        pred_port[pp.peer] = reverse_port(pp.peer, cur, pp.my_port);
        pred_via[pp.peer] = pp.my_port;
        frontier.insert({ncost, pp.peer});
      }
    }
  }

  std::vector<std::vector<net::Host*>> hosts_of(n);
  for (net::Host* host : participants) {
    const auto& adj = net.neighbors(host->id());
    const net::NodeId leaf = adj[0].peer;
    if (dist[leaf] == std::numeric_limits<u32>::max()) return std::nullopt;
    if (!net.port_usable(host->id(), adj[0].my_port)) return std::nullopt;
    hosts_of[leaf].push_back(host);
  }
  std::vector<bool> needed(n, false);
  for (net::NodeId id = 0; id < n; ++id) {
    if (hosts_of[id].empty()) continue;
    for (net::NodeId cur = id; cur != net::kInvalidNode && !needed[cur];
         cur = pred[cur]) {
      needed[cur] = true;
    }
  }
  if (!needed[root]) return std::nullopt;
  // Needed child switches of `id`, in adjacency order, each at the
  // parallel link the search reached it over: (child, port at id).
  const auto children = [&](net::NodeId id) {
    std::vector<std::pair<net::NodeId, u32>> out;
    for (const net::PortPeer& pp : net.neighbors(id)) {
      if (switch_by_id.contains(pp.peer) && pred[pp.peer] == id &&
          pred_via[pp.peer] == pp.my_port && needed[pp.peer]) {
        out.emplace_back(pp.peer, pp.my_port);
      }
    }
    return out;
  };

  ReductionTree tree;
  tree.root = root;
  std::vector<net::NodeId> order;
  for (std::deque<net::NodeId> q{root}; !q.empty(); q.pop_front()) {
    order.push_back(q.front());
    for (const auto& [child, port] : children(q.front())) q.push_back(child);
  }
  tree.host_child_index.assign(net.hosts().size(), 0);
  tree.switches.resize(order.size());
  for (u32 i = 0; i < order.size(); ++i) {
    const net::NodeId id = order[i];
    TreeSwitchEntry& e = tree.switches[i];
    e.sw = switch_by_id.at(id);
    e.depth = dist[id];
    tree.max_depth = std::max(tree.max_depth, e.depth);
    if (id != root) {
      e.parent_port = pred_port[id];
      const net::NodeId parent = pred[id];
      u16 idx = static_cast<u16>(hosts_of[parent].size());
      for (const auto& [child, port] : children(parent)) {
        if (child == id) break;
        ++idx;
      }
      e.child_index_at_parent = idx;
    }
    u16 next_index = 0;
    for (net::Host* host : hosts_of[id]) {
      e.child_ports.push_back(back_port(id, host->id()));
      tree.host_child_index[host->host_index()] = next_index++;
    }
    for (const auto& [child, port] : children(id)) {
      e.child_ports.push_back(port);
      ++next_index;
    }
    e.num_children = next_index;
  }
  for (const TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) {
      tree.cost += link_cost ? link_cost(e.sw->id(), p) : 1.0;
    }
  }
  return tree;
}

/// The all-roots sweep: strict less, first in switches() order wins.
std::optional<ReductionTree> oracle_cheapest(
    net::Network& net, const std::vector<net::Host*>& participants,
    const NetworkManager::LinkCostFn& link_cost) {
  std::optional<ReductionTree> best;
  for (net::Switch* sw : net.switches()) {
    auto t = oracle_tree(net, participants, sw->id(), link_cost);
    if (t && (!best || t->cost < best->cost)) best = std::move(t);
  }
  return best;
}

/// install_with_retry's candidate order: every spanning root, sorted by
/// (cost, size, depth, root) under a provider, (size, depth) without.
std::vector<ReductionTree> oracle_install_order(
    net::Network& net, const std::vector<net::Host*>& participants,
    const NetworkManager::LinkCostFn& link_cost) {
  std::vector<ReductionTree> candidates;
  for (net::Switch* sw : net.switches()) {
    auto t = oracle_tree(net, participants, sw->id(), link_cost);
    if (t) candidates.push_back(std::move(*t));
  }
  if (link_cost) {
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
  return candidates;
}

void expect_same_tree(const std::optional<ReductionTree>& got,
                      const std::optional<ReductionTree>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(got->root, want->root) << where;
  EXPECT_EQ(got->max_depth, want->max_depth) << where;
  EXPECT_EQ(got->host_child_index, want->host_child_index) << where;
  EXPECT_EQ(std::bit_cast<u64>(got->cost), std::bit_cast<u64>(want->cost))
      << where << " cost " << got->cost << " vs " << want->cost;
  ASSERT_EQ(got->switches.size(), want->switches.size()) << where;
  for (std::size_t i = 0; i < want->switches.size(); ++i) {
    const TreeSwitchEntry& g = got->switches[i];
    const TreeSwitchEntry& w = want->switches[i];
    EXPECT_EQ(g.sw, w.sw) << where << " entry " << i;
    EXPECT_EQ(g.depth, w.depth) << where << " entry " << i;
    EXPECT_EQ(g.parent_port, w.parent_port) << where << " entry " << i;
    EXPECT_EQ(g.child_index_at_parent, w.child_index_at_parent)
        << where << " entry " << i;
    EXPECT_EQ(g.child_ports, w.child_ports) << where << " entry " << i;
    EXPECT_EQ(g.num_children, w.num_children) << where << " entry " << i;
  }
}

/// Seeded fabrics: 2-level fat trees (radix 8 over 16 hosts wires every
/// leaf to each spine twice — parallel links) and 3-level fat trees.
std::vector<net::Host*> build_oracle_fabric(net::Network& net, u32 shape) {
  switch (shape % 4) {
    case 0: {
      net::FatTreeSpec spec;
      spec.hosts = 16;
      spec.radix = 4;
      spec.max_allreduces = 1;
      return net::build_fat_tree(net, spec).hosts;
    }
    case 1: {
      net::FatTreeSpec spec;
      spec.hosts = 16;
      spec.radix = 8;
      spec.max_allreduces = 1;
      return net::build_fat_tree(net, spec).hosts;
    }
    case 2: {
      net::FatTree3Spec spec;
      spec.radix = 4;
      spec.max_allreduces = 1;
      return net::build_fat_tree_3level(net, spec).hosts;
    }
    default: {
      net::FatTree3Spec spec;
      spec.radix = 6;
      spec.pods = 3;
      spec.max_allreduces = 1;
      return net::build_fat_tree_3level(net, spec).hosts;
    }
  }
}

TEST(EmbeddingOracle, EveryRootMatchesUnderFaultsAndProviders) {
  u32 compared = 0;
  u32 spanned = 0;
  for (u64 seed = 1; seed <= 24; ++seed) {
    net::Network net;
    const std::vector<net::Host*> hosts =
        build_oracle_fabric(net, static_cast<u32>(seed));
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    // Random duplex links down (host access links included) and switches
    // failed; seed % 3 == 0 keeps the fabric whole.
    if (seed % 3 != 0) {
      const u64 downs = rng.uniform_u64(4);
      for (u64 k = 0; k < downs; ++k) {
        net.set_duplex_up(
            static_cast<u32>(rng.uniform_u64(net.num_duplex_links())), false);
      }
      const u64 fails = rng.uniform_u64(3);
      for (u64 k = 0; k < fails; ++k) {
        net.switches()[rng.uniform_u64(net.switches().size())]->fail();
      }
    }
    // Per-link provider values: real-valued in [1, 5), and small integers
    // {1, 2, 3} that force cost ties.
    std::vector<f64> real(net.num_links());
    std::vector<f64> small(net.num_links());
    for (u32 i = 0; i < net.num_links(); ++i) {
      real[i] = rng.uniform(1.0, 5.0);
      small[i] = static_cast<f64>(1 + rng.uniform_u64(3));
    }
    const auto by_link = [&net](const std::vector<f64>& v) {
      return NetworkManager::LinkCostFn(
          [&net, &v](net::NodeId node, u32 port) {
            return v[net.node(node).port(port).index()];
          });
    };
    const std::vector<NetworkManager::LinkCostFn> providers = {
        nullptr, by_link(real), by_link(small)};

    NetworkManager mgr(net);  // one manager: the graph cache is reused
    for (u32 trial = 0; trial < 4; ++trial) {
      std::vector<net::Host*> parts = hosts;
      std::shuffle(parts.begin(), parts.end(), rng);
      parts.resize(1 + rng.uniform_u64(parts.size()));
      for (std::size_t pi = 0; pi < providers.size(); ++pi) {
        const NetworkManager::LinkCostFn& provider = providers[pi];
        mgr.set_link_cost(provider);
        const std::string where = "seed " + std::to_string(seed) +
                                  " trial " + std::to_string(trial) +
                                  " provider " + std::to_string(pi);
        for (net::Switch* sw : net.switches()) {
          const auto want = oracle_tree(net, parts, sw->id(), provider);
          expect_same_tree(mgr.compute_tree(parts, sw->id()), want,
                           where + " root " + sw->name());
          ++compared;
          if (want) ++spanned;
        }
        expect_same_tree(mgr.cheapest_tree(parts),
                         oracle_cheapest(net, parts, provider),
                         where + " cheapest");

        // Admission walks the oracle's candidate order: fill random live
        // switches so several candidates are rejected before one fits.
        std::vector<u32> filled;
        for (net::Switch* sw : net.switches()) {
          if (sw->can_install() && rng.uniform() < 0.3) {
            core::AllreduceConfig dummy;
            dummy.id = mgr.next_id();
            dummy.dtype = core::DType::kInt32;
            dummy.elems_per_packet = 16;
            ASSERT_TRUE(sw->install_reduce(dummy, net::ReduceRole{}));
            filled.push_back(dummy.id);
          }
        }
        const std::vector<ReductionTree> order =
            oracle_install_order(net, parts, provider);
        u32 want_attempts = 0;
        bool want_feasible = false;
        std::optional<ReductionTree> want_tree;
        for (const ReductionTree& t : order) {
          ++want_attempts;
          bool fits = true;
          for (const TreeSwitchEntry& e : t.switches) {
            fits = fits && e.sw->can_install();
          }
          want_feasible = want_feasible ||
                          std::all_of(t.switches.begin(), t.switches.end(),
                                      [](const TreeSwitchEntry& e) {
                                        return e.sw->max_allreduces() > 0;
                                      });
          if (fits) {
            want_tree = t;
            break;
          }
        }
        core::AllreduceConfig cfg;
        cfg.id = mgr.next_id();
        cfg.dtype = core::DType::kInt32;
        cfg.elems_per_packet = 16;
        InstallReport report = mgr.install_with_retry(parts, cfg, 1e12);
        EXPECT_EQ(report.attempts, want_attempts) << where;
        EXPECT_EQ(report.any_feasible, want_feasible) << where;
        expect_same_tree(report.tree, want_tree, where + " install");
        if (report) mgr.uninstall(*report, cfg.id);
        for (const u32 id : filled) {
          for (net::Switch* sw : net.switches()) sw->uninstall_reduce(id);
        }
      }
    }
  }
  // The sweep must exercise real trees, not a fabric that never spans.
  EXPECT_GT(spanned, compared / 4);
}

TEST(EmbeddingOracle, ProviderCalledOncePerPortAndGraphFollowsTopology) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 8;
  const auto topo = net::build_fat_tree(net, spec);
  std::map<std::pair<net::NodeId, u32>, u32> calls;
  const NetworkManager::LinkCostFn counting = [&calls](net::NodeId node,
                                                       u32 port) {
    calls[{node, port}] += 1;
    return static_cast<f64>(1 + (node * 7 + port) % 3);
  };
  NetworkManager mgr(net);
  mgr.set_link_cost(counting);
  const auto max_calls = [&calls] {
    u32 worst = 0;
    for (const auto& [key, count] : calls) worst = std::max(worst, count);
    return worst;
  };
  std::vector<net::Host*> parts = {topo.hosts[0], topo.hosts[5],
                                   topo.hosts[9], topo.hosts[14]};

  // A whole all-roots sweep evaluates each (switch, port) at most once,
  // and so does a single embedding and an admission round.
  ASSERT_TRUE(mgr.cheapest_tree(parts).has_value());
  EXPECT_GT(calls.size(), 0u);
  EXPECT_EQ(max_calls(), 1u);
  calls.clear();
  ASSERT_TRUE(mgr.compute_tree(parts, topo.spines[1]->id()).has_value());
  EXPECT_EQ(max_calls(), 1u);
  calls.clear();
  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  InstallReport report = mgr.install_with_retry(parts, cfg, 1e12);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(max_calls(), 1u);
  mgr.uninstall(*report, cfg.id);

  // A switch added after the first embedding: unreachable while it has
  // no links, then a valid root once wired to every leaf.
  net::Switch& extra = net.add_switch("extra");
  EXPECT_FALSE(mgr.compute_tree(parts, extra.id()).has_value());
  for (net::Switch* leaf : topo.leaves) {
    net.connect(*leaf, extra, spec.link.bandwidth_bps, spec.link.latency_ps);
  }
  const auto got = mgr.compute_tree(parts, extra.id());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->root, extra.id());
  expect_same_tree(got, oracle_tree(net, parts, extra.id(), counting),
                   "extra root");
  expect_same_tree(mgr.cheapest_tree(parts),
                   oracle_cheapest(net, parts, counting), "extra cheapest");
  mgr.set_link_cost(nullptr);
  expect_same_tree(mgr.compute_tree(parts, extra.id()),
                   oracle_tree(net, parts, extra.id(), nullptr),
                   "extra root, BFS");
}

/// Parallel links: a radix-8 fat tree over 16 hosts wires every leaf to
/// each spine twice.  With the FIRST leaf0-spine0 link down, the search
/// reaches leaf0 over the second one, and the tree must be wired over that
/// same link at both ends — a tree over the dead first link would lose
/// every packet leaf0 exchanges with spine0.
TEST(EmbeddingOracle, ChildWiredOverTheParallelLinkTheSearchUsed) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 8;
  const auto topo = net::build_fat_tree(net, spec);
  net::Switch* leaf0 = topo.leaves[0];
  net::Switch* spine0 = topo.spines[0];
  u32 first = UINT32_MAX;
  u32 parallel = 0;
  for (const net::PortPeer& pp : net.neighbors(leaf0->id())) {
    if (pp.peer != spine0->id()) continue;
    if (first == UINT32_MAX) first = leaf0->port(pp.my_port).index() / 2;
    ++parallel;
  }
  ASSERT_EQ(parallel, 2u);
  net.set_duplex_up(first, false);

  NetworkManager mgr(net);
  const auto tree = mgr.compute_tree(topo.hosts, spine0->id());
  ASSERT_TRUE(tree.has_value());
  // A dead tree would leave the allreduce below retrying forever.
  ASSERT_TRUE(tree_alive(net, *tree));
  expect_same_tree(tree, oracle_tree(net, topo.hosts, spine0->id(), nullptr),
                   "spine0 root");

  // A recovery-armed allreduce over that tree never needs its recovery
  // (the timeout is well above the healthy completion time).
  CollectiveOptions desc = dense_desc(64_KiB, core::DType::kInt32);
  desc.retransmit_timeout_ps = 100 * kPsPerUs;
  Communicator comm(net, topo.hosts,
                    CommunicatorConfig{nullptr, nullptr, {spine0->id()},
                                       nullptr});
  const CollectiveResult res = comm.run(desc);
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.in_network);
  EXPECT_FALSE(res.fell_back);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_EQ(res.retransmits, 0u);
  EXPECT_EQ(res.recoveries, 0u);
}

// ---------------------------------------------------------- tree cache ----

TEST(TreeCache, HitMissAndLruEviction) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  TreeCache cache(/*capacity=*/2);

  std::vector<net::Host*> a(topo.hosts.begin(), topo.hosts.begin() + 4);
  std::vector<net::Host*> b(topo.hosts.begin() + 4, topo.hosts.begin() + 8);
  const net::NodeId root = topo.spines[0]->id();

  EXPECT_EQ(cache.lookup(a, root), nullptr);  // miss #1
  auto t1 = cache.get_or_compute(mgr, a, root);  // miss #2, then cached
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  // Participant ORDER must not matter for the key.
  std::vector<net::Host*> a_rev(a.rbegin(), a.rend());
  EXPECT_NE(cache.lookup(a_rev, root), nullptr);
  EXPECT_EQ(cache.hits(), 1u);

  auto t2 = cache.get_or_compute(mgr, b, root);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(cache.size(), 2u);

  // Recency is now [b, a] (b inserted after a's last touch); a third
  // distinct key evicts a.
  std::vector<net::Host*> c(topo.hosts.begin() + 8,
                            topo.hosts.begin() + 12);
  auto t3 = cache.get_or_compute(mgr, c, root);
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(a, root), nullptr);   // evicted
  EXPECT_NE(cache.lookup(b, root), nullptr);   // retained
  EXPECT_NE(cache.lookup(c, root), nullptr);   // retained

  // Cached trees install identically to freshly computed ones.
  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  const ReductionTree* cached = cache.lookup(b, root);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(mgr.install(*cached, cfg, 1e12));
  mgr.uninstall(*cached, cfg.id);
}

// --------------------------------------------------------- flare dense ----

class FlareDenseTopoSweep : public ::testing::TestWithParam<bool> {};

TEST_P(FlareDenseTopoSweep, EndToEndCorrect) {
  const bool fat_tree = GetParam();
  net::Network net;
  std::vector<net::Host*> hosts;
  if (fat_tree) {
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    hosts = net::build_fat_tree(net, spec).hosts;
  } else {
    hosts = net::build_single_switch(net, 8).hosts;
  }
  const CollectiveResult res = run_collective(net, hosts, dense_desc(64_KiB));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_TRUE(res.in_network);
  EXPECT_GT(res.completion_seconds, 0.0);
  EXPECT_GT(res.total_traffic_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, FlareDenseTopoSweep,
                         ::testing::Values(false, true));

class FlareDenseDtypeSweep : public ::testing::TestWithParam<core::DType> {};

TEST_P(FlareDenseDtypeSweep, AllTypesOnFatTree) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  const CollectiveResult res =
      run_collective(net, topo.hosts, dense_desc(16_KiB, GetParam()));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(Dtypes, FlareDenseDtypeSweep,
                         ::testing::Values(core::DType::kInt8,
                                           core::DType::kInt32,
                                           core::DType::kFloat16,
                                           core::DType::kFloat32));

TEST(FlareDense, ReproducibleModeUsesTreeAndChecksOut) {
  net::Network net;
  auto topo = net::build_single_switch(net, 6);
  CollectiveOptions desc = dense_desc(32_KiB);
  desc.reproducible = true;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok);
}

TEST(FlareDense, WindowOneStillCompletes) {
  // Degenerate flow control: one outstanding block, fully serialized.
  // (Windowed operation requires aligned sending — staggered sending keeps
  // the whole message in flight by design.)
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  CollectiveOptions desc = dense_desc(8_KiB);
  desc.window_blocks = 1;
  desc.order = core::SendOrder::kAligned;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok);
}

TEST(FlareDense, AdmissionRejectionReportsFailure) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{}, 0);
  // Explicitly in-network: no auto fallback, the rejection must surface.
  const CollectiveResult res =
      run_collective(net, topo.hosts, dense_desc(1 * kMiB));
  EXPECT_FALSE(res.ok);
}

TEST(FlareDense, AutoFallsBackToRingOnRejection) {
  // The paper's admission policy through the descriptor API: kAuto
  // allreduce rejected by admission runs host-based instead.
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{}, 0);
  CollectiveOptions desc = dense_desc(32_KiB, core::DType::kInt32);
  desc.algorithm = Algorithm::kAuto;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok);
  EXPECT_FALSE(res.in_network);
  EXPECT_EQ(res.max_abs_err, 0.0);
}

// ------------------------------------------------------------- ring -------

class RingSweep : public ::testing::TestWithParam<u32> {};

TEST_P(RingSweep, CorrectForAnyHostCount) {
  const u32 P = GetParam();
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  const CollectiveResult res = run_collective(net, topo.hosts,
                                              ring_desc(64_KiB));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_FALSE(res.in_network);
}

INSTANTIATE_TEST_SUITE_P(HostCounts, RingSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Ring, TrafficMatchesTwoZFormula) {
  // Each host transmits 2 (P-1)/P Z; on a single switch every byte crosses
  // two links (host->switch->host).
  const u32 P = 8;
  const u64 Z = 256_KiB;
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  const CollectiveResult res = run_collective(net, topo.hosts, ring_desc(Z));
  ASSERT_TRUE(res.ok);
  const f64 expected_payload =
      2.0 * static_cast<f64>(P) * static_cast<f64>(Z) *
      (static_cast<f64>(P - 1) / P) * 2.0;  // x2 for the two hops
  const f64 actual = static_cast<f64>(res.total_traffic_bytes);
  EXPECT_NEAR(actual / expected_payload, 1.0, 0.05);  // header overhead
}

TEST(Ring, FatTreeCorrect) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  const CollectiveResult res = run_collective(net, topo.hosts,
                                              ring_desc(32_KiB));
  EXPECT_TRUE(res.ok) << res.max_abs_err;
}

TEST(InNetworkVsRing, FlareHalvesHostTraffic) {
  // The paper's headline: in-network dense ~2x traffic reduction vs the
  // host-based ring (Figure 15 and Section 1).  Same descriptor, two
  // algorithms — the unified API the flexibility claim asks for.
  const u32 P = 16;
  const u64 Z = 128_KiB;
  net::Network netA;
  auto topoA = net::build_single_switch(netA, P);
  const CollectiveResult flare =
      run_collective(netA, topoA.hosts, dense_desc(Z));
  ASSERT_TRUE(flare.ok);

  net::Network netB;
  auto topoB = net::build_single_switch(netB, P);
  const CollectiveResult ring = run_collective(netB, topoB.hosts,
                                               ring_desc(Z));
  ASSERT_TRUE(ring.ok);

  const f64 ratio = static_cast<f64>(ring.total_traffic_bytes) /
                    static_cast<f64>(flare.total_traffic_bytes);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

// ---------------------------------------------------------- sparcml -------

CollectiveOptions sparcml_desc(u32 span, u32 blocks,
                               const workload::SparseSpec& spec) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kSparcml;
  desc.dtype = spec.dtype;
  desc.sparse.block_span = span;
  desc.sparse.num_blocks = blocks;
  desc.sparse.pairs = [spec](u32 h, u32 b) {
    return workload::sparse_block_pairs(spec, h, b);
  };
  return desc;
}

class SparcmlSweep : public ::testing::TestWithParam<u32> {};

TEST_P(SparcmlSweep, CorrectForPowerOfTwoHosts) {
  const u32 P = GetParam();
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  workload::SparseSpec spec{4096, 0.02, 0.5, core::DType::kFloat32, 31};
  const CollectiveResult res =
      run_collective(net, topo.hosts, sparcml_desc(4096, 1, spec));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_FALSE(res.in_network);
}

INSTANTIATE_TEST_SUITE_P(HostCounts, SparcmlSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Sparcml, DenseSwitchoverTriggersForDenseData) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  workload::SparseSpec spec{1024, 0.45, 0.0, core::DType::kFloat32, 37};
  // Union of 4 hosts at 45% density exceeds the pair-encoding break-even:
  // later rounds must go dense.  The switchover count rides the shared
  // CollectiveResult's sparse extras.
  const CollectiveResult res =
      run_collective(net, topo.hosts, sparcml_desc(1024, 1, spec));
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.dense_switchovers, 0u);
}

TEST(Sparcml, NonPowerOfTwoAborts) {
  net::Network net;
  auto topo = net::build_single_switch(net, 3);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kSparcml;
  desc.sparse.block_span = 16;
  desc.sparse.num_blocks = 1;
  desc.sparse.pairs = [](u32, u32) {
    return std::vector<core::SparsePair>{};
  };
  Communicator comm(net, topo.hosts);
  EXPECT_DEATH(comm.run(desc), "power-of-two");
}

// ------------------------------------------------------- flare sparse -----

SparseWorkload uniform_workload(u32 span, u32 blocks, f64 density,
                                f64 overlap, u64 seed) {
  SparseWorkload w;
  w.block_span = span;
  w.num_blocks = blocks;
  workload::SparseSpec spec{span, density, overlap, core::DType::kFloat32,
                            seed};
  w.pairs = [spec](u32 h, u32 b) {
    return workload::sparse_block_pairs(spec, h, b);
  };
  return w;
}

CollectiveOptions sparse_desc(SparseWorkload w) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareSparse;
  desc.sparse = std::move(w);
  return desc;
}

class FlareSparseTopoSweep : public ::testing::TestWithParam<bool> {};

TEST_P(FlareSparseTopoSweep, EndToEndCorrect) {
  const bool fat_tree = GetParam();
  net::Network net;
  std::vector<net::Host*> hosts;
  if (fat_tree) {
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    hosts = net::build_fat_tree(net, spec).hosts;
  } else {
    hosts = net::build_single_switch(net, 8).hosts;
  }
  const CollectiveResult res = run_collective(
      net, hosts, sparse_desc(uniform_workload(1280, 8, 0.10, 0.6, 41)));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_TRUE(res.in_network);
}

INSTANTIATE_TEST_SUITE_P(Topologies, FlareSparseTopoSweep,
                         ::testing::Values(false, true));

TEST(FlareSparse, EmptyBlocksComplete) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  SparseWorkload w;
  w.block_span = 256;
  w.num_blocks = 4;
  w.pairs = [](u32 h, u32 b) {
    // Host 0 contributes only to even blocks; others always empty.
    std::vector<core::SparsePair> out;
    if (h == 0 && b % 2 == 0) out.push_back({b, 1.0});
    return out;
  };
  const CollectiveResult res =
      run_collective(net, topo.hosts, sparse_desc(std::move(w)));
  EXPECT_TRUE(res.ok) << res.max_abs_err;
}

TEST(FlareSparse, AutoAlgorithmPicksSparseForSparseWorkloads) {
  // Attaching a sparse workload to a kAuto descriptor selects the
  // in-network sparse engine — SparCML's "switch algorithms per call under
  // one API" motivation.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  CollectiveOptions desc = sparse_desc(uniform_workload(1280, 4, 0.05,
                                                        0.5, 59));
  desc.algorithm = Algorithm::kAuto;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok) << res.max_abs_err;
  EXPECT_TRUE(res.in_network);
}

TEST(FlareSparse, TinyHashSpillsButStaysCorrect) {
  // Leaf switches use hash storage (the root is array-backed and never
  // spills), so a multi-level tree with a tiny hash must generate spill
  // traffic while remaining exact.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  CollectiveOptions desc = sparse_desc(uniform_workload(2048, 4, 0.2, 0.0,
                                                        43));
  desc.hash_capacity_pairs = 32;
  desc.spill_capacity_pairs = 8;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok) << res.max_abs_err;
  EXPECT_GT(res.extra_packets, 0u);  // scheme-specific extras = spills
}

TEST(FlareSparseVsSparcml, LessTrafficWithOverlappedData) {
  // Figure 15's sparse comparison: with realistically-overlapped indices
  // the in-network sparse allreduce moves far fewer bytes than SparCML —
  // same workload description, two algorithms.
  const u32 P = 16;
  const u32 span = 64 * 128;
  const SparseWorkload w = uniform_workload(span, 8, 0.02, 0.9, 47);

  net::Network netA;
  auto topoA = net::build_single_switch(netA, P);
  const CollectiveResult flare =
      run_collective(netA, topoA.hosts, sparse_desc(w));
  ASSERT_TRUE(flare.ok);

  net::Network netB;
  auto topoB = net::build_single_switch(netB, P);
  CollectiveOptions sdesc = sparse_desc(w);
  sdesc.algorithm = Algorithm::kSparcml;
  const CollectiveResult sparcml = run_collective(netB, topoB.hosts, sdesc);
  ASSERT_TRUE(sparcml.ok);
  EXPECT_LT(flare.total_traffic_bytes, sparcml.total_traffic_bytes);
}

}  // namespace
}  // namespace flare::coll
