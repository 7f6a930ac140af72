// Flow-level (fluid) link modeling: max-min fair shares, exact busy/trace
// attribution, determinism, packet-vs-flow congestion parity, and the
// fault plane (stall + reroute).  net/flow.hpp documents the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/packet.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "workload/cross_traffic.hpp"

namespace flare::net {
namespace {

constexpr f64 kGbps100 = 100e9;

/// Order-sensitive digest of everything a run left on the links.
u64 link_digest(const Network& net) {
  u64 h = 0;
  auto mix = [&h](u64 v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  for (u32 i = 0; i < net.num_links(); ++i) {
    mix(net.link(i).busy_cum_ps());
    mix(net.link(i).traffic().bytes);
  }
  return h;
}

u64 total_busy_ps(const Network& net) {
  u64 t = 0;
  for (u32 i = 0; i < net.num_links(); ++i) t += net.link(i).busy_cum_ps();
  return t;
}

/// Two flows into one 100 Gbps access link split it 50/50; when the
/// smaller finishes, the survivor takes the whole link.  Completion
/// times follow in closed form.
TEST(FlowTest, MaxMinFairShareCompletionTimes) {
  Network net;
  auto topo = build_single_switch(net, 4);
  FlowManager& fm = net.flows();

  std::vector<SimTime> done(2, 0);
  FlowSpec a;  // 1 MBit = 125000 bytes
  a.src_host = 0;
  a.dst_host = 2;
  a.bytes = 125000;
  a.flow_label = 7;
  a.on_complete = [&done](SimTime t) { done[0] = t; };
  FlowSpec b;  // half the size
  b.src_host = 1;
  b.dst_host = 2;
  b.bytes = 62500;
  b.flow_label = 8;
  b.on_complete = [&done](SimTime t) { done[1] = t; };
  fm.start_flow(std::move(a));
  fm.start_flow(std::move(b));
  net.sim().run();

  // b: 5e5 bits at 50 Gbps = 1e7 ps.  a: the other 5e5 bits at 50 Gbps,
  // then the remaining 5e5 bits alone at 100 Gbps = 1e7 + 5e6 ps.
  EXPECT_EQ(fm.flows_finished(), 2u);
  EXPECT_NEAR(static_cast<f64>(done[1]), 1e7, 2.0);
  EXPECT_NEAR(static_cast<f64>(done[0]), 1.5e7, 2.0);

  // The shared access link serialized every bit at line rate:
  // 1.5e6 bits / 100 Gbps = 1.5e7 ps of busy time.
  const Link& access = *net.hosts()[2]->port(0).reverse();
  EXPECT_NEAR(static_cast<f64>(access.busy_cum_ps()), 1.5e7, 4.0);
}

/// A rate cap below the fair share freezes the capped flow first and
/// hands the slack to the uncapped one.
TEST(FlowTest, RateCapFreezesBelowFairShare) {
  Network net;
  auto topo = build_single_switch(net, 4);
  FlowManager& fm = net.flows();

  std::vector<SimTime> done(2, 0);
  FlowSpec capped;
  capped.src_host = 0;
  capped.dst_host = 2;
  capped.bytes = 125000;  // 1e6 bits
  capped.rate_cap_bps = 20e9;
  capped.on_complete = [&done](SimTime t) { done[0] = t; };
  FlowSpec open;
  open.src_host = 1;
  open.dst_host = 2;
  open.bytes = 125000;
  open.on_complete = [&done](SimTime t) { done[1] = t; };
  fm.start_flow(std::move(capped));
  fm.start_flow(std::move(open));
  net.sim().run();

  // capped: 1e6 bits at 20 Gbps = 5e7 ps.  open: 80 Gbps while sharing
  // (1e6 bits in 1.25e7 ps) — done long before the capped one.
  EXPECT_NEAR(static_cast<f64>(done[0]), 5e7, 2.0);
  EXPECT_NEAR(static_cast<f64>(done[1]), 1.25e7, 2.0);
}

/// Attribution conservation holds exactly at every quiescent point: each
/// link's busy_by_trace buckets sum to busy_cum_ps, flows included.
TEST(FlowTest, AttributionConservesExactly) {
  Network net;
  auto topo = build_single_switch(net, 4);
  FlowManager& fm = net.flows();
  for (u32 f = 0; f < 6; ++f) {
    FlowSpec s;
    s.src_host = f % 3;
    s.dst_host = 3;
    s.bytes = 40000 + 7777 * f;
    s.flow_label = f;
    s.trace = net.alloc_trace_id();
    fm.start_flow_at(f * 1000, std::move(s));
  }
  net.sim().run();
  net.sync_flows();
  EXPECT_EQ(fm.flows_finished(), 6u);
  for (u32 i = 0; i < net.num_links(); ++i) {
    u64 sum = 0;
    for (const auto& [trace, ps] : net.link(i).busy_by_trace()) sum += ps;
    EXPECT_EQ(sum, net.link(i).busy_cum_ps()) << net.link(i).name();
  }
}

/// A finished flow books exactly its bytes on every path link, and the
/// busy time its carries converge to (80 ps per byte at 100 Gbps), however
/// staggered interferers chop its lifetime into settle intervals.
TEST(FlowTest, FinishedFlowBooksExactBytesAndBusy) {
  for (u64 trial = 0; trial < 200; ++trial) {
    Network net;
    auto topo = build_single_switch(net, 4);
    FlowManager& fm = net.flows();
    Rng rng(trial);
    std::vector<u64> expect_bytes(net.num_links(), 0);
    std::vector<FlowSpec> specs;
    auto add = [&](u32 src, u32 dst, u64 bytes, SimTime at) {
      FlowSpec s;
      s.src_host = src;
      s.dst_host = dst;
      s.bytes = bytes;
      s.flow_label = specs.size();
      s.trace = static_cast<u32>(specs.size()) + 1;
      expect_bytes[topo.hosts[src]->port(0).index()] += bytes;
      expect_bytes[topo.hosts[dst]->port(0).reverse()->index()] += bytes;
      specs.push_back(s);
      fm.start_flow_at(at, std::move(s));
    };
    add(0, 3, 100000, 0);
    for (u32 k = 0; k < 6; ++k) {
      const u32 src = static_cast<u32>(rng.uniform_u64(3));
      add(src, src == 0 ? 1 + static_cast<u32>(rng.uniform_u64(2)) : 3,
          1 + rng.uniform_u64(60000), rng.uniform_u64(8'000'000));
    }
    net.sim().run();
    net.sync_flows();
    ASSERT_EQ(fm.flows_finished(), specs.size());
    for (u32 i = 0; i < net.num_links(); ++i) {
      EXPECT_EQ(net.link(i).traffic().bytes, expect_bytes[i])
          << "trial " << trial << " link " << net.link(i).name();
    }
    for (const FlowSpec& s : specs) {
      const Link& nic = topo.hosts[s.src_host]->port(0);
      const Link& access = *topo.hosts[s.dst_host]->port(0).reverse();
      EXPECT_EQ(nic.busy_ps_for_trace(s.trace), s.bytes * 80)
          << "trial " << trial << " trace " << s.trace;
      EXPECT_EQ(access.busy_ps_for_trace(s.trace), s.bytes * 80)
          << "trial " << trial << " trace " << s.trace;
    }
  }
}

/// While a flow occupies its share, packets serialize at the REMAINING
/// bandwidth — the two planes genuinely contend.
TEST(FlowTest, PacketsSerializeAtRemainingBandwidth) {
  Network net;
  auto topo = build_single_switch(net, 2);
  FlowManager& fm = net.flows();
  FlowSpec s;
  s.src_host = 0;
  s.dst_host = 1;
  s.bytes = 1250000;  // 1e7 bits: at 100 Gbps alone, busy until 1e8 ps
  fm.start_flow(std::move(s));
  net.sim().run_until(100);  // let the start event apply the shares

  const Link& nic = net.hosts()[0]->port(0);
  EXPECT_DOUBLE_EQ(nic.flow_rate_bps(), kGbps100);
  // Fully flow-saturated: the 5% line-rate floor keeps packets moving.
  const SimTime offered_at = net.sim().now();
  NetPacket pkt;
  pkt.kind = PacketKind::kHostMsg;
  pkt.dst_node = net.hosts()[1]->id();
  pkt.wire_bytes = 5000;  // 4e4 bits; at 5 Gbps -> 8e6 ps
  pkt.msg = std::make_shared<HostMsg>();
  net.hosts()[0]->send(std::move(pkt));
  EXPECT_NEAR(static_cast<f64>(nic.busy_until() - offered_at), 8e6, 2.0);

  net.sim().run();
  net.sync_flows();
  EXPECT_DOUBLE_EQ(nic.flow_rate_bps(), 0.0);  // reset once flows drain
}

/// A fault that darkens the only path stalls the flow (rate zero, no
/// calendar event held); restoring it re-paths and completes the
/// transfer with the downtime added.
TEST(FlowTest, StallAndRerouteAcrossLinkFault) {
  Network net;
  auto topo = build_single_switch(net, 2);
  FlowManager& fm = net.flows();
  SimTime done = 0;
  FlowSpec s;
  s.src_host = 0;
  s.dst_host = 1;
  s.bytes = 1250000;  // 1e7 bits -> 1e8 ps alone at 100 Gbps
  s.on_complete = [&done](SimTime t) { done = t; };
  fm.start_flow(std::move(s));

  // Down at half transfer, up again 1e8 ps later (host 1's access link
  // is duplex index 1: connect order follows host order).
  net.sim().schedule_at(50'000'000, [&net] { net.set_duplex_up(1, false); });
  net.sim().schedule_at(150'000'000, [&net] { net.set_duplex_up(1, true); });
  net.sim().run_until(100'000'000);
  EXPECT_EQ(fm.flows_stalled(), 1u);
  EXPECT_EQ(fm.flows_finished(), 0u);
  net.sim().run();

  EXPECT_EQ(fm.flows_stalled(), 0u);
  EXPECT_EQ(fm.flows_finished(), 1u);
  EXPECT_EQ(fm.reroutes(), 2u);  // stall + revival
  EXPECT_NEAR(static_cast<f64>(done), 2e8, 4.0);  // 1e8 + 1e8 of downtime
}

/// The flow plane replays bit for bit: identical seeds leave identical
/// per-link busy/traffic state on a 3-level tree, twice in a row.
TEST(FlowTest, FlowModeCrossTrafficIsDeterministic) {
  auto run = [] {
    Network net;
    FatTree3Spec ts;
    ts.radix = 8;
    ts.pods = 4;  // 64 hosts
    build_fat_tree_3level(net, ts);
    workload::CrossTrafficSpec ct;
    ct.flows = 24;
    ct.incast_bursts = 3;
    ct.incast_fanin = 6;
    ct.seed = 5;
    ct.flow_mode = true;
    workload::CrossTrafficInjector inject(net, ct);
    inject.arm();
    net.sim().run();
    net.sync_flows();
    return link_digest(net);
  };
  const u64 first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first, 0u);
}

/// Packet and flow mode carry the SAME seeded schedule: identical armed
/// totals, identical paths (same salted ECMP), and busy totals within
/// rounding of each other.
TEST(FlowTest, PacketVsFlowBusyParity) {
  auto run = [](bool flow_mode) {
    Network net;
    FatTree3Spec ts;
    ts.radix = 8;
    ts.pods = 4;
    build_fat_tree_3level(net, ts);
    workload::CrossTrafficSpec ct;
    ct.flows = 24;
    ct.incast_bursts = 3;
    ct.incast_fanin = 6;
    ct.seed = 5;
    ct.flow_mode = flow_mode;
    workload::CrossTrafficInjector inject(net, ct);
    inject.arm();
    net.sim().run();
    net.sync_flows();
    return std::pair<u64, u64>(inject.packets_armed(), total_busy_ps(net));
  };
  const auto [pkt_armed, pkt_busy] = run(false);
  const auto [flw_armed, flw_busy] = run(true);
  EXPECT_EQ(pkt_armed, flw_armed);
  EXPECT_GT(pkt_busy, 0u);
  EXPECT_NEAR(static_cast<f64>(flw_busy), static_cast<f64>(pkt_busy),
              0.01 * static_cast<f64>(pkt_busy));
}

/// The incast dead-port bugfix: a sender whose NIC is dark at plan time
/// arms NOTHING (no calendar bloat), while the planned totals still
/// count it and the skip is visible in its own counters.
TEST(FlowTest, IncastSkipsDeadSendersAtPlanTime) {
  for (const bool flow_mode : {false, true}) {
    Network net;
    build_single_switch(net, 2);
    net.set_duplex_up(0, false);  // whichever host sends, its NIC is dark
    net.set_duplex_up(1, false);
    const u64 faults_before = net.sim().total_events_run();
    workload::CrossTrafficSpec ct;
    ct.flows = 0;
    ct.incast_bursts = 1;
    ct.incast_fanin = 1;
    ct.incast_bytes = 16 * kKiB;
    ct.packet_bytes = 4096;
    ct.flow_mode = flow_mode;
    workload::CrossTrafficInjector inject(net, ct);
    inject.arm();
    net.sim().run();
    EXPECT_EQ(inject.incast_senders_skipped(), 1u) << flow_mode;
    EXPECT_EQ(inject.packets_skipped(), 4u) << flow_mode;
    EXPECT_EQ(inject.packets_armed(), 4u) << flow_mode;  // planned total
    EXPECT_EQ(inject.bytes_armed(),
              4 * (4096 + core::kPacketWireOverhead));
    // Nothing was scheduled for the dead sender.
    EXPECT_EQ(net.sim().total_events_run(), faults_before) << flow_mode;
  }
}

// ------------------------------------------------------ solver oracle ----

/// The global max-min solver: water-filling over EVERY active flow at
/// once, links by ascending index, flows by ascending id.  Each round
/// freezes every cap-limited flow whose cap is below the global fair
/// share, or else every flow crossing a bottleneck link.  FlowManager
/// re-solves only the changed component; this is the oracle it must
/// match.  Returns one rate per view (0 for stalled flows).
std::vector<f64> oracle_rates(const Network& net,
                              const std::vector<FlowManager::FlowView>& fv) {
  std::vector<f64> rate(fv.size(), -1.0);  // -1 = undecided
  std::vector<u32> links;
  for (std::size_t k = 0; k < fv.size(); ++k) {
    if (fv[k].path.empty()) rate[k] = 0.0;
    links.insert(links.end(), fv[k].path.begin(), fv[k].path.end());
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  std::vector<u32> pos(net.num_links(), 0);
  std::vector<f64> remaining(links.size());
  std::vector<u32> count(links.size(), 0);
  for (std::size_t i = 0; i < links.size(); ++i) {
    pos[links[i]] = static_cast<u32>(i);
    remaining[i] = net.link(links[i]).bandwidth_bps();
  }
  std::size_t unfrozen = 0;
  for (const auto& f : fv) {
    for (const u32 li : f.path) count[pos[li]] += 1;
    if (!f.path.empty()) unfrozen += 1;
  }
  auto freeze = [&](std::size_t k, f64 r) {
    rate[k] = r;
    for (const u32 li : fv[k].path) {
      remaining[pos[li]] -= r;
      count[pos[li]] -= 1;
    }
    unfrozen -= 1;
  };
  auto share = [&](std::size_t i) {
    return std::max(remaining[i], 0.0) / static_cast<f64>(count[i]);
  };
  while (unfrozen > 0) {
    f64 fair = std::numeric_limits<f64>::max();
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (count[i] > 0) fair = std::min(fair, share(i));
    }
    bool froze_cap = false;
    for (std::size_t k = 0; k < fv.size(); ++k) {
      if (rate[k] < 0.0 && fv[k].rate_cap_bps > 0.0 &&
          fv[k].rate_cap_bps <= fair) {
        freeze(k, fv[k].rate_cap_bps);
        froze_cap = true;
      }
    }
    if (froze_cap) continue;
    bool froze = false;
    for (std::size_t k = 0; k < fv.size(); ++k) {
      if (rate[k] >= 0.0) continue;
      const bool bottlenecked =
          std::any_of(fv[k].path.begin(), fv[k].path.end(), [&](u32 li) {
            return count[pos[li]] > 0 && share(pos[li]) <= fair * (1 + 1e-9);
          });
      if (!bottlenecked) continue;
      freeze(k, fair);
      froze = true;
    }
    if (!froze) {
      ADD_FAILURE() << "oracle water-filling failed to converge";
      break;
    }
  }
  return rate;
}

/// Seeded property test of the incremental solver: random starts (some
/// capped), natural finishes, and duplex link down/up on 2- and 3-level
/// fat trees.  After EVERY calendar event each flow's rate matches the
/// global oracle to 1e-12 relative (component solves freeze capped flows
/// in a different order, so the last ulp may differ), and each link's
/// aggregate flow rate is the sum of its resident flows' rates.
TEST(FlowTest, IncrementalSolveMatchesGlobalOracle) {
  u64 checks = 0;
  for (u64 seed = 1; seed <= 8; ++seed) {
    const bool three_level = seed % 2 == 0;
    Network net;
    std::vector<Host*> hosts;
    if (three_level) {
      FatTree3Spec ts;
      ts.radix = 4;
      ts.pods = 4;  // 16 hosts, 20 switches
      hosts = build_fat_tree_3level(net, ts).hosts;
    } else {
      FatTreeSpec ts;
      ts.hosts = 16;
      ts.radix = 4;
      hosts = build_fat_tree(net, ts).hosts;
    }
    FlowManager& fm = net.flows();
    Rng rng(seed);
    const u32 nh = static_cast<u32>(hosts.size());
    for (u32 k = 0; k < 120; ++k) {
      FlowSpec s;
      s.src_host = static_cast<u32>(rng.uniform_u64(nh));
      s.dst_host =
          static_cast<u32>((s.src_host + 1 + rng.uniform_u64(nh - 1)) % nh);
      s.bytes = 1 + rng.uniform_u64(400000);
      s.flow_label = rng();
      if (rng.uniform_u64(3) == 0) s.rate_cap_bps = rng.uniform(5e9, 80e9);
      fm.start_flow_at(rng.uniform_u64(60'000'000), std::move(s));
    }
    for (u32 k = 0; k < 6; ++k) {
      const u32 duplex =
          static_cast<u32>(rng.uniform_u64(net.num_duplex_links()));
      const SimTime down = rng.uniform_u64(60'000'000);
      const SimTime up = down + rng.uniform_u64(20'000'000);
      net.sim().schedule_at(
          down, [&net, duplex] { net.set_duplex_up(duplex, false); });
      net.sim().schedule_at(
          up, [&net, duplex] { net.set_duplex_up(duplex, true); });
    }
    while (net.sim().step()) {
      const std::vector<FlowManager::FlowView> fv = fm.active_flows();
      const std::vector<f64> want = oracle_rates(net, fv);
      std::vector<f64> load(net.num_links(), 0.0);
      for (std::size_t k = 0; k < fv.size(); ++k) {
        const f64 tol = 1e-12 * std::max(std::abs(want[k]), fv[k].rate_bps);
        ASSERT_LE(std::abs(fv[k].rate_bps - want[k]), tol)
            << "seed " << seed << " flow " << fv[k].id << " at "
            << net.sim().now();
        for (const u32 li : fv[k].path) load[li] += fv[k].rate_bps;
        checks += 1;
      }
      for (u32 i = 0; i < net.num_links(); ++i) {
        ASSERT_EQ(net.link(i).flow_rate_bps(), load[i])
            << "seed " << seed << " link " << net.link(i).name();
      }
    }
    EXPECT_EQ(fm.flows_finished(), 120u) << "seed " << seed;
  }
  EXPECT_GT(checks, 10000u);
}

// ---------------------------------------------------------- topology ----

/// 3-level builder shape: pods * (radix/2)^2 hosts, radix/2 edge and agg
/// per pod, (radix/2)^2 cores — and every host pair can exchange traffic
/// through the compressed route tables.
TEST(FatTree3Test, ShapeAndAllPairsRouting) {
  Network net;
  FatTree3Spec ts;
  ts.radix = 4;
  ts.pods = 3;  // 12 hosts, 6 edges, 6 aggs, 4 cores
  auto topo = build_fat_tree_3level(net, ts);
  ASSERT_EQ(topo.hosts.size(), 12u);
  EXPECT_EQ(topo.edges.size(), 6u);
  EXPECT_EQ(topo.aggs.size(), 6u);
  EXPECT_EQ(topo.cores.size(), 4u);

  // Every ordered pair: one tagged packet, delivered intact.
  u64 delivered = 0;
  for (Host* h : topo.hosts) {
    h->set_msg_handler([&delivered](const HostMsg&) { delivered += 1; });
  }
  u64 sent = 0;
  for (u32 s = 0; s < topo.hosts.size(); ++s) {
    for (u32 d = 0; d < topo.hosts.size(); ++d) {
      if (s == d) continue;
      auto msg = std::make_shared<HostMsg>();
      msg->src_host = s;
      msg->dst_host = d;
      msg->proto = 0x51u;
      NetPacket pkt;
      pkt.kind = PacketKind::kHostMsg;
      pkt.dst_node = topo.hosts[d]->id();
      pkt.flow = s * 131 + d;
      pkt.wire_bytes = 256;
      pkt.msg = std::move(msg);
      topo.hosts[s]->send(std::move(pkt));
      sent += 1;
    }
  }
  net.sim().run();
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(net.unroutable_dropped_packets(), 0u);
}

/// The per-switch ECMP salt de-polarizes the stages: across many labels,
/// host 0 -> a remote pod reaches MORE than radix/2 distinct cores (the
/// unsalted hash would pin each label's edge choice and agg choice to the
/// same index, touching exactly the diagonal radix/2 cores).
TEST(FatTree3Test, SaltedEcmpSpreadsAcrossCores) {
  Network net;
  FatTree3Spec ts;
  ts.radix = 8;
  ts.pods = 4;  // 64 hosts, 16 cores
  auto topo = build_fat_tree_3level(net, ts);
  // Count bytes crossing each core by sampling its ingress links.
  for (u64 label = 0; label < 64; ++label) {
    auto msg = std::make_shared<HostMsg>();
    msg->src_host = 0;
    msg->dst_host = 63;
    msg->proto = 0x52u;
    NetPacket pkt;
    pkt.kind = PacketKind::kHostMsg;
    pkt.dst_node = topo.hosts[63]->id();
    pkt.flow = label;
    pkt.wire_bytes = 256;
    pkt.msg = std::move(msg);
    topo.hosts[0]->send(std::move(pkt));
  }
  net.sim().run();
  u32 cores_touched = 0;
  for (Switch* core : topo.cores) {
    u64 bytes = 0;
    for (u32 p = 0; p < core->num_ports(); ++p) {
      if (const Link* in = core->port(p).reverse()) bytes += in->traffic().bytes;
    }
    if (bytes > 0) cores_touched += 1;
  }
  EXPECT_GT(cores_touched, ts.radix / 2);
}

/// The flow plane walks the identical salted ECMP: packet vs flow for one
/// (src, dst, label) heat the same links.
TEST(FatTree3Test, FlowPathMatchesPacketPath) {
  for (const u64 label : {3ull, 11ull, 29ull, 64ull}) {
    auto heated = [label](bool flow_mode) {
      Network net;
      FatTree3Spec ts;
      ts.radix = 8;
      ts.pods = 4;
      auto topo = build_fat_tree_3level(net, ts);
      if (flow_mode) {
        FlowSpec s;
        s.src_host = 5;
        s.dst_host = 60;
        s.bytes = 4096;
        s.flow_label = label;
        net.flows().start_flow(std::move(s));
      } else {
        auto msg = std::make_shared<HostMsg>();
        msg->src_host = 5;
        msg->dst_host = 60;
        msg->proto = 0x53u;
        NetPacket pkt;
        pkt.kind = PacketKind::kHostMsg;
        pkt.dst_node = topo.hosts[60]->id();
        pkt.flow = label;
        pkt.wire_bytes = 4096;
        pkt.msg = std::move(msg);
        topo.hosts[5]->send(std::move(pkt));
      }
      net.sim().run();
      net.sync_flows();
      std::vector<u32> hot;
      for (u32 i = 0; i < net.num_links(); ++i) {
        if (net.link(i).busy_cum_ps() > 0) hot.push_back(i);
      }
      return hot;
    };
    EXPECT_EQ(heated(false), heated(true)) << "label=" << label;
  }
}

}  // namespace
}  // namespace flare::net
