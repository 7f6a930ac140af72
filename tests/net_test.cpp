// Network simulator: link serialization/latency/FIFO, traffic accounting,
// routing (single switch + fat tree, ECMP), host messaging, switch
// reduction roles (calibrated server, up-aggregation, down-multicast),
// and fat-tree structural invariants.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/network.hpp"

namespace flare::net {
namespace {

NetPacket make_msg(u32 src, u32 dst, NodeId dst_node, u64 bytes,
                   u64 flow = 0) {
  auto msg = std::make_shared<HostMsg>();
  msg->src_host = src;
  msg->dst_host = dst;
  NetPacket np;
  np.kind = PacketKind::kHostMsg;
  np.dst_node = dst_node;
  np.wire_bytes = bytes;
  np.flow = flow;
  np.msg = std::move(msg);
  return np;
}

TEST(Link, SerializationPlusLatency) {
  sim::Simulator sim;
  Link link(sim, 100e9, 500 * kPsPerNs);  // 100 Gbps, 500 ns
  SimTime arrived = 0;
  link.set_deliver([&](NetPacket&&) { arrived = sim.now(); });
  NetPacket p = make_msg(0, 1, 0, 1250);  // 100 ns at 100 Gbps
  sim.schedule_at(0, [&] { link.send(std::move(p)); });
  sim.run();
  EXPECT_EQ(arrived, 100 * kPsPerNs + 500 * kPsPerNs);
  EXPECT_EQ(link.traffic().bytes, 1250u);
  EXPECT_EQ(link.traffic().packets, 1u);
}

TEST(Link, BackToBackPacketsQueueFifo) {
  sim::Simulator sim;
  Link link(sim, 100e9, 0);
  std::vector<SimTime> arrivals;
  link.set_deliver([&](NetPacket&&) { arrivals.push_back(sim.now()); });
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      link.send(make_msg(0, 1, 0, 1250));
    }
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 100 * kPsPerNs);
  EXPECT_EQ(arrivals[1], 200 * kPsPerNs);
  EXPECT_EQ(arrivals[2], 300 * kPsPerNs);
}

TEST(Link, QueuedBytesIsExactAtHighBandwidth) {
  // ISSUE 8 regression: queued_bytes used to convert the backlog through
  // f64 (delay x bps / 8e12).  At 400 Gbps the product passes 2^53 for any
  // backlog beyond ~20 us, and the rounded product can truncate to a
  // different byte count than the exact integer quotient.  Build large
  // backlogs and check the link against u128 arithmetic; also prove the
  // old formula actually disagrees somewhere in this range (i.e. this
  // test would have caught the bug).
  sim::Simulator sim;
  const f64 bw = 400e9;
  Link link(sim, bw, 0);
  link.set_deliver([](NetPacket&&) {});
  u32 f64_was_lossy = 0;
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 400; ++i) {
      link.send(make_msg(0, 1, 0, 7 * kMiB + 13));  // ~21 GiB total backlog
      const SimTime delay = link.queue_delay_ps(0);
      using u128 = unsigned __int128;
      const u64 exact = static_cast<u64>(
          static_cast<u128>(delay) * 400'000'000'000ull /
          (8 * static_cast<u128>(kPsPerSecond)));
      EXPECT_EQ(link.queued_bytes(0), exact) << "delay=" << delay;
      const u64 via_f64 = static_cast<u64>(static_cast<f64>(delay) * bw /
                                           8.0 / kPsPerSecond);
      if (via_f64 != exact) f64_was_lossy += 1;
    }
    sim.stop();  // the backlog itself is irrelevant; don't simulate it out
  });
  sim.run();
  EXPECT_GT(f64_was_lossy, 0u)
      << "sweep never hit a lossy conversion; widen it";
}

TEST(Link, BurstKeepsOneDeliveryEventArmed) {
  // Batched serialization: a burst parks on the link's pending queue with
  // ONE armed calendar event (for the queue front), not one per packet.
  sim::Simulator sim;
  Link link(sim, 100e9, 0);
  std::vector<SimTime> arrivals;
  link.set_deliver([&](NetPacket&&) { arrivals.push_back(sim.now()); });
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 64; ++i) link.send(make_msg(0, 1, 0, 1250));
  });
  EXPECT_EQ(sim.pending_events(), 1u);  // the burst trigger itself
  sim.step();                           // run the burst event
  EXPECT_EQ(sim.pending_events(), 1u);  // 64 in flight, ONE armed delivery
  sim.run();
  ASSERT_EQ(arrivals.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(arrivals[static_cast<size_t>(i)],
              static_cast<SimTime>(i + 1) * 100 * kPsPerNs);
  }
}

TEST(SingleSwitchTopology, HostToHostDelivery) {
  Network net;
  auto topo = build_single_switch(net, 4);
  u32 got = UINT32_MAX;
  topo.hosts[2]->set_msg_handler([&](const HostMsg& m) { got = m.src_host; });
  topo.hosts[0]->send(make_msg(0, 2, topo.hosts[2]->id(), 1000));
  net.sim().run();
  EXPECT_EQ(got, 0u);
  // host0 -> switch -> host2: two link traversals.
  EXPECT_EQ(net.total_traffic_bytes(), 2000u);
}

TEST(FatTree, StructureMatchesPaperSpec) {
  // 64 hosts, radix-8 switches: 16 leaves (4 down / 4 up), 8 spines.
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  EXPECT_EQ(topo.hosts.size(), 64u);
  EXPECT_EQ(topo.leaves.size(), 16u);
  EXPECT_EQ(topo.spines.size(), 8u);
  for (Switch* leaf : topo.leaves) EXPECT_EQ(leaf->num_ports(), 8u);
  for (Switch* spine : topo.spines) EXPECT_EQ(spine->num_ports(), 8u);
}

TEST(FatTree, AllPairsReachable) {
  Network net;
  FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;  // 8 leaves x 2 hosts, 4 spines
  auto topo = build_fat_tree(net, spec);
  u32 delivered = 0;
  for (Host* h : topo.hosts) {
    h->set_msg_handler([&](const HostMsg&) { delivered += 1; });
  }
  u32 sent = 0;
  for (u32 a = 0; a < topo.hosts.size(); ++a) {
    for (u32 b = 0; b < topo.hosts.size(); ++b) {
      if (a == b) continue;
      topo.hosts[a]->send(
          make_msg(a, b, topo.hosts[b]->id(), 100, a * 131 + b));
      sent += 1;
    }
  }
  net.sim().run();
  EXPECT_EQ(delivered, sent);
}

TEST(FatTree, IntraLeafStaysLocal) {
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  // hosts 0 and 1 share leaf0: the message must not touch any spine link.
  topo.hosts[1]->set_msg_handler([](const HostMsg&) {});
  topo.hosts[0]->send(make_msg(0, 1, topo.hosts[1]->id(), 1000));
  net.sim().run();
  EXPECT_EQ(net.total_traffic_bytes(), 2000u);  // host->leaf, leaf->host
}

TEST(FatTree, EcmpSpreadsFlows) {
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  // Many flows between two hosts in different leaves: distinct flow labels
  // should hash onto more than one uplink. Count distinct delivery orders
  // indirectly via total traffic (all delivered) and spine usage.
  u32 got = 0;
  Host* dst = topo.hosts[63];
  dst->set_msg_handler([&](const HostMsg&) { got += 1; });
  for (u64 flow = 0; flow < 64; ++flow) {
    topo.hosts[0]->send(make_msg(0, 63, dst->id(), 1000, flow));
  }
  net.sim().run();
  EXPECT_EQ(got, 64u);
}

TEST(FatTree, EcmpSpreadsFlowsAcrossSpines) {
  // The cross-leaf ECMP set is the leaf's full uplink fan: with 64 distinct
  // flow labels between one host pair, the flow hash must put bytes through
  // MULTIPLE spines, not funnel everything onto one (the congestion plane
  // depends on background flows spreading this way).
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  u32 got = 0;
  Host* dst = topo.hosts[63];
  dst->set_msg_handler([&](const HostMsg&) { got += 1; });
  for (u64 flow = 0; flow < 64; ++flow) {
    topo.hosts[0]->send(make_msg(0, 63, dst->id(), 1000, flow * 977 + 13));
  }
  net.sim().run();
  EXPECT_EQ(got, 64u);
  u32 spines_used = 0;
  for (Switch* spine : topo.spines) {
    u64 bytes = 0;
    for (u32 p = 0; p < spine->num_ports(); ++p) {
      bytes += spine->port(p).traffic().bytes;
    }
    if (bytes > 0) spines_used += 1;
  }
  EXPECT_GE(spines_used, 2u);
  // And the host's leaf spread the flows over more than one uplink: the
  // spine downlink bytes cannot all be on one spine.
  EXPECT_EQ(net.total_traffic_bytes(), 64u * 1000 * 4);  // 4 hops per msg
}

TEST(FatTree, BuildRoutesPathsAreSymmetric) {
  // build_routes must produce symmetric host<->host paths: for every
  // ordered pair, a->b and b->a cross the same number of links, so an
  // otherwise idle fabric delivers both in identical time.
  Network net;
  FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;  // 8 leaves x 2 hosts, 4 spines
  auto topo = build_fat_tree(net, spec);
  SimTime arrived = 0;
  for (Host* h : topo.hosts) {
    h->set_msg_handler([&](const HostMsg&) { arrived = net.sim().now(); });
  }
  const u32 n = static_cast<u32>(topo.hosts.size());
  for (u32 a = 0; a < n; ++a) {
    for (u32 b = a + 1; b < n; ++b) {
      const SimTime t0 = net.sim().now();
      topo.hosts[a]->send(
          make_msg(a, b, topo.hosts[b]->id(), 1000, a * 131 + b));
      net.sim().run();  // drain: no queueing interference between probes
      const SimTime fwd = arrived - t0;
      const SimTime t1 = net.sim().now();
      topo.hosts[b]->send(
          make_msg(b, a, topo.hosts[a]->id(), 1000, a * 131 + b));
      net.sim().run();
      const SimTime rev = arrived - t1;
      EXPECT_EQ(fwd, rev) << "asymmetric path " << a << "<->" << b;
    }
  }
}

// ------------------------------------------------------- reduction plane --

core::AllreduceConfig reduce_cfg(u32 id, u32 children) {
  core::AllreduceConfig cfg;
  cfg.id = id;
  cfg.num_children = children;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 8;
  cfg.policy = core::AggPolicy::kSingleBuffer;
  cfg.is_root = true;
  return cfg;
}

TEST(SwitchReduce, SingleSwitchAggregatesAndMulticasts) {
  Network net;
  auto topo = build_single_switch(net, 3);
  Switch* sw = topo.leaves[0];

  ReduceRole role;
  role.is_root = true;
  role.service_bps = 100e9;
  // Hosts occupy ports 0..2 on the switch.
  role.child_ports = {0, 1, 2};
  ASSERT_TRUE(sw->install_reduce(reduce_cfg(1, 3), std::move(role)));

  std::vector<u32> got(3, 0);
  std::vector<i64> sums(3, 0);
  for (u32 h = 0; h < 3; ++h) {
    topo.hosts[h]->set_reduce_handler(1, [&, h](const core::Packet& pkt) {
      got[h] += 1;
      const auto* vals = static_cast<const i32*>(core::dense_payload(pkt));
      for (u32 i = 0; i < pkt.hdr.elem_count; ++i) sums[h] += vals[i];
    });
  }
  for (u32 h = 0; h < 3; ++h) {
    std::vector<i32> data(8, static_cast<i32>(h + 1));
    core::Packet p = core::make_dense_packet(1, 0, static_cast<u16>(h),
                                             data.data(), 8,
                                             core::DType::kInt32);
    NetPacket np;
    np.kind = PacketKind::kReduceUp;
    np.allreduce_id = 1;
    np.wire_bytes = p.wire_bytes();
    np.reduce = std::make_shared<const core::Packet>(std::move(p));
    topo.hosts[h]->send(std::move(np));
  }
  net.sim().run();
  for (u32 h = 0; h < 3; ++h) {
    EXPECT_EQ(got[h], 1u) << h;
    EXPECT_EQ(sums[h], 8 * (1 + 2 + 3)) << h;
  }
  EXPECT_EQ(sw->reduce_packets_processed(), 3u);
}

// A retransmitted copy of a block the switch already completed: with fault
// recovery off nothing is cached, so the engine drops it as a duplicate and
// the hosts see no second result; with recovery on the switch replays the
// cached result and every host gets exactly one more copy.
TEST(SwitchReduce, ReplayOnlyWhenRecoveryArmed) {
  for (const bool recovery : {false, true}) {
    Network net;
    auto topo = build_single_switch(net, 3);
    Switch* sw = topo.leaves[0];

    ReduceRole role;
    role.is_root = true;
    role.service_bps = 100e9;
    role.child_ports = {0, 1, 2};
    core::AllreduceConfig cfg = reduce_cfg(1, 3);
    cfg.fault_recovery = recovery;
    ASSERT_TRUE(sw->install_reduce(cfg, std::move(role)));

    std::vector<u32> got(3, 0);
    for (u32 h = 0; h < 3; ++h) {
      topo.hosts[h]->set_reduce_handler(1, [&got, h](const core::Packet& pkt) {
        got[h] += 1;
        const auto* vals = static_cast<const i32*>(core::dense_payload(pkt));
        EXPECT_EQ(vals[0], 1 + 2 + 3);
      });
    }
    const auto send = [&](u32 h, u16 extra_flags) {
      std::vector<i32> data(8, static_cast<i32>(h + 1));
      core::Packet p = core::make_dense_packet(1, 0, static_cast<u16>(h),
                                               data.data(), 8,
                                               core::DType::kInt32);
      p.hdr.flags |= extra_flags;
      NetPacket np;
      np.kind = PacketKind::kReduceUp;
      np.allreduce_id = 1;
      np.wire_bytes = p.wire_bytes();
      np.reduce = std::make_shared<const core::Packet>(std::move(p));
      topo.hosts[h]->send(std::move(np));
    };
    for (u32 h = 0; h < 3; ++h) send(h, 0);
    net.sim().run();
    for (u32 h = 0; h < 3; ++h) ASSERT_EQ(got[h], 1u) << h;

    send(1, core::kFlagRetransmit);  // host 1 timed out on block 0
    net.sim().run();
    const u32 want = recovery ? 2u : 1u;
    for (u32 h = 0; h < 3; ++h) {
      EXPECT_EQ(got[h], want) << "recovery=" << recovery << " host " << h;
    }
    EXPECT_EQ(sw->engine_stats(1)->duplicates_dropped, recovery ? 0u : 1u)
        << "recovery=" << recovery;
  }
}

// A switch crash or a recovery uninstall can land on the very picosecond at
// which the aggregation server hands a packet to the engine: scheduled after
// the server's hand-off event, the fault runs between the engine's dispatch
// event and its zero-cost on_ready event.  The engine's queued events must
// expire with the role: nothing is emitted for it, and nothing touches the
// destroyed engine (a heap-use-after-free under -DFLARE_SANITIZE=ON).  With
// one child the lone packet completes the block, so a surviving on_ready
// would also trip Switch::emit's "emit for an uninstalled allreduce".
TEST(SwitchReduce, EngineEventsExpireWithTheRole) {
  struct Policy {
    core::AggPolicy policy;
    u32 buffers;
  };
  for (const Policy p : {Policy{core::AggPolicy::kSingleBuffer, 1},
                         Policy{core::AggPolicy::kMultiBuffer, 2},
                         Policy{core::AggPolicy::kTree, 1}}) {
    for (const bool crash : {true, false}) {
      for (const u32 children : {1u, 2u}) {
        SCOPED_TRACE(std::string(core::policy_name(p.policy)) +
                     (crash ? " fail()" : " uninstall_reduce()") + " P=" +
                     std::to_string(children));
        Network net;
        auto topo = build_single_switch(net, 2);
        Switch* sw = topo.leaves[0];
        ReduceRole role;
        role.is_root = true;
        role.service_bps = 100e9;
        for (u32 h = 0; h < children; ++h) role.child_ports.push_back(h);
        core::AllreduceConfig cfg = reduce_cfg(1, children);
        cfg.policy = p.policy;
        cfg.num_buffers = p.buffers;
        ASSERT_TRUE(sw->install_reduce(cfg, std::move(role)));
        u32 results = 0;
        for (u32 h = 0; h < 2; ++h) {
          topo.hosts[h]->set_reduce_handler(
              1, [&results](const core::Packet&) { results += 1; });
        }

        std::vector<i32> data(8, 1);
        core::Packet pkt = core::make_dense_packet(1, 0, 0, data.data(), 8,
                                                   core::DType::kInt32);
        NetPacket np;
        np.kind = PacketKind::kReduceUp;
        np.allreduce_id = 1;
        np.wire_bytes = pkt.wire_bytes();
        np.reduce = std::make_shared<const core::Packet>(std::move(pkt));
        topo.hosts[0]->send(std::move(np));
        while (sw->reduce_packets_processed() == 0) {
          ASSERT_TRUE(net.sim().step());
        }
        net.sim().schedule_at(sw->role(1)->server_busy_until, [&] {
          if (crash) {
            sw->fail();
          } else {
            sw->uninstall_reduce(1);
          }
        });
        net.sim().run();
        EXPECT_EQ(sw->role(1), nullptr);
        EXPECT_EQ(results, 0u);
      }
    }
  }
}

TEST(SwitchReduce, AdmissionControlLimitsInstalls) {
  Network net;
  auto topo = build_single_switch(net, 2, LinkSpec{}, /*max_allreduces=*/2);
  Switch* sw = topo.leaves[0];
  for (u32 id = 1; id <= 2; ++id) {
    ReduceRole role;
    role.is_root = true;
    role.service_bps = 1e12;
    role.child_ports = {0, 1};
    EXPECT_TRUE(sw->install_reduce(reduce_cfg(id, 2), std::move(role)));
  }
  ReduceRole extra;
  extra.is_root = true;
  extra.service_bps = 1e12;
  extra.child_ports = {0, 1};
  EXPECT_FALSE(sw->can_install());
  EXPECT_FALSE(sw->install_reduce(reduce_cfg(3, 2), std::move(extra)));
  sw->uninstall_reduce(1);
  EXPECT_TRUE(sw->can_install());
}

TEST(SwitchReduce, OccupancyAccessorsAndGauge) {
  Network net;
  auto topo = build_single_switch(net, 2, LinkSpec{}, /*max_allreduces=*/4);
  Switch* sw = topo.leaves[0];
  EXPECT_EQ(sw->installed_reduces(), 0u);
  EXPECT_EQ(sw->free_slots(), 4u);

  for (u32 id = 1; id <= 3; ++id) {
    ReduceRole role;
    role.is_root = true;
    role.service_bps = 1e12;
    role.child_ports = {0, 1};
    ASSERT_TRUE(sw->install_reduce(reduce_cfg(id, 2), std::move(role)));
  }
  EXPECT_EQ(sw->installed_reduces(), 3u);
  EXPECT_EQ(sw->free_slots(), 1u);
  EXPECT_EQ(sw->occupancy().current(), 3u);
  EXPECT_EQ(sw->occupancy().high_water(), 3u);

  sw->uninstall_reduce(2);
  sw->uninstall_reduce(3);
  EXPECT_EQ(sw->installed_reduces(), 1u);
  EXPECT_EQ(sw->free_slots(), 3u);
  EXPECT_EQ(sw->occupancy().current(), 1u);
  // The high-water mark survives releases.
  EXPECT_EQ(sw->occupancy().high_water(), 3u);
  // Uninstalling an unknown id is a no-op, not an underflow.
  sw->uninstall_reduce(99);
  EXPECT_EQ(sw->installed_reduces(), 1u);
}

TEST(SwitchReduce, CalibratedServerSerializesProcessing) {
  // Two packets arriving together must be serviced back to back at the
  // calibrated rate, delaying the aggregated result accordingly.
  Network net;
  LinkSpec fast;
  fast.bandwidth_bps = 1e13;  // links much faster than the server
  fast.latency_ps = 0;
  auto topo = build_single_switch(net, 2, fast);
  Switch* sw = topo.leaves[0];
  ReduceRole role;
  role.is_root = true;
  role.service_bps = 1e9;  // 1 Gbps service -> clearly visible delays
  role.child_ports = {0, 1};
  ASSERT_TRUE(sw->install_reduce(reduce_cfg(1, 2), std::move(role)));
  SimTime done = 0;
  topo.hosts[0]->set_reduce_handler(
      1,
      [&](const core::Packet&) { done = net.sim().now(); });
  for (u32 h = 0; h < 2; ++h) {
    std::vector<i32> data(8, 1);
    core::Packet p = core::make_dense_packet(1, 0, static_cast<u16>(h),
                                             data.data(), 8,
                                             core::DType::kInt32);
    NetPacket np;
    np.kind = PacketKind::kReduceUp;
    np.allreduce_id = 1;
    np.wire_bytes = p.wire_bytes();
    np.reduce = std::make_shared<const core::Packet>(std::move(p));
    topo.hosts[h]->send(std::move(np));
  }
  net.sim().run();
  // Each packet is 96 wire bytes = 768 ns of service at 1 Gbps; the result
  // cannot appear before two service times.
  EXPECT_GE(done, 2 * serialization_ps(96, 1e9));
}

}  // namespace
}  // namespace flare::net
