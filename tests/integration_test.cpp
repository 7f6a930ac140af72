// Cross-module integration tests:
//  * failure injection: packet loss + host retransmission through the PsPIN
//    unit; duplicate storms; interleaved concurrent allreduces;
//  * model-vs-simulator consistency (the Section 6 closed forms against the
//    discrete-event unit);
//  * the Section 8 extension collectives (barrier, broadcast);
//  * end-to-end reproducibility on the network simulator.
#include <gtest/gtest.h>

#include <memory>

#include "coll/communicator.hpp"
#include "model/policies.hpp"
#include "pspin/experiment.hpp"
#include "pspin/unit.hpp"
#include "workload/generators.hpp"

namespace flare {
namespace {

// ------------------------------------------------ loss + retransmission ---

core::AllreduceConfig unit_allreduce(u32 id, u32 children,
                                     core::AggPolicy policy) {
  core::AllreduceConfig cfg;
  cfg.id = id;
  cfg.num_children = children;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 64;
  cfg.policy = policy;
  cfg.is_root = true;
  return cfg;
}

class LossRecovery : public ::testing::TestWithParam<core::AggPolicy> {};

TEST_P(LossRecovery, DroppedPacketRecoveredByRetransmission) {
  // Host 2's packet is "lost" (never injected); its retransmission arrives
  // after a timeout.  Meanwhile an unrelated duplicate of host 0 also shows
  // up.  The block must complete exactly once with the right value.
  sim::Simulator sim(pspin::kCalendarOptions);
  pspin::PsPinConfig ucfg;
  ucfg.n_clusters = 2;
  ucfg.cores_per_cluster = 4;
  ucfg.subset_cores = 4;
  ucfg.charge_cold_start = false;
  pspin::PsPinUnit unit(sim, ucfg);
  const u32 P = 4;
  unit.install(unit_allreduce(1, P, GetParam()));

  Rng rng(5);
  auto data = workload::make_dense_data(P, 64, core::DType::kInt32, 5);
  const core::ReduceOp sum(core::OpKind::kSum);
  const core::TypedBuffer expected = core::reference_reduce(data, sum);

  u32 results = 0;
  core::TypedBuffer got(core::DType::kInt32, 64);
  unit.set_emit_hook([&](const core::Packet& pkt, SimTime) {
    results += 1;
    std::memcpy(got.data(), pkt.payload.data(), pkt.payload.size());
  });

  auto packet_for = [&](u32 h, bool retx) {
    core::Packet p = core::make_dense_packet(
        1, 0, static_cast<u16>(h), data[h].data(), 64, core::DType::kInt32);
    if (retx) p.hdr.flags |= core::kFlagRetransmit;
    return p;
  };
  for (u32 h = 0; h < P; ++h) {
    if (h == 2) continue;  // lost on the wire
    unit.inject(packet_for(h, false), 10 * (h + 1));
  }
  unit.inject(packet_for(0, true), 500);       // spurious duplicate
  unit.inject(packet_for(2, true), 100000);    // timeout retransmission
  sim.run();

  EXPECT_EQ(results, 1u);
  EXPECT_EQ(got.count_mismatches(expected), 0u);
  EXPECT_GE(unit.find(1)->stats().duplicates_dropped, 1u);
}

INSTANTIATE_TEST_SUITE_P(Policies, LossRecovery,
                         ::testing::Values(core::AggPolicy::kSingleBuffer,
                                           core::AggPolicy::kMultiBuffer,
                                           core::AggPolicy::kTree));

TEST(Integration, DuplicateStormIsIdempotent) {
  // Every packet retransmitted 4x in a burst: still exactly one result.
  sim::Simulator sim(pspin::kCalendarOptions);
  pspin::PsPinConfig ucfg;
  ucfg.n_clusters = 2;
  ucfg.cores_per_cluster = 4;
  ucfg.subset_cores = 4;
  ucfg.charge_cold_start = false;
  pspin::PsPinUnit unit(sim, ucfg);
  const u32 P = 4;
  unit.install(unit_allreduce(1, P, core::AggPolicy::kSingleBuffer));
  auto data = workload::make_dense_data(P, 64, core::DType::kInt32, 6);
  const core::TypedBuffer expected =
      core::reference_reduce(data, core::ReduceOp(core::OpKind::kSum));

  u32 results = 0;
  core::TypedBuffer got(core::DType::kInt32, 64);
  unit.set_emit_hook([&](const core::Packet& pkt, SimTime) {
    results += 1;
    std::memcpy(got.data(), pkt.payload.data(), pkt.payload.size());
  });
  for (u32 copy = 0; copy < 4; ++copy) {
    for (u32 h = 0; h < P; ++h) {
      core::Packet p = core::make_dense_packet(1, 0, static_cast<u16>(h),
                                               data[h].data(), 64,
                                               core::DType::kInt32);
      if (copy > 0) p.hdr.flags |= core::kFlagRetransmit;
      unit.inject(std::move(p), copy * 3 + h);
    }
  }
  sim.run();
  EXPECT_EQ(results, 1u);
  EXPECT_EQ(got.count_mismatches(expected), 0u);
  EXPECT_EQ(unit.find(1)->stats().duplicates_dropped, 3u * P);
}

TEST(Integration, ConcurrentAllreducesShareTheUnit) {
  // Two tenants with different dtypes/policies interleave packets on one
  // switch (Section 4: per-allreduce ids and partitioned state).
  sim::Simulator sim(pspin::kCalendarOptions);
  pspin::PsPinConfig ucfg;
  ucfg.n_clusters = 4;
  ucfg.charge_cold_start = false;
  pspin::PsPinUnit unit(sim, ucfg);
  const u32 P = 4;
  unit.install(unit_allreduce(1, P, core::AggPolicy::kSingleBuffer));
  core::AllreduceConfig cfg2 = unit_allreduce(2, P, core::AggPolicy::kTree);
  cfg2.dtype = core::DType::kFloat32;
  unit.install(cfg2);

  auto d1 = workload::make_dense_data(P, 64, core::DType::kInt32, 7);
  auto d2 = workload::make_dense_data(P, 64, core::DType::kFloat32, 8);
  const core::ReduceOp sum(core::OpKind::kSum);
  const auto e1 = core::reference_reduce(d1, sum);
  const auto e2 = core::reference_reduce(d2, sum);

  core::TypedBuffer g1(core::DType::kInt32, 64),
      g2(core::DType::kFloat32, 64);
  unit.set_emit_hook([&](const core::Packet& pkt, SimTime) {
    auto& dst = pkt.hdr.allreduce_id == 1 ? g1 : g2;
    std::memcpy(dst.data(), pkt.payload.data(), pkt.payload.size());
  });
  for (u32 h = 0; h < P; ++h) {
    unit.inject(core::make_dense_packet(1, 0, static_cast<u16>(h),
                                        d1[h].data(), 64,
                                        core::DType::kInt32),
                2 * h);
    unit.inject(core::make_dense_packet(2, 0, static_cast<u16>(h),
                                        d2[h].data(), 64,
                                        core::DType::kFloat32),
                2 * h + 1);
  }
  sim.run();
  EXPECT_EQ(g1.count_mismatches(e1), 0u);
  EXPECT_LE(g2.max_abs_diff(e2), 1e-3);
}

// ----------------------------------------------------- model vs DES -------

class ModelVsSim : public ::testing::TestWithParam<u64> {};

TEST_P(ModelVsSim, TreeBandwidthWithinFactorTwo) {
  // The closed forms drive the figure generators; the DES is the ground
  // truth.  They must agree to within 2x across sizes for the
  // contention-free tree policy.
  const u64 z = GetParam();
  pspin::SingleSwitchOptions opt;
  opt.unit.n_clusters = 16;
  opt.unit.charge_cold_start = false;
  opt.hosts = 16;
  opt.data_bytes = z;
  opt.dtype = core::DType::kFloat32;
  opt.policy = core::AggPolicy::kTree;
  opt.rounds = z <= 64_KiB ? 4 : 1;
  opt.arrivals = workload::ArrivalKind::kDeterministic;
  const auto res = pspin::run_single_switch(opt);
  ASSERT_TRUE(res.correct);

  model::SwitchParams sp;
  sp.cores = opt.unit.total_cores();
  sp.cold_start = false;
  const f64 modeled =
      model::evaluate(sp, core::AggPolicy::kTree, 1, z).bandwidth_bps;
  const f64 ratio = res.goodput_bps / modeled;
  EXPECT_GT(ratio, 0.5) << "sim " << res.goodput_bps << " model " << modeled;
  EXPECT_LT(ratio, 2.0) << "sim " << res.goodput_bps << " model " << modeled;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ModelVsSim,
                         ::testing::Values(32_KiB, 128_KiB, 512_KiB));

// --------------------------------------------- extension collectives ------

TEST(OtherCollectives, BarrierReleasesEveryHost) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  coll::CollectiveOptions desc;
  desc.kind = coll::CollectiveKind::kBarrier;
  coll::Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  EXPECT_TRUE(res.ok);
  EXPECT_GT(res.completion_seconds, 0.0);
  // A barrier moves only empty packets: header-sized traffic.
  EXPECT_LT(res.total_traffic_bytes, 16u * 10 * 2 * core::kPacketWireOverhead);
}

TEST(OtherCollectives, BroadcastDeliversRootVector) {
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  coll::CollectiveOptions desc;
  desc.kind = coll::CollectiveKind::kBroadcast;
  desc.root = 3;
  desc.data_bytes = 32_KiB;
  coll::Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  EXPECT_TRUE(res.ok) << res.max_abs_err;
}

TEST(OtherCollectives, BroadcastFromEveryRoot) {
  for (u32 root = 0; root < 4; ++root) {
    net::Network net;
    auto topo = net::build_single_switch(net, 4);
    coll::CollectiveOptions desc;
    desc.kind = coll::CollectiveKind::kBroadcast;
    desc.root = root;
    desc.data_bytes = 4_KiB;
    coll::Communicator comm(net, topo.hosts);
    const auto res = comm.run(desc);
    EXPECT_TRUE(res.ok) << "root " << root;
  }
}

// -------------------------------------------- end-to-end reproducibility --

TEST(Integration, FatTreeReproducibleAcrossSendOrders) {
  // Same data, different packet interleavings (aligned vs staggered):
  // reproducible mode must produce identical numerical results (checked
  // through the max-error against the same fp32 reference: both runs land
  // on the same side of every rounding).
  auto run = [&](core::SendOrder order, bool reproducible) {
    net::Network net;
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    auto topo = net::build_fat_tree(net, spec);
    coll::CollectiveOptions desc;
    desc.algorithm = coll::Algorithm::kFlareDense;
    desc.data_bytes = 32_KiB;
    desc.order = order;
    desc.reproducible = reproducible;
    desc.seed = 99;
    coll::Communicator comm(net, topo.hosts);
    return comm.run(desc);
  };
  const auto a = run(core::SendOrder::kAligned, true);
  const auto b = run(core::SendOrder::kStaggered, true);
  ASSERT_TRUE(a.ok && b.ok);
  // The tree's combine order is pinned by child index, so the deviation
  // from the serial reference is identical bit-for-bit.
  EXPECT_EQ(a.max_abs_err, b.max_abs_err);
}

TEST(Integration, WindowLimitsSwitchWorkingMemory) {
  // Aligned sending with a window of W blocks: the switch never holds more
  // than ~W blocks of working memory.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 128_KiB;
  desc.order = core::SendOrder::kAligned;
  desc.window_blocks = 4;
  desc.auto_policy = false;
  desc.policy = core::AggPolicy::kSingleBuffer;
  coll::Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  ASSERT_TRUE(res.ok);
  // Single-buffer policy: one packet-sized buffer per in-flight block, and
  // at most window (+1 in completion hand-off) blocks are ever open.
  EXPECT_LE(res.switch_working_mem_hwm, (desc.window_blocks + 1) * 1024u);
  EXPECT_GT(res.switch_working_mem_hwm, 0u);
}

// ----------------------------------------------------------- multi-tenant -

TEST(MultiTenant, ConcurrentAllreducesOnSharedFatTree) {
  // Section 4: "each switch can participate simultaneously in different
  // allreduces" — three Communicator sessions with different participant
  // groups, sizes and dtypes overlap on one calendar; all must be exact.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);

  coll::Communicator all(net, topo.hosts);
  coll::Communicator left(
      net, {topo.hosts.begin(), topo.hosts.begin() + 8});
  coll::Communicator right(
      net, {topo.hosts.begin() + 8, topo.hosts.end()});

  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  std::vector<coll::CollectiveHandle> handles;
  desc.data_bytes = 64_KiB;
  desc.dtype = core::DType::kFloat32;
  desc.seed = 1;
  handles.push_back(all.start(desc));
  desc.data_bytes = 16_KiB;
  desc.dtype = core::DType::kInt32;
  desc.seed = 2;
  handles.push_back(left.start(desc));
  desc.data_bytes = 32_KiB;
  desc.dtype = core::DType::kInt64;
  desc.seed = 3;
  handles.push_back(right.start(desc));

  net.sim().run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].done()) << "tenant " << i;
    EXPECT_TRUE(handles[i].result().ok)
        << "tenant " << i << " err " << handles[i].result().max_abs_err;
  }
}

TEST(MultiTenant, SharedSwitchSlowerThanExclusive) {
  // Two full-fabric tenants share every switch's aggregation server: each
  // tenant must finish no faster than it would alone.
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 128_KiB;

  net::Network net_solo;
  auto topo_solo = net::build_single_switch(net_solo, 8);
  coll::Communicator comm_solo(net_solo, topo_solo.hosts);
  const auto solo = comm_solo.run(desc);
  ASSERT_TRUE(solo.ok);

  net::Network net_shared;
  auto topo_shared = net::build_single_switch(net_shared, 8);
  coll::Communicator c1(net_shared, topo_shared.hosts);
  coll::Communicator c2(net_shared, topo_shared.hosts);
  auto h1 = c1.start(desc);
  desc.seed = 77;
  auto h2 = c2.start(desc);
  net_shared.sim().run();
  ASSERT_TRUE(h1.done() && h2.done());
  ASSERT_TRUE(h1.result().ok && h2.result().ok);
  EXPECT_GE(h1.result().completion_seconds, solo.completion_seconds);
  EXPECT_GE(h2.result().completion_seconds, solo.completion_seconds);
}

TEST(MultiTenant, AdmissionRejectsBeyondPartition) {
  // max_allreduces = 2: the third concurrent tenant must be rejected and
  // reported as ok == false while the first two complete.
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{},
                                       /*max_allreduces=*/2);
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 8_KiB;
  std::vector<std::unique_ptr<coll::Communicator>> comms;
  std::vector<coll::CollectiveHandle> handles;
  for (u32 i = 0; i < 3; ++i) {
    comms.push_back(std::make_unique<coll::Communicator>(net, topo.hosts));
    handles.push_back(comms.back()->start(desc));
  }
  // The rejected tenant's handle completes immediately (ok == false).
  EXPECT_TRUE(handles[2].done());
  net.sim().run();
  EXPECT_TRUE(handles[0].result().ok);
  EXPECT_TRUE(handles[1].result().ok);
  EXPECT_FALSE(handles[2].result().ok);  // paper: fall back to host-based
}

}  // namespace
}  // namespace flare
