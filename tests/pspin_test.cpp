// PsPIN unit simulator + single-switch experiment driver: scheduling
// (hierarchical FCFS core affinity, global FCFS), L2 accounting and drops,
// cold start, and end-to-end correctness/performance properties of
// run_single_switch across policies, dtypes, dense and sparse.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "pspin/experiment.hpp"
#include "pspin/unit.hpp"

namespace flare::pspin {
namespace {

PsPinConfig tiny_unit(u32 clusters = 2, u32 cores = 4, u32 subset = 2) {
  PsPinConfig cfg;
  cfg.n_clusters = clusters;
  cfg.cores_per_cluster = cores;
  cfg.subset_cores = subset;
  cfg.charge_cold_start = false;
  return cfg;
}

core::AllreduceConfig simple_allreduce(u32 id, u32 children,
                                       core::AggPolicy policy) {
  core::AllreduceConfig cfg;
  cfg.id = id;
  cfg.num_children = children;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 256;
  cfg.policy = policy;
  cfg.is_root = true;
  return cfg;
}

core::Packet test_packet(u32 id, u32 block, u16 child) {
  std::vector<i32> data(256, 1);
  return core::make_dense_packet(id, block, child, data.data(), 256,
                                 core::DType::kInt32);
}

TEST(PsPinUnit, UnmatchedPacketsCounted) {
  sim::Simulator sim(kCalendarOptions);
  PsPinUnit unit(sim, tiny_unit());
  unit.inject(test_packet(99, 0, 0), 0);
  sim.run();
  EXPECT_EQ(unit.packets_unmatched(), 1u);
  EXPECT_EQ(unit.handlers_run(), 0u);
}

TEST(PsPinUnit, HierarchicalFcfsPinsBlockToSubset) {
  // All packets of one block must run on the S cores of its subset.
  sim::Simulator sim(kCalendarOptions);
  PsPinConfig cfg = tiny_unit(/*clusters=*/2, /*cores=*/4, /*subset=*/2);
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 16, core::AggPolicy::kTree));
  for (u32 h = 0; h < 16; ++h) unit.inject(test_packet(1, 0, static_cast<u16>(h)), h);
  sim.run();
  // Block 0 -> subset 0 -> cores {0, 1} only.
  u64 on_subset = unit.core_handler_count(0) + unit.core_handler_count(1);
  EXPECT_EQ(on_subset, 16u);
  for (u32 c = 2; c < cfg.total_cores(); ++c)
    EXPECT_EQ(unit.core_handler_count(c), 0u);
}

TEST(PsPinUnit, GlobalFcfsSpreadsAcrossAllCores) {
  sim::Simulator sim(kCalendarOptions);
  PsPinConfig cfg = tiny_unit();
  cfg.scheduler = SchedulerKind::kGlobalFcfs;
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 16, core::AggPolicy::kTree));
  for (u32 h = 0; h < 16; ++h)
    unit.inject(test_packet(1, 0, static_cast<u16>(h)), 0);
  sim.run();
  u32 cores_used = 0;
  for (u32 c = 0; c < cfg.total_cores(); ++c)
    if (unit.core_handler_count(c) > 0) ++cores_used;
  EXPECT_GT(cores_used, 2u);
}

TEST(PsPinUnit, DifferentBlocksUseDifferentSubsets) {
  sim::Simulator sim(kCalendarOptions);
  PsPinConfig cfg = tiny_unit(2, 4, 2);  // 4 subsets
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 1, core::AggPolicy::kSingleBuffer));
  for (u32 b = 0; b < 4; ++b) unit.inject(test_packet(1, b, 0), b);
  sim.run();
  u32 cores_used = 0;
  for (u32 c = 0; c < cfg.total_cores(); ++c)
    if (unit.core_handler_count(c) > 0) ++cores_used;
  EXPECT_EQ(cores_used, 4u);  // one core of each of the 4 subsets
}

TEST(PsPinUnit, L2OverflowDropsPackets) {
  sim::Simulator sim(kCalendarOptions);
  PsPinConfig cfg = tiny_unit(1, 1, 1);  // one slow core
  cfg.l2_packet_bytes = 4 * 1088;       // room for ~4 wire packets
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 64, core::AggPolicy::kSingleBuffer));
  for (u32 h = 0; h < 64; ++h)
    unit.inject(test_packet(1, 0, static_cast<u16>(h)), 0);
  sim.run();
  EXPECT_GT(unit.packets_dropped(), 0u);
  EXPECT_LE(unit.l2_bytes().high_water(), cfg.l2_packet_bytes);
}

TEST(PsPinUnit, ColdStartDelaysFirstHandlerOnly) {
  auto run_with = [](bool cold) {
    sim::Simulator sim(kCalendarOptions);
    PsPinConfig cfg = tiny_unit(1, 1, 1);
    cfg.charge_cold_start = cold;
    PsPinUnit unit(sim, cfg);
    unit.install(simple_allreduce(1, 2, core::AggPolicy::kSingleBuffer));
    SimTime done_at = 0;
    unit.set_emit_hook(
        [&](const core::Packet&, SimTime when) { done_at = when; });
    unit.inject(test_packet(1, 0, 0), 0);
    unit.inject(test_packet(1, 0, 1), 0);
    sim.run();
    return done_at;
  };
  const SimTime cold = run_with(true);
  const SimTime warm = run_with(false);
  core::CostModel costs;
  EXPECT_EQ(cold - warm, costs.cold_start_cycles);
}

TEST(PsPinUnit, BusyCoresGaugeReturnsToZero) {
  sim::Simulator sim(kCalendarOptions);
  PsPinUnit unit(sim, tiny_unit());
  unit.install(simple_allreduce(1, 8, core::AggPolicy::kMultiBuffer));
  for (u32 h = 0; h < 8; ++h)
    unit.inject(test_packet(1, 0, static_cast<u16>(h)), h * 10);
  sim.run();
  EXPECT_EQ(unit.busy_cores().current(), 0u);
  EXPECT_GT(unit.busy_cores().high_water(), 0u);
  EXPECT_EQ(unit.l2_bytes().current(), 0u);
}

TEST(PsPinUnit, DuplicateInstallAborts) {
  sim::Simulator sim(kCalendarOptions);
  PsPinUnit unit(sim, tiny_unit());
  unit.install(simple_allreduce(1, 2, core::AggPolicy::kTree));
  EXPECT_DEATH(unit.install(simple_allreduce(1, 2, core::AggPolicy::kTree)),
               "already installed");
}

// ---------------------------------------------------------- experiments ---

SingleSwitchOptions small_exp(core::AggPolicy policy, u64 bytes = 64_KiB) {
  SingleSwitchOptions opt;
  opt.unit.n_clusters = 8;
  opt.unit.cores_per_cluster = 8;
  opt.unit.subset_cores = 8;
  opt.unit.charge_cold_start = false;
  opt.hosts = 4;
  opt.data_bytes = bytes;
  opt.policy = policy;
  opt.num_buffers = policy == core::AggPolicy::kMultiBuffer ? 2 : 1;
  opt.seed = 3;
  return opt;
}

class ExperimentPolicySweep
    : public ::testing::TestWithParam<core::AggPolicy> {};

TEST_P(ExperimentPolicySweep, DenseEndToEndCorrect) {
  SingleSwitchOptions opt = small_exp(GetParam());
  const SingleSwitchResult res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err
                           << " blocks=" << res.blocks_completed
                           << " drops=" << res.drops;
  EXPECT_EQ(res.blocks_completed, 64u);
  EXPECT_EQ(res.drops, 0u);
  EXPECT_GT(res.goodput_bps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExperimentPolicySweep,
                         ::testing::Values(core::AggPolicy::kSingleBuffer,
                                           core::AggPolicy::kMultiBuffer,
                                           core::AggPolicy::kTree));

class ExperimentDtypeSweep : public ::testing::TestWithParam<core::DType> {};

TEST_P(ExperimentDtypeSweep, DenseAllTypes) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 32_KiB);
  opt.dtype = GetParam();
  const SingleSwitchResult res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(Dtypes, ExperimentDtypeSweep,
                         ::testing::Values(core::DType::kInt8,
                                           core::DType::kInt16,
                                           core::DType::kInt32,
                                           core::DType::kInt64,
                                           core::DType::kFloat16,
                                           core::DType::kFloat32));

TEST(Experiment, MultiRoundSteadyState) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 16_KiB);
  opt.rounds = 4;
  const SingleSwitchResult res = run_single_switch(opt);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.blocks_completed, 64u);  // 16 blocks x 4 rounds
}

TEST(Experiment, StaggeredBeatsAlignedOnSingleBuffer) {
  // Section 5/6.1: staggered sending removes buffer contention for large
  // messages; aligned sending collapses the bandwidth.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 256_KiB);
  opt.arrivals = workload::ArrivalKind::kDeterministic;
  opt.order = core::SendOrder::kStaggered;
  const auto stag = run_single_switch(opt);
  opt.order = core::SendOrder::kAligned;
  opt.aggregate_ingest_bps = 0.0;  // re-derive pacing for aligned
  const auto aligned = run_single_switch(opt);
  ASSERT_TRUE(stag.correct);
  ASSERT_TRUE(aligned.correct);
  EXPECT_GT(stag.goodput_bps, 1.2 * aligned.goodput_bps);
  EXPECT_GT(aligned.cs_wait_mean_cycles, stag.cs_wait_mean_cycles);
}

TEST(Experiment, TreeInsensitiveToSendOrder) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 64_KiB);
  opt.arrivals = workload::ArrivalKind::kDeterministic;
  const auto stag = run_single_switch(opt);
  opt.order = core::SendOrder::kAligned;
  const auto aligned = run_single_switch(opt);
  ASSERT_TRUE(stag.correct && aligned.correct);
  const f64 ratio = aligned.goodput_bps / stag.goodput_bps;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Experiment, ReproducibleTreeChecksumStableAcrossArrivalOrders) {
  // F3: same data, different packet arrival jitter -> bitwise-identical
  // results with the reproducible (tree) configuration.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 32_KiB);
  opt.dtype = core::DType::kFloat32;
  opt.reproducible = true;
  opt.arrival_seed = 1001;
  const auto a = run_single_switch(opt);
  opt.arrival_seed = 2002;
  const auto b = run_single_switch(opt);
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_EQ(a.result_checksum, b.result_checksum);
}

TEST(Experiment, SingleBufferFloatChecksumArrivalDependent) {
  // Counterpart: without reproducibility the float sum order follows
  // arrivals, so checksums (almost surely) differ.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 32_KiB);
  opt.dtype = core::DType::kFloat32;
  opt.arrival_seed = 1001;
  const auto a = run_single_switch(opt);
  opt.arrival_seed = 2002;
  const auto b = run_single_switch(opt);
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_NE(a.result_checksum, b.result_checksum);
}

TEST(Experiment, SparseHashEndToEnd) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 64_KiB);
  opt.sparse = true;
  opt.dtype = core::DType::kFloat32;
  opt.density = 0.10;
  opt.index_overlap = 0.5;
  opt.hash_storage = true;
  const auto res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err
                           << " blocks=" << res.blocks_completed;
  EXPECT_GE(res.extra_traffic_pct, 0.0);
}

TEST(Experiment, SparseArrayEndToEnd) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 64_KiB);
  opt.sparse = true;
  opt.dtype = core::DType::kFloat32;
  opt.density = 0.10;
  opt.index_overlap = 0.5;
  opt.hash_storage = false;
  const auto res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err;
  // Array storage never spills -> no extra traffic (Figure 14).
  EXPECT_NEAR(res.extra_traffic_pct, 0.0, 1e-9);
}

TEST(Experiment, SparseArrayMemoryExceedsHash) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 64_KiB);
  opt.sparse = true;
  opt.density = 0.01;  // low density -> large span
  opt.index_overlap = 0.8;
  opt.hash_storage = false;
  const auto arr = run_single_switch(opt);
  opt.hash_storage = true;
  const auto hash = run_single_switch(opt);
  ASSERT_TRUE(arr.correct && hash.correct);
  EXPECT_GT(arr.block_mem_mean_bytes, hash.block_mem_mean_bytes);
}

// Every policy's cycle timing, pinned: any drift in when an engine charges,
// waits, merges or emits moves a makespan, a mean spin time or (fp32, whose
// sum depends on the combine order) a checksum.  The literals are the
// simulator's own output on this small seeded unit (8 hosts, fp32, 64 KiB).
TEST(Experiment, PolicyTimingsPinned) {
  struct Pin {
    const char* name;
    u64 makespan_cycles;
    f64 cs_wait_mean_cycles;
    u64 result_checksum;
    u64 emitted_wire_bytes;
    u64 blocks_completed;
  };
  const auto dense = [](core::AggPolicy policy, u32 buffers,
                        core::SendOrder order) {
    SingleSwitchOptions opt = small_exp(policy);
    opt.hosts = 8;
    opt.dtype = core::DType::kFloat32;
    opt.num_buffers = buffers;
    opt.order = order;
    return opt;
  };
  const auto sparse = [&](bool hash_storage) {
    SingleSwitchOptions opt =
        dense(core::AggPolicy::kSingleBuffer, 1, core::SendOrder::kStaggered);
    opt.sparse = true;
    opt.density = 0.10;
    opt.index_overlap = 0.5;
    opt.hash_storage = hash_storage;
    return opt;
  };
  using core::AggPolicy;
  constexpr auto kAligned = core::SendOrder::kAligned;
  constexpr auto kStaggered = core::SendOrder::kStaggered;
  SingleSwitchOptions remote = dense(AggPolicy::kSingleBuffer, 1, kStaggered);
  remote.unit.scheduler = SchedulerKind::kGlobalFcfs;  // remote_l1 buffers
  const std::vector<std::pair<SingleSwitchOptions, Pin>> cases = {
      {dense(AggPolicy::kSingleBuffer, 1, kAligned),
       {"single aligned", 45325, 371.20117187499994, 0xbdd0b0affc9bff94ull,
        69632, 64}},
      {dense(AggPolicy::kSingleBuffer, 1, kStaggered),
       {"single staggered", 12563, 203.04101562499972, 0xc0d37494c19d245aull,
        69632, 64}},
      {dense(AggPolicy::kMultiBuffer, 2, kAligned),
       {"multi2 aligned", 47100, 28.501953125000007, 0x63935aaf14340025ull,
        69632, 64}},
      {dense(AggPolicy::kMultiBuffer, 2, kStaggered),
       {"multi2 staggered", 13309, 2.3847656250000004, 0xd6293e85095dbcfcull,
        69632, 64}},
      {dense(AggPolicy::kMultiBuffer, 4, kAligned),
       {"multi4 aligned", 49505, 0.0, 0xe722146a1f0b3dddull, 69632, 64}},
      {dense(AggPolicy::kMultiBuffer, 4, kStaggered),
       {"multi4 staggered", 16026, 0.0, 0xd5ec229401f9cd98ull, 69632, 64}},
      {dense(AggPolicy::kTree, 1, kAligned),
       {"tree aligned", 13795, 0.0, 0x0164ddf1be84d850ull, 69632, 64}},
      {dense(AggPolicy::kTree, 1, kStaggered),
       {"tree staggered", 14854, 0.0, 0x0164ddf1be84d850ull, 69632, 64}},
      {remote,
       {"single remote_l1", 257690, 6209.5742187500018,
        0xc0d37494c19d245aull, 69632, 64}},
      {sparse(true),
       {"sparse hash", 20819, 3786.0794701986752, 0x09593d678862c755ull,
        57384, 13}},
      {sparse(false),
       {"sparse array", 16984, 2720.9801324503301, 0x468b084e1d08b85cull,
        54472, 13}},
  };
  for (const auto& [opt, pin] : cases) {
    SCOPED_TRACE(pin.name);
    const SingleSwitchResult res = run_single_switch(opt);
    EXPECT_TRUE(res.correct);
    EXPECT_EQ(res.makespan_cycles, pin.makespan_cycles);
    EXPECT_DOUBLE_EQ(res.cs_wait_mean_cycles, pin.cs_wait_mean_cycles);
    EXPECT_EQ(res.result_checksum, pin.result_checksum);
    EXPECT_EQ(res.emitted_wire_bytes, pin.emitted_wire_bytes);
    EXPECT_EQ(res.blocks_completed, pin.blocks_completed);
  }
}

TEST(Experiment, HierarchicalSchedulingBeatsGlobal) {
  // Section 5: global FCFS pays remote-L1 penalties on most aggregations.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 128_KiB);
  const auto local = run_single_switch(opt);
  opt.unit.scheduler = SchedulerKind::kGlobalFcfs;
  opt.unit.subset_cores = opt.unit.cores_per_cluster;
  const auto remote = run_single_switch(opt);
  ASSERT_TRUE(local.correct && remote.correct);
  EXPECT_GT(local.goodput_bps, 2.0 * remote.goodput_bps);
}

TEST(Experiment, InputBufferStaysWithinL2) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 128_KiB);
  const auto res = run_single_switch(opt);
  ASSERT_TRUE(res.correct);
  EXPECT_LE(res.input_buffer_hwm_bytes, opt.unit.l2_packet_bytes);
  EXPECT_EQ(res.drops, 0u);
}

TEST(Experiment, CalendarGeometryFitsTheCycleTick) {
  // The paper's unit (512 cores) with 16 hosts reducing 1 MiB int32: with
  // the picosecond default geometry a push into the bucket being drained
  // shifts ~475 queued events on average; kCalendarOptions' 16-cycle slots
  // keep that to ~16.
  SingleSwitchOptions opt;
  opt.hosts = 16;
  const auto res = run_single_switch(opt);
  ASSERT_TRUE(res.correct);
  ASSERT_GT(res.calendar_drain_inserts, 0u);
  EXPECT_LT(res.calendar_drain_shifted, 32 * res.calendar_drain_inserts)
      << res.calendar_drain_shifted << " events shifted by "
      << res.calendar_drain_inserts << " inserts";
}

}  // namespace
}  // namespace flare::pspin
