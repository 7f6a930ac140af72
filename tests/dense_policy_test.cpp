// Behavioural tests of the three dense aggregation policies driven through
// a mock EngineHost with an unbounded number of "cores" (every process()
// call is a concurrently-running handler).
//
// Covers: functional correctness across {policy x dtype x op x P} under
// randomized arrival times, bitwise reproducibility of the tree policy (F3),
// retransmission idempotence, critical-section serialization timing,
// multi-buffer merge behaviour, tree no-wait property, ragged last blocks,
// buffer-pool lifecycle, and multi-block interleaving.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "core/allreduce_engine.hpp"
#include "core/typed_buffer.hpp"

namespace flare::core {
namespace {

class TestHost : public EngineHost {
 public:
  sim::Simulator& simulator() override { return sim; }
  const CostModel& costs() override { return cost; }
  void emit(Packet&& pkt, SimTime when) override {
    emitted.emplace_back(std::move(pkt), when);
  }

  sim::Simulator sim;
  CostModel cost;
  std::vector<std::pair<Packet, SimTime>> emitted;
};

AllreduceConfig base_config(u32 children, AggPolicy policy, u32 buffers = 1,
                            DType dtype = DType::kInt32,
                            OpKind op = OpKind::kSum, u32 elems = 256) {
  AllreduceConfig cfg;
  cfg.id = 1;
  cfg.num_children = children;
  cfg.dtype = dtype;
  cfg.op = ReduceOp(op);
  cfg.elems_per_packet = elems;
  cfg.policy = policy;
  cfg.num_buffers = buffers;
  cfg.is_root = true;
  return cfg;
}

/// Runs one block through the engine with the given per-child arrival times;
/// returns the single emitted result packet.
struct RunResult {
  Packet result;
  SimTime emit_time = 0;
  std::vector<SimTime> handler_ends;
  EngineStats stats;
  u64 pool_in_use_after = 0;
  u64 pool_high_water = 0;
};

RunResult run_one_block(const AllreduceConfig& cfg,
                        const std::vector<TypedBuffer>& data,
                        const std::vector<SimTime>& arrivals) {
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  RunResult rr;
  for (u32 h = 0; h < data.size(); ++h) {
    Packet p = make_dense_packet(cfg.id, /*block=*/0, static_cast<u16>(h),
                                 data[h].data(),
                                 static_cast<u32>(data[h].size()), cfg.dtype);
    host.sim.schedule_at(arrivals[h], [&engine, p = std::move(p), &rr]() mutable {
      engine.process(std::make_shared<const Packet>(std::move(p)),
                     [&rr](SimTime end) { rr.handler_ends.push_back(end); });
    });
  }
  host.sim.run();
  EXPECT_EQ(host.emitted.size(), 1u);
  if (!host.emitted.empty()) {
    rr.result = std::move(host.emitted.front().first);
    rr.emit_time = host.emitted.front().second;
  }
  rr.stats = engine.stats();
  rr.pool_in_use_after = engine.pool().in_use();
  rr.pool_high_water = engine.pool().high_water();
  return rr;
}

// ------------------------------------------------- parameterized sweep ----

struct SweepParam {
  AggPolicy policy;
  u32 buffers;
  u32 children;
  DType dtype;
  OpKind op;
};

class PolicySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicySweep, ReducesCorrectlyUnderRandomArrivals) {
  const SweepParam prm = GetParam();
  ReduceOp op(prm.op);
  if (!op.supports(prm.dtype)) GTEST_SKIP();
  Rng rng(derive_seed(1234, static_cast<u64>(prm.children) * 100 +
                                static_cast<u64>(prm.dtype) * 10 +
                                static_cast<u64>(prm.op)));
  std::vector<TypedBuffer> data;
  for (u32 h = 0; h < prm.children; ++h) {
    TypedBuffer b(prm.dtype, 64);
    b.fill_random(rng, 1.0, 4.0);  // positive, small: stable for prod too
    data.push_back(std::move(b));
  }
  std::vector<SimTime> arrivals;
  for (u32 h = 0; h < prm.children; ++h)
    arrivals.push_back(rng.uniform_u64(5000));

  AllreduceConfig cfg = base_config(prm.children, prm.policy, prm.buffers,
                                    prm.dtype, prm.op, 64);
  RunResult rr = run_one_block(cfg, data, arrivals);
  ASSERT_EQ(rr.result.hdr.elem_count, 64u);

  const TypedBuffer expected = reference_reduce(data, op);
  TypedBuffer got(prm.dtype, 64);
  std::memcpy(got.data(), rr.result.payload.data(),
              rr.result.payload.size());
  if (dtype_is_float(prm.dtype)) {
    const f64 tol = prm.dtype == DType::kFloat16 ? 0.5 : 1e-3;
    EXPECT_LE(got.max_abs_diff(expected), tol);
  } else {
    EXPECT_EQ(got.count_mismatches(expected), 0u);
  }
  EXPECT_EQ(rr.stats.blocks_completed, 1u);
  EXPECT_EQ(rr.stats.packets_in, prm.children);
  EXPECT_EQ(rr.pool_in_use_after, 0u) << "working memory must be released";
}

std::vector<SweepParam> make_sweep() {
  std::vector<SweepParam> out;
  const struct {
    AggPolicy p;
    u32 b;
  } policies[] = {{AggPolicy::kSingleBuffer, 1},
                  {AggPolicy::kMultiBuffer, 2},
                  {AggPolicy::kMultiBuffer, 4},
                  {AggPolicy::kTree, 1}};
  for (const auto& pol : policies) {
    for (const u32 children : {1u, 2u, 3u, 5u, 8u, 16u}) {
      for (const DType t : {DType::kInt32, DType::kFloat32}) {
        for (const OpKind k : {OpKind::kSum, OpKind::kMax}) {
          out.push_back({pol.p, pol.b, children, t, k});
        }
      }
    }
  }
  // Extra dtype coverage on the default policy mix.
  for (const DType t :
       {DType::kInt8, DType::kInt16, DType::kInt64, DType::kFloat16}) {
    out.push_back({AggPolicy::kSingleBuffer, 1, 4, t, OpKind::kSum});
    out.push_back({AggPolicy::kTree, 1, 4, t, OpKind::kSum});
    out.push_back({AggPolicy::kMultiBuffer, 2, 4, t, OpKind::kSum});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolicySweep, ::testing::ValuesIn(make_sweep()));

// ISSUE 8 identity-bug regression: the aggregation buffer is seeded with
// fill_identity, so a FLT_MAX/-FLT_MAX "identity" silently clips ±inf
// inputs in the first combine.  Reduce buffers CONTAINING infinities with
// min/max through every policy and demand the infinities survive.
TEST(PolicyIdentity, InfinityValuesSurviveFloatMinMax) {
  const f64 pinf = std::numeric_limits<f64>::infinity();
  for (const AggPolicy policy :
       {AggPolicy::kSingleBuffer, AggPolicy::kMultiBuffer, AggPolicy::kTree}) {
    for (const DType t : {DType::kFloat32, DType::kFloat16}) {
      for (const OpKind k : {OpKind::kMin, OpKind::kMax}) {
        const u32 P = 5;
        Rng rng(derive_seed(4, static_cast<u64>(policy) * 10 +
                                   static_cast<u64>(k)));
        std::vector<TypedBuffer> data;
        for (u32 h = 0; h < P; ++h) {
          TypedBuffer b(t, 16);
          b.fill_random(rng, -4.0, 4.0);
          data.push_back(std::move(b));
        }
        // Element 3 sees a +inf, element 7 a -inf (from different hosts).
        data[1].set_from_f64(3, pinf);
        data[4].set_from_f64(7, -pinf);
        std::vector<SimTime> arrivals;
        for (u32 h = 0; h < P; ++h) arrivals.push_back(rng.uniform_u64(4000));

        AllreduceConfig cfg = base_config(
            P, policy, policy == AggPolicy::kMultiBuffer ? 2 : 1, t, k, 16);
        RunResult rr = run_one_block(cfg, data, arrivals);
        TypedBuffer got(t, 16);
        ASSERT_EQ(rr.result.payload.size(), got.size_bytes());
        std::memcpy(got.data(), rr.result.payload.data(),
                    rr.result.payload.size());
        if (k == OpKind::kMax) {
          EXPECT_EQ(got.get_as_f64(3), pinf)
              << "policy=" << static_cast<int>(policy)
              << " dtype=" << dtype_name(t);
        } else {
          EXPECT_EQ(got.get_as_f64(7), -pinf)
              << "policy=" << static_cast<int>(policy)
              << " dtype=" << dtype_name(t);
        }
        // Every other element must match the plain reference fold.
        const TypedBuffer expected = reference_reduce(data, ReduceOp(k));
        for (std::size_t i = 0; i < 16; ++i) {
          EXPECT_EQ(got.get_as_f64(i), expected.get_as_f64(i)) << "elem " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------- reproducibility --

TEST(TreePolicy, BitwiseReproducibleAcrossArrivalOrders) {
  // F3: floating-point sum through the tree must be bitwise identical for
  // ANY arrival permutation, because the combine association is fixed.
  const u32 P = 7;
  Rng rng(77);
  std::vector<TypedBuffer> data;
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer b(DType::kFloat32, 32);
    // Mix magnitudes so float addition is strongly order-dependent.
    for (std::size_t i = 0; i < 32; ++i)
      b.set_from_f64(i, rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-6, 6)));
    data.push_back(std::move(b));
  }
  AllreduceConfig cfg =
      base_config(P, AggPolicy::kTree, 1, DType::kFloat32, OpKind::kSum, 32);

  std::vector<PayloadVec> payloads;
  for (u64 perm = 0; perm < 8; ++perm) {
    Rng arr(derive_seed(500, perm));
    std::vector<SimTime> arrivals;
    for (u32 h = 0; h < P; ++h) arrivals.push_back(arr.uniform_u64(10000));
    RunResult rr = run_one_block(cfg, data, arrivals);
    payloads.push_back(rr.result.payload);
  }
  for (std::size_t i = 1; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], payloads[0]) << "permutation " << i;
  }
}

TEST(SingleBufferPolicy, FloatSumOrderDependsOnArrival) {
  // The flip side of F3: the commutative single-buffer path aggregates in
  // arrival order, so adversarial magnitudes give different bit patterns.
  const u32 P = 6;
  Rng rng(78);
  std::vector<TypedBuffer> data;
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer b(DType::kFloat32, 16);
    for (std::size_t i = 0; i < 16; ++i)
      b.set_from_f64(i, rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-6, 6)));
    data.push_back(std::move(b));
  }
  AllreduceConfig cfg = base_config(P, AggPolicy::kSingleBuffer, 1,
                                    DType::kFloat32, OpKind::kSum, 16);
  std::vector<SimTime> fwd, rev;
  for (u32 h = 0; h < P; ++h) {
    fwd.push_back(1000 * h);
    rev.push_back(1000 * (P - h));
  }
  RunResult a = run_one_block(cfg, data, fwd);
  RunResult b = run_one_block(cfg, data, rev);
  EXPECT_NE(a.result.payload, b.result.payload)
      << "expected order-dependent rounding (this can very rarely collide; "
         "the data is chosen adversarially)";
}

// -------------------------------------------------------- retransmission --

class RetransmitTest : public ::testing::TestWithParam<AggPolicy> {};

TEST_P(RetransmitTest, DuplicatesAreNotAggregatedTwice) {
  const AggPolicy policy = GetParam();
  const u32 P = 4;
  Rng rng(91);
  std::vector<TypedBuffer> data;
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer b(DType::kInt32, 16);
    b.fill_random(rng);
    data.push_back(std::move(b));
  }
  AllreduceConfig cfg =
      base_config(P, policy, 2, DType::kInt32, OpKind::kSum, 16);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  u32 handler_count = 0;
  auto inject = [&](u32 h, SimTime at) {
    Packet p = make_dense_packet(cfg.id, 0, static_cast<u16>(h),
                                 data[h].data(), 16, cfg.dtype);
    if (at > 2000) p.hdr.flags |= kFlagRetransmit;
    host.sim.schedule_at(at, [&engine, p = std::move(p), &handler_count]() mutable {
      engine.process(std::make_shared<const Packet>(std::move(p)),
                     [&handler_count](SimTime) { ++handler_count; });
    });
  };
  // Child 1's packet "times out" and is retransmitted mid-flight; child 2's
  // duplicate arrives even after the block completed.
  for (u32 h = 0; h < P; ++h) inject(h, 100 * (h + 1));
  inject(1, 2500);
  inject(2, 500000);
  host.sim.run();

  ASSERT_EQ(host.emitted.size(), 1u);
  EXPECT_EQ(engine.stats().duplicates_dropped, 2u);
  EXPECT_EQ(handler_count, P + 2);
  TypedBuffer got(DType::kInt32, 16);
  std::memcpy(got.data(), host.emitted[0].first.payload.data(), 64);
  const TypedBuffer expected = reference_reduce(data, cfg.op);
  EXPECT_EQ(got.count_mismatches(expected), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RetransmitTest,
                         ::testing::Values(AggPolicy::kSingleBuffer,
                                           AggPolicy::kMultiBuffer,
                                           AggPolicy::kTree));

// ------------------------------------------------------------ timing -----

TEST(SingleBufferPolicy, SimultaneousPacketsSerialize) {
  // Two packets arriving together: the second must wait out the first's
  // critical section (Section 6.1, the red box in Figure 6).
  const u32 P = 2;
  std::vector<TypedBuffer> data(2, TypedBuffer(DType::kFloat32, 256));
  AllreduceConfig cfg = base_config(P, AggPolicy::kSingleBuffer);
  RunResult rr = run_one_block(cfg, data, {0, 0});
  ASSERT_EQ(rr.handler_ends.size(), 2u);
  TestHost cost_probe;
  const u64 lagg =
      cost_probe.cost.aggregation_cycles(DType::kFloat32, 256);
  EXPECT_EQ(lagg, 1024u);  // the paper's measured L
  // Handler 2 = dispatch+dma + wait(copy of h1) + aggregate + emit.
  EXPECT_GT(rr.stats.cs_wait_cycles.max(), 0.0);
  EXPECT_GE(rr.emit_time - rr.handler_ends.front(), 0u);
}

TEST(MultiBufferPolicy, TwoBuffersAbsorbTwoConcurrentPackets) {
  const u32 P = 2;
  std::vector<TypedBuffer> data(2, TypedBuffer(DType::kFloat32, 256));
  AllreduceConfig cfg = base_config(P, AggPolicy::kMultiBuffer, 2);
  RunResult rr = run_one_block(cfg, data, {0, 0});
  // No handler ever waits: both grab distinct buffers.
  EXPECT_EQ(rr.stats.cs_wait_cycles.max(), 0.0);
}

TEST(MultiBufferPolicy, ThirdConcurrentPacketWaitsWithTwoBuffers) {
  const u32 P = 3;
  std::vector<TypedBuffer> data(3, TypedBuffer(DType::kFloat32, 256));
  AllreduceConfig cfg = base_config(P, AggPolicy::kMultiBuffer, 2);
  RunResult rr = run_one_block(cfg, data, {0, 0, 0});
  EXPECT_GT(rr.stats.cs_wait_cycles.max(), 0.0);
}

TEST(MultiBufferPolicy, MoreBuffersThanAMachineWord) {
  // B is not capped at 64: 70 concurrent packets on 70 buffers never wait.
  const u32 P = 70;
  Rng rng(7);
  std::vector<TypedBuffer> data;
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer b(DType::kInt32, 64);
    b.fill_random(rng, 1.0, 4.0);
    data.push_back(std::move(b));
  }
  AllreduceConfig cfg = base_config(P, AggPolicy::kMultiBuffer, P,
                                    DType::kInt32, OpKind::kSum, 64);
  RunResult rr = run_one_block(cfg, data, std::vector<SimTime>(P, 0));
  EXPECT_EQ(rr.stats.cs_wait_cycles.max(), 0.0);
  TypedBuffer got(DType::kInt32, 64);
  std::memcpy(got.data(), rr.result.payload.data(), rr.result.payload.size());
  EXPECT_EQ(got.count_mismatches(reference_reduce(data, ReduceOp(OpKind::kSum))),
            0u);
  EXPECT_EQ(rr.pool_in_use_after, 0u);
}

TEST(TreePolicy, HandlersNeverWait) {
  // Section 6.3: computation proceeds only when data is available in both
  // buffers, so no handler blocks regardless of delta_c.
  const u32 P = 8;
  std::vector<TypedBuffer> data(P, TypedBuffer(DType::kFloat32, 256));
  AllreduceConfig cfg = base_config(P, AggPolicy::kTree);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  // All packets at once — worst case for lock-based designs.
  std::vector<SimTime> ends;
  for (u32 h = 0; h < P; ++h) {
    Packet p = make_dense_packet(cfg.id, 0, static_cast<u16>(h),
                                 data[h].data(), 256, cfg.dtype);
    host.sim.schedule_at(0, [&engine, p = std::move(p), &ends]() mutable {
      engine.process(std::make_shared<const Packet>(std::move(p)),
                     [&ends](SimTime end) { ends.push_back(end); });
    });
  }
  host.sim.run();
  ASSERT_EQ(ends.size(), P);
  // The longest handler carries the full climb: copy + log2(P) combines.
  const auto& c = host.cost;
  const u64 pre = c.handler_dispatch_cycles + c.dma_packet_cycles;
  const u64 lagg = c.aggregation_cycles(DType::kFloat32, 256);
  const u64 longest = *std::max_element(ends.begin(), ends.end());
  EXPECT_LE(longest,
            pre + c.dma_packet_cycles + 3 * lagg + c.emit_packet_cycles);
  // And no handler exceeds that (nobody spins on a lock).
  const u64 total_work_bound = P * (pre + c.dma_packet_cycles) +
                               (P - 1) * lagg + c.emit_packet_cycles;
  u64 total = 0;
  for (const SimTime e : ends) total += e;
  EXPECT_LE(total, total_work_bound + P * lagg);
}

TEST(TreePolicy, StragglerFinishesTheClimb) {
  // P-1 packets arrive early; the straggler must complete the whole chain.
  const u32 P = 4;
  std::vector<TypedBuffer> data;
  Rng rng(13);
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer b(DType::kInt32, 8);
    b.fill_random(rng);
    data.push_back(std::move(b));
  }
  AllreduceConfig cfg =
      base_config(P, AggPolicy::kTree, 1, DType::kInt32, OpKind::kSum, 8);
  RunResult rr = run_one_block(cfg, data, {0, 10, 20, 100000});
  const TypedBuffer expected = reference_reduce(data, cfg.op);
  TypedBuffer got(DType::kInt32, 8);
  std::memcpy(got.data(), rr.result.payload.data(), 32);
  EXPECT_EQ(got.count_mismatches(expected), 0u);
  EXPECT_GE(rr.emit_time, 100000u);
}

// --------------------------------------------------------- misc details --

TEST(DensePolicies, RaggedLastBlockElems) {
  // elem_count smaller than the configured N must flow through end to end.
  const u32 P = 3;
  Rng rng(19);
  std::vector<TypedBuffer> data;
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer b(DType::kInt32, 100);  // < 256
    b.fill_random(rng);
    data.push_back(std::move(b));
  }
  for (const AggPolicy pol :
       {AggPolicy::kSingleBuffer, AggPolicy::kMultiBuffer, AggPolicy::kTree}) {
    AllreduceConfig cfg =
        base_config(P, pol, 2, DType::kInt32, OpKind::kSum, 256);
    RunResult rr = run_one_block(cfg, data, {0, 50, 100});
    EXPECT_EQ(rr.result.hdr.elem_count, 100u);
    EXPECT_EQ(rr.result.payload.size(), 400u);
    TypedBuffer got(DType::kInt32, 100);
    std::memcpy(got.data(), rr.result.payload.data(), 400);
    EXPECT_EQ(got.count_mismatches(reference_reduce(data, cfg.op)), 0u);
  }
}

TEST(DensePolicies, RootFlagControlsDownBit) {
  std::vector<TypedBuffer> data(1, TypedBuffer(DType::kInt32, 4));
  AllreduceConfig cfg =
      base_config(1, AggPolicy::kSingleBuffer, 1, DType::kInt32,
                  OpKind::kSum, 4);
  cfg.is_root = false;
  RunResult up = run_one_block(cfg, data, {0});
  EXPECT_FALSE(up.result.is_down());
  cfg.is_root = true;
  RunResult down = run_one_block(cfg, data, {0});
  EXPECT_TRUE(down.result.is_down());
}

TEST(DensePolicies, InterleavedBlocksKeepSeparateState) {
  // Two blocks in flight with interleaved packets must not cross-pollinate.
  const u32 P = 2;
  Rng rng(23);
  std::vector<TypedBuffer> d0, d1;
  for (u32 h = 0; h < P; ++h) {
    TypedBuffer a(DType::kInt32, 8), b(DType::kInt32, 8);
    a.fill_random(rng);
    b.fill_random(rng);
    d0.push_back(std::move(a));
    d1.push_back(std::move(b));
  }
  AllreduceConfig cfg =
      base_config(P, AggPolicy::kSingleBuffer, 1, DType::kInt32,
                  OpKind::kSum, 8);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  auto inject = [&](u32 block, u32 h, const TypedBuffer& buf, SimTime at) {
    Packet p = make_dense_packet(cfg.id, block, static_cast<u16>(h),
                                 buf.data(), 8, cfg.dtype);
    host.sim.schedule_at(at, [&engine, p = std::move(p)]() mutable {
      engine.process(std::make_shared<const Packet>(std::move(p)),
                     [](SimTime) {});
    });
  };
  inject(0, 0, d0[0], 0);
  inject(1, 0, d1[0], 1);
  inject(1, 1, d1[1], 2);
  inject(0, 1, d0[1], 3);
  host.sim.run();
  ASSERT_EQ(host.emitted.size(), 2u);
  for (const auto& [pkt, when] : host.emitted) {
    const auto& src = pkt.hdr.block_id == 0 ? d0 : d1;
    TypedBuffer got(DType::kInt32, 8);
    std::memcpy(got.data(), pkt.payload.data(), 32);
    EXPECT_EQ(got.count_mismatches(reference_reduce(src, cfg.op)), 0u);
  }
}

TEST(DensePolicies, PoolHighWaterReflectsPolicyM) {
  // M = 1 buffer for single, up to B for multi, up to ~P/2+1 for tree.
  const u32 P = 8;
  std::vector<TypedBuffer> data(P, TypedBuffer(DType::kFloat32, 256));
  std::vector<SimTime> arrivals;
  for (u32 h = 0; h < P; ++h) arrivals.push_back(h);  // near-simultaneous

  AllreduceConfig cfg = base_config(P, AggPolicy::kSingleBuffer);
  EXPECT_EQ(run_one_block(cfg, data, arrivals).pool_high_water, 1024u);

  cfg = base_config(P, AggPolicy::kMultiBuffer, 4);
  const u64 multi_hwm = run_one_block(cfg, data, arrivals).pool_high_water;
  EXPECT_GE(multi_hwm, 2 * 1024u);
  EXPECT_LE(multi_hwm, 4 * 1024u);

  cfg = base_config(P, AggPolicy::kTree);
  const u64 tree_hwm = run_one_block(cfg, data, arrivals).pool_high_water;
  EXPECT_GE(tree_hwm, 2 * 1024u);
  EXPECT_LE(tree_hwm, P * 1024u);
}

TEST(DensePolicies, SingleChildDegenerateCase) {
  // P=1: the packet is copied and emitted as-is.
  Rng rng(31);
  std::vector<TypedBuffer> data;
  TypedBuffer b(DType::kFloat32, 256);
  b.fill_random(rng);
  data.push_back(std::move(b));
  for (const AggPolicy pol :
       {AggPolicy::kSingleBuffer, AggPolicy::kMultiBuffer, AggPolicy::kTree}) {
    AllreduceConfig cfg = base_config(1, pol, 2, DType::kFloat32,
                                      OpKind::kSum, 256);
    RunResult rr = run_one_block(cfg, data, {0});
    TypedBuffer got(DType::kFloat32, 256);
    std::memcpy(got.data(), rr.result.payload.data(), 1024);
    EXPECT_TRUE(got.bitwise_equal(data[0]));
  }
}

}  // namespace
}  // namespace flare::core
