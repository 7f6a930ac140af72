// Randomized invariant sweeps ("fuzz") over the aggregation engines: many
// blocks, random arrival storms, random duplicate injections, random
// policies — after every run the engine must satisfy:
//
//   * exactly one result per block, each equal to the reference reduction;
//   * working-memory pool drained to zero (no leaks);
//   * stats conservation: packets_in == fresh + duplicates;
//   * emitted wire bytes consistent with the emitted packet set;
//   * (sparse) spilled pairs + stored pairs conserve the data.
//
// Seeds are parameterized so each instance is a distinct reproducible case.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "coll/communicator.hpp"
#include "common/rng.hpp"
#include "core/allreduce_engine.hpp"
#include "core/typed_buffer.hpp"
#include "net/fault.hpp"
#include "workload/generators.hpp"

namespace flare::core {
namespace {

class FuzzHost : public EngineHost {
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

struct FuzzParam {
  u64 seed;
  AggPolicy policy;
  u32 buffers;
};

class DenseFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(DenseFuzz, InvariantsHoldUnderArrivalStorms) {
  const FuzzParam prm = GetParam();
  Rng rng(prm.seed);
  const u32 P = 2 + static_cast<u32>(rng.uniform_u64(15));      // 2..16
  const u32 blocks = 1 + static_cast<u32>(rng.uniform_u64(12)); // 1..12
  const u32 elems = 1 + static_cast<u32>(rng.uniform_u64(256));
  const DType dtype = rng.bernoulli(0.5) ? DType::kInt32 : DType::kInt64;

  AllreduceConfig cfg;
  cfg.id = 1;
  cfg.num_children = P;
  cfg.dtype = dtype;
  cfg.op = ReduceOp(OpKind::kSum);
  cfg.elems_per_packet = elems;
  cfg.policy = prm.policy;
  cfg.num_buffers = prm.buffers;
  cfg.is_root = true;

  FuzzHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;

  // Per-block random data; random arrival times; random duplicates.
  std::vector<std::vector<TypedBuffer>> data(blocks);
  u64 injected = 0, dup_injected = 0;
  for (u32 b = 0; b < blocks; ++b) {
    for (u32 h = 0; h < P; ++h) {
      TypedBuffer buf(dtype, elems);
      buf.fill_random(rng);
      Packet p = make_dense_packet(cfg.id, b, static_cast<u16>(h),
                                   buf.data(), elems, dtype);
      data[b].push_back(std::move(buf));
      const u32 copies = 1 + (rng.bernoulli(0.2) ? static_cast<u32>(
                                  rng.uniform_u64(3)) : 0);
      for (u32 c = 0; c < copies; ++c) {
        Packet copy = p;
        if (c > 0) copy.hdr.flags |= kFlagRetransmit;
        const SimTime at = rng.uniform_u64(50000);
        host.sim.schedule_at(at, [&engine, copy = std::move(copy)]() mutable {
          engine.process(std::make_shared<const Packet>(std::move(copy)),
                         [](SimTime) {});
        });
        injected += 1;
        if (c > 0) dup_injected += 1;
      }
    }
  }
  host.sim.run();

  // One result per block, each correct.
  ASSERT_EQ(host.emitted.size(), blocks);
  std::map<u32, const Packet*> by_block;
  for (const auto& [pkt, when] : host.emitted) {
    EXPECT_TRUE(by_block.emplace(pkt.hdr.block_id, &pkt).second)
        << "duplicate result for block " << pkt.hdr.block_id;
  }
  for (u32 b = 0; b < blocks; ++b) {
    ASSERT_TRUE(by_block.contains(b));
    const Packet& pkt = *by_block[b];
    TypedBuffer got(dtype, elems);
    std::memcpy(got.data(), pkt.payload.data(), pkt.payload.size());
    const TypedBuffer want = reference_reduce(data[b], cfg.op);
    EXPECT_EQ(got.count_mismatches(want), 0u) << "block " << b;
  }

  // Conservation + cleanliness.
  const EngineStats& st = engine.stats();
  EXPECT_EQ(st.packets_in, injected);
  EXPECT_EQ(st.duplicates_dropped, dup_injected);
  EXPECT_EQ(st.blocks_completed, blocks);
  EXPECT_EQ(engine.pool().in_use(), 0u) << "working-memory leak";
  u64 wire = 0;
  for (const auto& [pkt, when] : host.emitted) wire += pkt.wire_bytes();
  EXPECT_EQ(st.bytes_emitted, wire);
}

std::vector<FuzzParam> dense_fuzz_params() {
  std::vector<FuzzParam> out;
  const struct {
    AggPolicy p;
    u32 b;
  } policies[] = {{AggPolicy::kSingleBuffer, 1},
                  {AggPolicy::kMultiBuffer, 2},
                  {AggPolicy::kMultiBuffer, 3},
                  {AggPolicy::kTree, 1}};
  u64 seed = 4242;
  for (const auto& pol : policies) {
    for (int i = 0; i < 8; ++i) out.push_back({seed++, pol.p, pol.b});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Storms, DenseFuzz,
                         ::testing::ValuesIn(dense_fuzz_params()));

// ---------------------------------------------------------------------------

class SparseFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(SparseFuzz, InvariantsHoldUnderShardStorms) {
  Rng rng(GetParam());
  const u32 P = 2 + static_cast<u32>(rng.uniform_u64(7));  // 2..8
  const u32 blocks = 1 + static_cast<u32>(rng.uniform_u64(5));
  const u32 span = 256 << rng.uniform_u64(3);  // 256..1024
  const f64 density = rng.uniform(0.02, 0.4);
  const f64 overlap = rng.uniform(0.0, 0.9);
  const u32 ppp = 16 << rng.uniform_u64(3);  // 16..64
  const bool hash = rng.bernoulli(0.5);

  AllreduceConfig cfg;
  cfg.id = 1;
  cfg.num_children = P;
  cfg.dtype = DType::kFloat32;
  cfg.op = ReduceOp(OpKind::kSum);
  cfg.policy = AggPolicy::kSingleBuffer;
  cfg.num_buffers = 1 + static_cast<u32>(rng.uniform_u64(2));
  cfg.is_root = true;
  cfg.sparse = true;
  cfg.hash_storage = hash;
  cfg.block_span = span;
  cfg.pairs_per_packet = ppp;
  cfg.hash_capacity_pairs = 32 << rng.uniform_u64(4);  // 32..256
  cfg.spill_capacity_pairs = 8;

  FuzzHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;

  workload::SparseSpec spec{span, density, overlap, DType::kFloat32,
                            GetParam()};
  for (u32 b = 0; b < blocks; ++b) {
    for (u32 h = 0; h < P; ++h) {
      const auto pairs = workload::sparse_block_pairs(spec, h, b);
      const u32 shards = std::max<u32>(
          1, (static_cast<u32>(pairs.size()) + ppp - 1) / ppp);
      for (u32 s = 0; s < shards; ++s) {
        Packet p;
        if (pairs.empty()) {
          p = make_empty_block_packet(cfg.id, b, static_cast<u16>(h));
        } else {
          const u32 off = s * ppp;
          const u32 n =
              std::min<u32>(ppp, static_cast<u32>(pairs.size()) - off);
          const bool last = (s + 1 == shards);
          p = make_sparse_packet(
              cfg.id, b, static_cast<u16>(h),
              std::span<const SparsePair>(pairs.data() + off, n),
              DType::kFloat32, last ? kFlagLastShard : 0);
          p.hdr.shard_seq = s;
          if (last) p.hdr.shard_count = shards;
        }
        // Shards arrive at random times; ~15% are duplicated.
        const u32 copies = rng.bernoulli(0.15) ? 2u : 1u;
        for (u32 c = 0; c < copies; ++c) {
          Packet copy = p;
          if (c > 0) copy.hdr.flags |= kFlagRetransmit;
          host.sim.schedule_at(
              rng.uniform_u64(20000),
              [&engine, copy = std::move(copy)]() mutable {
                engine.process(
                    std::make_shared<const Packet>(std::move(copy)),
                    [](SimTime) {});
              });
        }
      }
    }
  }
  host.sim.run();

  // Accumulate everything emitted per block and compare to the reference.
  const ReduceOp sum(OpKind::kSum);
  for (u32 b = 0; b < blocks; ++b) {
    TypedBuffer acc(DType::kFloat32, span);
    acc.fill_identity(sum);
    bool saw_last = false;
    for (const auto& [pkt, when] : host.emitted) {
      if (pkt.hdr.block_id != b) continue;
      saw_last = saw_last || pkt.is_last_shard();
      if (pkt.hdr.elem_count == 0) continue;
      const SparseView v = sparse_view(pkt, DType::kFloat32);
      for (u32 i = 0; i < v.count; ++i) {
        sum.apply(DType::kFloat32, acc.at_byte(v.indices[i]),
                  v.values + static_cast<std::size_t>(i) * 4, 1);
      }
    }
    EXPECT_TRUE(saw_last) << "block " << b << " never completed";
    TypedBuffer want(DType::kFloat32, span);
    want.fill_identity(sum);
    for (u32 h = 0; h < P; ++h) {
      want.accumulate(
          workload::densify(spec, workload::sparse_block_pairs(spec, h, b)),
          sum);
    }
    EXPECT_LE(acc.max_abs_diff(want), 1e-3) << "block " << b;
  }
  EXPECT_EQ(engine.stats().blocks_completed, blocks);
  EXPECT_EQ(engine.pool().in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Storms, SparseFuzz,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18,
                                           19, 20, 21, 22));

// ---------------------------------------------------------------------------
// Network-level fault fuzz: a randomized (seed-logged, replayable) fault
// schedule — link flaps, switch crash/restarts, drop and corruption bursts —
// against full collectives over the network simulator.  Contract: any run
// that completes must be bit-for-bit equal to the reference reduction
// (integer sum is associative, so tree association cannot hide errors), and
// the fabric must come back clean (no leaked switch occupancy).

class NetworkFaultFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(NetworkFaultFuzz, CompletedRunsMatchReferenceBitForBit) {
  const u64 seed = GetParam();
  Rng rng(seed * 31337 + 7);

  net::Network net;
  std::vector<net::Host*> hosts;
  if (rng.bernoulli(0.4)) {
    net::FatTreeSpec topo;
    topo.hosts = 8;
    topo.radix = 4;
    hosts = net::build_fat_tree(net, topo).hosts;
  } else {
    hosts = net::build_single_switch(
                net, 3 + static_cast<u32>(rng.uniform_u64(10)))
                .hosts;
  }

  net::FaultPlanSpec fspec;
  fspec.link_flaps = static_cast<u32>(rng.uniform_u64(3));
  fspec.switch_failures = static_cast<u32>(rng.uniform_u64(2));
  fspec.drop_bursts = 1 + static_cast<u32>(rng.uniform_u64(4));
  fspec.corrupt_bursts = static_cast<u32>(rng.uniform_u64(3));
  fspec.horizon_ps = 20 * kPsPerUs;
  const net::FaultPlan plan = net::FaultPlan::random(net, seed, fspec);
  // Seed-logged + replayable: a failing case prints the exact schedule.
  SCOPED_TRACE("fault-fuzz seed " + std::to_string(seed) + ", schedule:\n" +
               plan.summary(net));
  net::FaultInjector injector(net);
  injector.arm(plan);

  coll::CollectiveOptions desc;
  const u64 alg_pick = rng.uniform_u64(3);
  desc.algorithm = alg_pick == 0   ? coll::Algorithm::kHostRing
                   : alg_pick == 1 ? coll::Algorithm::kAuto
                                   : coll::Algorithm::kFlareDense;
  desc.dtype = rng.bernoulli(0.5) ? DType::kInt32 : DType::kInt64;
  desc.data_bytes = 4_KiB << rng.uniform_u64(4);  // 4..32 KiB
  desc.seed = seed;
  desc.retransmit_timeout_ps = 4 * kPsPerUs;
  desc.max_retransmits = 3;

  coll::Communicator comm(net, hosts);
  const coll::CollectiveResult res = comm.run(desc);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0) << "completed run is not bit-for-bit";
  for (net::Switch* sw : net.switches()) {
    EXPECT_EQ(sw->installed_reduces(), 0u) << sw->name();
    EXPECT_EQ(sw->occupancy().current(), 0u) << sw->name();
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSchedules, NetworkFaultFuzz,
                         ::testing::Range<u64>(900, 924));

}  // namespace
}  // namespace flare::core
