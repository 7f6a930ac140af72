// Behavioural tests of the sparse aggregation engine (Section 7): shard
// splitting and reassembly, empty blocks, hash-spill traffic, array-store
// exactness, retransmitted shards, multi-store parallelism — all checked
// functionally against densified references.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/allreduce_engine.hpp"
#include "core/typed_buffer.hpp"
#include "workload/generators.hpp"

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

AllreduceConfig sparse_config(u32 children, u32 span, bool hash,
                              u32 hash_capacity = 512, u32 spill_cap = 64,
                              u32 ppp = 128, u32 buffers = 1) {
  AllreduceConfig cfg;
  cfg.id = 1;
  cfg.num_children = children;
  cfg.dtype = DType::kFloat32;
  cfg.op = ReduceOp(OpKind::kSum);
  cfg.policy = AggPolicy::kSingleBuffer;
  cfg.num_buffers = buffers;
  cfg.is_root = true;
  cfg.sparse = true;
  cfg.hash_storage = hash;
  cfg.block_span = span;
  cfg.pairs_per_packet = ppp;
  cfg.hash_capacity_pairs = hash_capacity;
  cfg.spill_capacity_pairs = spill_cap;
  return cfg;
}

/// Sends `pairs` for (child, block) as properly-sharded packets starting at
/// `base_time`, spaced `gap` apart.
void send_block(TestHost& host, AllreduceEngine& engine,
                const AllreduceConfig& cfg, u32 block, u32 child,
                const std::vector<SparsePair>& pairs, SimTime base_time,
                SimTime gap = 100) {
  const u32 ppp = cfg.pairs_per_packet;
  const u32 shards =
      std::max<u32>(1, (static_cast<u32>(pairs.size()) + ppp - 1) / ppp);
  for (u32 s = 0; s < shards; ++s) {
    Packet p;
    if (pairs.empty()) {
      p = make_empty_block_packet(cfg.id, block, static_cast<u16>(child));
    } else {
      const u32 off = s * ppp;
      const u32 n = std::min<u32>(ppp, static_cast<u32>(pairs.size()) - off);
      const bool last = (s + 1 == shards);
      p = make_sparse_packet(
          cfg.id, block, static_cast<u16>(child),
          std::span<const SparsePair>(pairs.data() + off, n), cfg.dtype,
          last ? kFlagLastShard : 0);
      p.hdr.shard_seq = s;
      if (last) p.hdr.shard_count = shards;
    }
    host.sim.schedule_at(base_time + s * gap,
                         [&engine, p = std::move(p)]() mutable {
                           engine.process(
                               std::make_shared<const Packet>(std::move(p)),
                               [](SimTime) {});
                         });
  }
}

/// Accumulates every emitted packet (spills + results) of `block` into a
/// dense vector of `span` elements.
TypedBuffer collect_block(const TestHost& host, u32 block, u32 span) {
  TypedBuffer acc(DType::kFloat32, span);
  ReduceOp sum(OpKind::kSum);
  acc.fill_identity(sum);
  for (const auto& [pkt, when] : host.emitted) {
    if (pkt.hdr.block_id != block) continue;
    if (pkt.hdr.elem_count == 0) continue;
    const SparseView v = sparse_view(pkt, DType::kFloat32);
    for (u32 i = 0; i < v.count; ++i) {
      sum.apply(DType::kFloat32, acc.at_byte(v.indices[i]),
                v.values + static_cast<std::size_t>(i) * 4, 1);
    }
  }
  return acc;
}

TypedBuffer expected_block(const workload::SparseSpec& spec, u32 hosts,
                           u32 block) {
  ReduceOp sum(OpKind::kSum);
  TypedBuffer acc(spec.dtype, spec.span);
  acc.fill_identity(sum);
  for (u32 h = 0; h < hosts; ++h) {
    acc.accumulate(
        workload::densify(spec, workload::sparse_block_pairs(spec, h, block)),
        sum);
  }
  return acc;
}

bool has_last_shard(const TestHost& host, u32 block) {
  for (const auto& [pkt, when] : host.emitted) {
    if (pkt.hdr.block_id == block && pkt.is_last_shard()) return true;
  }
  return false;
}

// --------------------------------------------------------------------------

struct SparseSweepParam {
  u32 children;
  f64 density;
  f64 overlap;
  bool hash;
  u32 buffers;
};

class SparseSweep : public ::testing::TestWithParam<SparseSweepParam> {};

TEST_P(SparseSweep, AggregatesCorrectly) {
  const auto prm = GetParam();
  const u32 span = 640;
  workload::SparseSpec spec{span, prm.density, prm.overlap,
                            DType::kFloat32, 42};
  AllreduceConfig cfg =
      sparse_config(prm.children, span, prm.hash, 512, 64, 128, prm.buffers);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  Rng rng(7);
  for (u32 h = 0; h < prm.children; ++h) {
    send_block(host, engine, cfg, 0, h,
               workload::sparse_block_pairs(spec, h, 0),
               rng.uniform_u64(3000));
  }
  host.sim.run();
  ASSERT_TRUE(has_last_shard(host, 0));
  const TypedBuffer got = collect_block(host, 0, span);
  const TypedBuffer want = expected_block(spec, prm.children, 0);
  EXPECT_LE(got.max_abs_diff(want), 1e-3);
  EXPECT_EQ(engine.stats().blocks_completed, 1u);
  EXPECT_EQ(engine.pool().in_use(), 0u);
}

std::vector<SparseSweepParam> sparse_sweep() {
  std::vector<SparseSweepParam> out;
  for (const u32 children : {1u, 2u, 4u, 8u, 16u}) {
    for (const f64 density : {0.01, 0.1, 0.3}) {
      for (const bool hash : {true, false}) {
        out.push_back({children, density, 0.0, hash, 1});
        out.push_back({children, density, 0.8, hash, 1});
      }
    }
  }
  // Multi-store parallel sparse aggregation.
  out.push_back({8, 0.1, 0.5, true, 2});
  out.push_back({8, 0.1, 0.5, false, 4});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparseSweep,
                         ::testing::ValuesIn(sparse_sweep()));

// --------------------------------------------------------------------------

TEST(SparsePolicy, BlockSplitAcrossManyShards) {
  // One child sends 300 pairs with ppp=32 -> 10 shards, out of order-ish.
  const u32 span = 4096;
  AllreduceConfig cfg = sparse_config(1, span, false, 512, 64, 32);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  std::vector<SparsePair> pairs;
  for (u32 i = 0; i < 300; ++i)
    pairs.push_back({i * 13 % span, 1.0});
  send_block(host, engine, cfg, 0, 0, pairs, 0, 50);
  host.sim.run();
  ASSERT_TRUE(has_last_shard(host, 0));
  const TypedBuffer got = collect_block(host, 0, span);
  f64 total = 0;
  for (u32 i = 0; i < span; ++i) total += got.get_as_f64(i);
  EXPECT_DOUBLE_EQ(total, 300.0);
}

TEST(SparsePolicy, EmptyBlocksStillComplete) {
  // Section 7 "Empty blocks": children with all-zero blocks send a header-
  // only packet so the children counter advances.
  const u32 span = 128;
  AllreduceConfig cfg = sparse_config(3, span, true);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  send_block(host, engine, cfg, 0, 0, {}, 0);
  send_block(host, engine, cfg, 0, 1, {{5, 2.0}}, 10);
  send_block(host, engine, cfg, 0, 2, {}, 20);
  host.sim.run();
  ASSERT_TRUE(has_last_shard(host, 0));
  const TypedBuffer got = collect_block(host, 0, span);
  EXPECT_DOUBLE_EQ(got.get_as_f64(5), 2.0);
  EXPECT_EQ(engine.stats().blocks_completed, 1u);
}

TEST(SparsePolicy, AllEmptyBlockEmitsCompletionMarker) {
  const u32 span = 128;
  AllreduceConfig cfg = sparse_config(2, span, true);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  send_block(host, engine, cfg, 0, 0, {}, 0);
  send_block(host, engine, cfg, 0, 1, {}, 10);
  host.sim.run();
  ASSERT_EQ(host.emitted.size(), 1u);
  EXPECT_TRUE(host.emitted[0].first.is_last_shard());
  EXPECT_EQ(host.emitted[0].first.hdr.elem_count, 0u);
}

TEST(SparsePolicy, TinyHashForcesSpillTraffic) {
  // Extra traffic mechanism of Figure 14: colliding pairs spill and are
  // flushed as extra packets, but no data is ever lost.
  const u32 span = 2048;
  AllreduceConfig cfg = sparse_config(4, span, true, /*hash_capacity=*/16,
                                      /*spill_cap=*/8, /*ppp=*/64);
  workload::SparseSpec spec{span, 0.10, 0.0, DType::kFloat32, 17};
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  for (u32 h = 0; h < 4; ++h) {
    send_block(host, engine, cfg, 0, h,
               workload::sparse_block_pairs(spec, h, 0), 100 * h);
  }
  host.sim.run();
  EXPECT_GT(engine.stats().spill_packets, 0u);
  EXPECT_GT(engine.stats().spill_pairs, 0u);
  const TypedBuffer got = collect_block(host, 0, span);
  EXPECT_LE(got.max_abs_diff(expected_block(spec, 4, 0)), 1e-3);
}

TEST(SparsePolicy, ArrayStoreNeverSpills) {
  const u32 span = 2048;
  AllreduceConfig cfg = sparse_config(4, span, false, 16, 8, 64);
  workload::SparseSpec spec{span, 0.10, 0.0, DType::kFloat32, 18};
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  for (u32 h = 0; h < 4; ++h) {
    send_block(host, engine, cfg, 0, h,
               workload::sparse_block_pairs(spec, h, 0), 100 * h);
  }
  host.sim.run();
  EXPECT_EQ(engine.stats().spill_packets, 0u);
  const TypedBuffer got = collect_block(host, 0, span);
  EXPECT_LE(got.max_abs_diff(expected_block(spec, 4, 0)), 1e-3);
}

TEST(SparsePolicy, RetransmittedShardIsDeduplicated) {
  const u32 span = 256;
  AllreduceConfig cfg = sparse_config(2, span, false, 512, 64, 4);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  std::vector<SparsePair> pairs = {{1, 1.0}, {2, 2.0}, {3, 3.0},
                                   {4, 4.0}, {5, 5.0}};  // 2 shards @ ppp=4
  send_block(host, engine, cfg, 0, 0, pairs, 0);
  send_block(host, engine, cfg, 0, 1, {{1, 10.0}}, 50);
  // Child 0 retransmits its first shard (seq 0) late.
  Packet dup = make_sparse_packet(
      cfg.id, 0, 0, std::span<const SparsePair>(pairs.data(), 4),
      DType::kFloat32, static_cast<u16>(kFlagRetransmit));
  dup.hdr.shard_seq = 0;
  host.sim.schedule_at(60, [&engine, dup = std::move(dup)]() mutable {
    engine.process(std::make_shared<const Packet>(std::move(dup)),
                   [](SimTime) {});
  });
  host.sim.run();
  const TypedBuffer got = collect_block(host, 0, span);
  EXPECT_DOUBLE_EQ(got.get_as_f64(1), 11.0);  // not 12: dup dropped
  EXPECT_DOUBLE_EQ(got.get_as_f64(4), 4.0);
  EXPECT_EQ(engine.stats().duplicates_dropped, 1u);
}

TEST(SparsePolicy, ResultRespectsPairsPerPacketMtu) {
  // A dense-ish union larger than one packet must be emitted as several
  // result shards, the last carrying the announced total.
  const u32 span = 512;
  AllreduceConfig cfg = sparse_config(2, span, false, 512, 64, /*ppp=*/32);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  std::vector<SparsePair> a, b;
  for (u32 i = 0; i < 100; ++i) a.push_back({i, 1.0});
  for (u32 i = 50; i < 150; ++i) b.push_back({i, 1.0});
  send_block(host, engine, cfg, 0, 0, a, 0);
  send_block(host, engine, cfg, 0, 1, b, 10);
  host.sim.run();
  u32 last_count = 0;
  u32 total_packets = 0;
  for (const auto& [pkt, when] : host.emitted) {
    EXPECT_LE(pkt.hdr.elem_count, 32u);
    total_packets += 1;
    if (pkt.is_last_shard()) last_count = pkt.hdr.shard_count;
  }
  EXPECT_EQ(last_count, total_packets);
  EXPECT_GE(total_packets, (150 + 31) / 32);
  const TypedBuffer got = collect_block(host, 0, span);
  for (u32 i = 0; i < 150; ++i) {
    const f64 want = (i < 50 || i >= 100) ? 1.0 : 2.0;
    EXPECT_DOUBLE_EQ(got.get_as_f64(i), want) << i;
  }
}

TEST(SparsePolicy, NonRootEmitsUpwardWithoutDownFlag) {
  const u32 span = 64;
  AllreduceConfig cfg = sparse_config(2, span, true);
  cfg.is_root = false;
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  send_block(host, engine, cfg, 0, 0, {{1, 1.0}}, 0);
  send_block(host, engine, cfg, 0, 1, {{2, 2.0}}, 10);
  host.sim.run();
  ASSERT_FALSE(host.emitted.empty());
  for (const auto& [pkt, when] : host.emitted) EXPECT_FALSE(pkt.is_down());
}

TEST(SparsePolicy, InterleavedBlocksIndependent) {
  const u32 span = 256;
  AllreduceConfig cfg = sparse_config(2, span, true);
  TestHost host;
  const auto owned = make_engine(host, cfg);
  AllreduceEngine& engine = *owned;
  send_block(host, engine, cfg, 0, 0, {{1, 1.0}}, 0);
  send_block(host, engine, cfg, 1, 0, {{1, 100.0}}, 5);
  send_block(host, engine, cfg, 1, 1, {{2, 200.0}}, 10);
  send_block(host, engine, cfg, 0, 1, {{2, 2.0}}, 15);
  host.sim.run();
  const TypedBuffer b0 = collect_block(host, 0, span);
  const TypedBuffer b1 = collect_block(host, 1, span);
  EXPECT_DOUBLE_EQ(b0.get_as_f64(1), 1.0);
  EXPECT_DOUBLE_EQ(b0.get_as_f64(2), 2.0);
  EXPECT_DOUBLE_EQ(b1.get_as_f64(1), 100.0);
  EXPECT_DOUBLE_EQ(b1.get_as_f64(2), 200.0);
  EXPECT_EQ(engine.stats().blocks_completed, 2u);
}

}  // namespace
}  // namespace flare::core
