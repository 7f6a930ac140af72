// Workload generators: determinism, density targets, overlap control,
// gradient-trace structure (bucket top-k, layer scales), arrival processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "workload/arrivals.hpp"
#include "workload/generators.hpp"
#include "workload/gradient_trace.hpp"

namespace flare::workload {
namespace {

TEST(DenseGen, DeterministicPerSeedAndHost) {
  auto a = make_dense_data(3, 128, core::DType::kFloat32, 5);
  auto b = make_dense_data(3, 128, core::DType::kFloat32, 5);
  for (u32 h = 0; h < 3; ++h) EXPECT_TRUE(a[h].bitwise_equal(b[h]));
  auto c = make_dense_data(3, 128, core::DType::kFloat32, 6);
  EXPECT_FALSE(a[0].bitwise_equal(c[0]));
}

TEST(DenseGen, HostsDiffer) {
  auto d = make_dense_data(2, 256, core::DType::kInt32, 7);
  EXPECT_FALSE(d[0].bitwise_equal(d[1]));
}

TEST(SparseGen, DensityTargetIsHonoured) {
  SparseSpec spec{10000, 0.10, 0.0, core::DType::kFloat32, 11};
  f64 total = 0;
  const int blocks = 20;
  for (int b = 0; b < blocks; ++b)
    total += static_cast<f64>(sparse_block_indices(spec, 0, static_cast<u32>(b)).size());
  const f64 mean_density = total / blocks / spec.span;
  EXPECT_NEAR(mean_density, 0.10, 0.02);
}

TEST(SparseGen, IndicesSortedUniqueInSpan) {
  SparseSpec spec{640, 0.2, 0.3, core::DType::kFloat32, 13};
  for (u32 h = 0; h < 4; ++h) {
    const auto idx = sparse_block_indices(spec, h, 0);
    for (std::size_t i = 1; i < idx.size(); ++i)
      EXPECT_LT(idx[i - 1], idx[i]);
    for (const u32 i : idx) EXPECT_LT(i, spec.span);
  }
}

TEST(SparseGen, OverlapControlsUnionSize) {
  // With full overlap every host picks the same shared pool: union ~ nnz.
  // With none, union ~ P * nnz (minus collisions).
  SparseSpec lo{2000, 0.05, 0.0, core::DType::kFloat32, 17};
  SparseSpec hi{2000, 0.05, 1.0, core::DType::kFloat32, 17};
  const std::size_t u_lo = union_index_count(lo, 8, 0);
  const std::size_t u_hi = union_index_count(hi, 8, 0);
  EXPECT_GT(u_lo, 3 * u_hi);
}

TEST(SparseGen, PairsMatchIndices) {
  SparseSpec spec{640, 0.1, 0.5, core::DType::kFloat32, 19};
  const auto idx = sparse_block_indices(spec, 2, 3);
  const auto pairs = sparse_block_pairs(spec, 2, 3);
  ASSERT_EQ(idx.size(), pairs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(pairs[i].index, idx[i]);
    EXPECT_NE(pairs[i].value, 0.0);
  }
}

TEST(SparseGen, DensifyPlacesValues) {
  SparseSpec spec{100, 0.1, 0.0, core::DType::kFloat32, 23};
  std::vector<core::SparsePair> pairs = {{3, 1.5}, {97, -2.0}};
  const core::TypedBuffer buf = densify(spec, pairs);
  EXPECT_DOUBLE_EQ(buf.get_as_f64(3), 1.5);
  EXPECT_DOUBLE_EQ(buf.get_as_f64(97), -2.0);
  EXPECT_DOUBLE_EQ(buf.get_as_f64(0), 0.0);
}

/// sparse_block_indices as first written: an unordered_set of drawn
/// indices and a final std::sort.  The generator must make the same RNG
/// draws and accept/reject decisions and return the same vector.
std::vector<u32> oracle_indices(const SparseSpec& spec, u32 host, u32 block) {
  const f64 expected =
      static_cast<f64>(spec.span) * std::clamp(spec.density, 0.0, 1.0);
  Rng host_rng(derive_seed(derive_seed(spec.seed, 0x5A5A + host), block));
  const f64 jitter = 1.0 + 0.25 * (host_rng.uniform() - 0.5);
  std::size_t nnz = static_cast<std::size_t>(expected * jitter + 0.5);
  nnz = std::min<std::size_t>(nnz, spec.span);
  const std::size_t shared_count = static_cast<std::size_t>(
      static_cast<f64>(nnz) * std::clamp(spec.overlap, 0.0, 1.0) + 0.5);
  std::unordered_set<u32> seen;
  std::vector<u32> out;
  auto draw = [&](Rng& rng, std::size_t count) {
    while (count > 0) {
      const u32 idx = static_cast<u32>(rng.uniform_u64(spec.span));
      if (seen.insert(idx).second) {
        out.push_back(idx);
        count -= 1;
      }
    }
  };
  if (shared_count > 0) {
    Rng shared_rng(derive_seed(derive_seed(spec.seed, 0xC0DE), block));
    draw(shared_rng, shared_count);
  }
  if (nnz > shared_count) draw(host_rng, nnz - shared_count);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<core::SparsePair> oracle_pairs(const SparseSpec& spec, u32 host,
                                           u32 block) {
  Rng val_rng(derive_seed(derive_seed(spec.seed, 0x7A1Eu + host), block));
  std::vector<core::SparsePair> out;
  for (const u32 i : oracle_indices(spec, host, block)) {
    f64 v = val_rng.uniform(-8.0, 8.0);
    if (!core::dtype_is_float(spec.dtype)) v = std::floor(v);
    if (v == 0.0) v = 1.0;
    out.push_back({i, v});
  }
  return out;
}

TEST(SparseGen, MatchesSetAndSortOracle) {
  // Spans off the 64-bit word grid (and span 1), full density, and every
  // overlap regime from private to fully shared.
  const u32 spans[] = {1, 7, 63, 64, 65, 100, 1000, 1280, 1281, 4099};
  const f64 densities[] = {0.01, 0.1, 0.5, 1.0};
  const f64 overlaps[] = {0.0, 0.5, 1.0};
  const core::DType dtypes[] = {core::DType::kFloat32, core::DType::kInt32};
  u64 seed = 100;
  for (const u32 span : spans) {
    for (const f64 density : densities) {
      for (const f64 overlap : overlaps) {
        for (const core::DType dtype : dtypes) {
          const SparseSpec spec{span, density, overlap, dtype, ++seed};
          const u32 hosts = 4;
          for (u32 b = 0; b < 3; ++b) {
            std::unordered_set<u32> all;
            for (u32 h = 0; h < hosts; ++h) {
              const auto want = oracle_indices(spec, h, b);
              ASSERT_EQ(sparse_block_indices(spec, h, b), want)
                  << "span " << span << " density " << density
                  << " overlap " << overlap << " host " << h << " block "
                  << b;
              const auto got = sparse_block_pairs(spec, h, b);
              const auto want_pairs = oracle_pairs(spec, h, b);
              ASSERT_EQ(got.size(), want_pairs.size());
              for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].index, want_pairs[i].index);
                ASSERT_EQ(got[i].value, want_pairs[i].value);
              }
              all.insert(want.begin(), want.end());
            }
            EXPECT_EQ(union_index_count(spec, hosts, b), all.size());
          }
        }
      }
    }
  }
}

TEST(GradientTrace, DensityMatchesBucketTopK) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 1000;
  spec.bucket = 512;
  spec.top_k = 1;
  GradientTrace trace(spec, 4);
  EXPECT_NEAR(trace.density(), 1.0 / 512.0, 1e-12);
  EXPECT_EQ(trace.buckets(), 1000u);
}

TEST(GradientTrace, ExactlyTopKPerBucket) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 64;
  GradientTrace trace(spec, 2);
  const auto pairs = trace.window_pairs(0, 0, 64);
  EXPECT_EQ(pairs.size(), 64u);  // one pair per bucket
  // Every pair lands in its own bucket.
  std::unordered_set<u64> buckets;
  for (const auto& p : pairs) buckets.insert(p.index / spec.bucket);
  EXPECT_EQ(buckets.size(), 64u);
}

TEST(GradientTrace, OverlapShrinksUnion) {
  GradientTraceSpec hi;
  hi.model_elems = 512 * 128;
  hi.overlap = 0.95;
  GradientTraceSpec lo = hi;
  lo.overlap = 0.0;
  GradientTrace t_hi(hi, 16), t_lo(lo, 16);
  EXPECT_LT(t_hi.window_union(0, 128), t_lo.window_union(0, 128) / 2);
}

TEST(GradientTrace, WindowIndicesRelativeAndBounded) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 256;
  GradientTrace trace(spec, 2);
  const auto pairs = trace.window_pairs(1, 100, 10);
  for (const auto& p : pairs) EXPECT_LT(p.index, 10u * spec.bucket);
  EXPECT_EQ(pairs.size(), 10u);
}

TEST(GradientTrace, Deterministic) {
  GradientTraceSpec spec;
  spec.model_elems = 512 * 32;
  GradientTrace a(spec, 4), b(spec, 4);
  const auto pa = a.window_pairs(2, 0, 32);
  const auto pb = b.window_pairs(2, 0, 32);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].index, pb[i].index);
    EXPECT_EQ(pa[i].value, pb[i].value);
  }
}

TEST(Arrivals, DeterministicIsConstant) {
  ArrivalProcess ap(ArrivalKind::kDeterministic, 42.0, 1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(ap.next_gap(), 42.0);
}

TEST(Arrivals, ExponentialMeanConverges) {
  ArrivalProcess ap(ArrivalKind::kExponential, 100.0, 2);
  f64 sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += ap.next_gap();
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

}  // namespace
}  // namespace flare::workload
