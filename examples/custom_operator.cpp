// Custom operators and data types (flexibility item F1).
//
// Fixed-function switches ship a frozen MPI-operator set; RMT programmable
// switches cannot even multiply integers or touch floats.  Flare handlers
// are plain C functions, so ANY element-wise reduction works.  This example
// runs two operators no existing in-network solution offers:
//
//   1. saturating int8 sum — quantized gradient aggregation without
//      wrap-around corruption;
//   2. max-magnitude selection over fp32 — keeps the entry with the largest
//      absolute value (a top-1 sketch combiner).
//
//   ./build/examples/custom_operator
#include <cmath>
#include <cstdio>

#include "pspin/unit.hpp"
#include "workload/generators.hpp"

using namespace flare;

namespace {

/// Runs one block of `data` through a single Flare switch with `op`.
core::TypedBuffer reduce_once(const std::vector<core::TypedBuffer>& data,
                              const core::ReduceOp& op, core::DType dtype) {
  sim::Simulator sim(pspin::kCalendarOptions);
  pspin::PsPinConfig cfg;
  cfg.n_clusters = 4;
  cfg.charge_cold_start = false;
  pspin::PsPinUnit unit(sim, cfg);

  core::AllreduceConfig acfg;
  acfg.id = 1;
  acfg.num_children = static_cast<u32>(data.size());
  acfg.dtype = dtype;
  acfg.op = op;
  acfg.elems_per_packet = static_cast<u32>(data[0].size());
  acfg.policy = core::AggPolicy::kTree;  // fixed order: works for ANY op
  unit.install(acfg);

  core::TypedBuffer result(dtype, data[0].size());
  unit.set_emit_hook([&](const core::Packet& pkt, SimTime) {
    std::memcpy(result.data(), pkt.payload.data(), pkt.payload.size());
  });
  for (u32 h = 0; h < data.size(); ++h) {
    unit.inject(core::make_dense_packet(1, 0, static_cast<u16>(h),
                                        data[h].data(),
                                        static_cast<u32>(data[h].size()),
                                        dtype),
                h);
  }
  sim.run();
  return result;
}

}  // namespace

int main() {
  std::printf("Flare custom operators (F1)\n");

  // --- 1. saturating int8 sum -------------------------------------------
  auto sat_add = core::ReduceOp::custom_binary(
      "saturating_add",
      [](auto a, auto b) {
        const f64 s = static_cast<f64>(a) + static_cast<f64>(b);
        return std::min(127.0, std::max(-128.0, s));
      },
      0.0);

  const u32 P = 6, N = 8;
  std::vector<core::TypedBuffer> grads;
  for (u32 h = 0; h < P; ++h) {
    core::TypedBuffer b(core::DType::kInt8, N);
    for (u32 i = 0; i < N; ++i)
      b.set_from_f64(i, (i % 2 ? 50 : -50) + static_cast<i32>(h));
    grads.push_back(std::move(b));
  }
  const core::TypedBuffer sat =
      reduce_once(grads, sat_add, core::DType::kInt8);
  std::printf("\n  saturating int8 sum of %u hosts (plain sum would wrap):\n"
              "    result:", P);
  for (u32 i = 0; i < N; ++i) std::printf(" %4.0f", sat.get_as_f64(i));
  std::printf("\n    (clamped at +-127/128 instead of wrapping around)\n");

  // --- 2. max-magnitude over fp32 ---------------------------------------
  auto max_mag = core::ReduceOp::custom_binary(
      "max_magnitude",
      [](auto a, auto b) { return std::abs(a) >= std::abs(b) ? a : b; },
      0.0, /*commutative=*/true);

  Rng rng(7);
  std::vector<core::TypedBuffer> sketches;
  for (u32 h = 0; h < P; ++h) {
    core::TypedBuffer b(core::DType::kFloat32, N);
    b.fill_random(rng, -100.0, 100.0);
    sketches.push_back(std::move(b));
  }
  const core::TypedBuffer top =
      reduce_once(sketches, max_mag, core::DType::kFloat32);
  std::printf("\n  max-magnitude fp32 combine (unsupported on any RMT "
              "switch):\n    result:");
  for (u32 i = 0; i < N; ++i) std::printf(" %8.2f", top.get_as_f64(i));
  std::printf("\n");

  // Verify against host-side reference reductions.
  const core::TypedBuffer sat_ref = core::reference_reduce(grads, sat_add);
  const core::TypedBuffer top_ref =
      core::reference_reduce(sketches, max_mag);
  const bool ok =
      sat.bitwise_equal(sat_ref) && top.bitwise_equal(top_ref);
  std::printf("\n  reference check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
