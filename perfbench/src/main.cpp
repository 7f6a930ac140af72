// perfbench — the repo benchmark's measuring process.  Runs ONE workload,
// single-threaded, for a fixed host-time budget:
//
//   perfbench --workload <name> --seed N [--seconds S] [--trace 0|1]
//
// One warm-up rep (set-up + run; its host times are dropped) fills the
// payload pool and the caches, then reps repeat until the budget is spent.
// Untraced (--trace 0): host times are medians over the reps, simulated
// metrics come from the seed's (identical) reps.  Traced (--trace 1):
// traced and untraced reps alternate; per-layer figures are medians over
// the traced reps, and trace.overhead is the ratio of the two medians.
// Every rep is checked: its outputs (ops/ops_failed) and its simulated
// digest, which must equal the warm-up's.
//
// The last stdout line is one JSON object with raw metric values; the
// run.py wrapper attaches units and fills layers a workload never enters.
//
// flare-lint: allow-file(wall-clock) — the benchmark measures host time;
// std::chrono never feeds simulation state.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr std::size_t kMinReps = 3;
constexpr u32 kSetupPasses = 5;
/// The traced run's charged classes must cover its wall time within this
/// share (the per-layer ledger criterion).  Only the step() calls are
/// charged, so tracing and observer work between them count against it.
constexpr f64 kChargedTolerance = 0.10;

struct Args {
  std::string workload;
  bool has_seed = false;
  u64 seed = 0;
  f64 seconds = 10.0;
  bool trace = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed N [--seconds S] "
               "[--trace 0|1]\nworkloads:");
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
      continue;
    }
    if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      a.has_seed = true;
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
    } else if (std::strcmp(k, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
      continue;
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.has_seed &&
         a.seconds > 0.0;
}

f64 median(std::vector<f64> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

f64 peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

template <typename F>
std::vector<f64> each(const std::vector<RepResult>& reps, F f) {
  std::vector<f64> out;
  for (const RepResult& r : reps) out.push_back(f(r));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& c : workloads()) {
    if (c.name == args.workload) w = &c;
  }
  if (w == nullptr) {
    usage();
    return 2;
  }

  const Clock::time_point start = Clock::now();
  const RepResult ref = w->rep(args.seed, Mode::kRun);  // warm-up
  u64 ops = ref.ops;
  u64 ops_failed = ref.ops_failed;
  bool repeatable = true;
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<f64> setups;
  auto record = [&](RepResult r, std::vector<RepResult>& into) {
    ops += r.ops;
    ops_failed += r.ops_failed;
    repeatable = repeatable && r.digest == ref.digest && r.sim == ref.sim;
    std::fprintf(stderr, "rep %zu: setup_s=%.4f wall_s=%.4f\n",
                 plain.size() + traced.size() + 1, r.setup_s, r.wall_s);
    into.push_back(std::move(r));
  };
  // Set-up times: every rep's, plus set-up-only passes after each full
  // rep (up to kSetupPasses, or a tenth of the rep's wall time) so a
  // millisecond set-up still gets a steady median.
  auto setup_passes = [&](const RepResult& full) {
    setups.push_back(full.setup_s);
    f64 spent = 0.0;
    for (u32 i = 0; i < kSetupPasses && spent < 0.1 * full.wall_s; ++i) {
      const f64 s = w->rep(args.seed, Mode::kSetup).setup_s;
      setups.push_back(s);
      spent += s;
    }
  };
  while (seconds_since(start) < args.seconds || plain.size() < kMinReps ||
         (args.trace && traced.size() < kMinReps)) {
    if (args.trace) record(w->rep(args.seed, Mode::kTraced), traced);
    record(w->rep(args.seed, Mode::kRun), plain);
    setup_passes(plain.back());
  }
  const f64 plain_wall =
      median(each(plain, [](const RepResult& r) { return r.wall_s; }));
  std::string metrics;
  auto put = [&metrics](const std::string& name, f64 v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":" + buf;
  };
  bool ledger_ok = true;
  if (!args.trace) {
    put("wall_s", plain_wall);
    put("setup_s", median(setups));
    put("peak_rss_mb", peak_rss_mb());
    for (const auto& [name, v] : ref.sim) put(name, v);
  } else {
    const f64 traced_wall =
        median(each(traced, [](const RepResult& r) { return r.wall_s; }));
    const f64 charged_frac = median(each(traced, [](const RepResult& r) {
      return r.layer.at("trace.charged_s") / r.wall_s;
    }));
    ledger_ok = std::fabs(charged_frac - 1.0) <= kChargedTolerance;
    put("trace.overhead", traced_wall / plain_wall);
    put("trace.charged_frac", charged_frac);
    for (const auto& entry : traced.front().layer) {
      const std::string& name = entry.first;
      if (name == "trace.charged_s") continue;
      put(name, median(each(traced, [&name](const RepResult& r) {
            const auto it = r.layer.find(name);
            return it == r.layer.end() ? 0.0 : it->second;
          })));
    }
  }

  const bool correct = ops_failed == 0 && repeatable && ledger_ok;
  std::printf("perfbench: workload=%s seed=%llu reps=%zu+%zu digest=%016llx "
              "repeatable=%s ledger=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(ref.digest),
              repeatable ? "yes" : "NO", ledger_ok ? "ok" : "FAIL");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(ops_failed), metrics.c_str());
  return 0;
}
