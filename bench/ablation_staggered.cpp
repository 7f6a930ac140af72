// Ablation — the two scheduling-side design choices of Section 5:
//
//  (a) staggered vs aligned sending (delta_c control) for the contention-
//      prone single-buffer policy across sizes;
//  (b) hierarchical FCFS (block -> cluster-local core subset) vs global
//      FCFS, which pays remote-L1 penalties on nearly every aggregation.
#include <cstdio>

#include "bench_util.hpp"
#include "pspin/experiment.hpp"

using namespace flare;

namespace {

pspin::SingleSwitchOptions base(u64 bytes) {
  pspin::SingleSwitchOptions opt;
  opt.unit.n_clusters = 16;
  opt.hosts = 16;
  opt.data_bytes = bytes;
  opt.dtype = core::DType::kFloat32;
  opt.policy = core::AggPolicy::kSingleBuffer;
  opt.seed = 17;
  return opt;
}

}  // namespace

int main() {
  bench::print_title("Ablation",
                     "staggered sending & hierarchical FCFS scheduling");
  bench::JsonReport report("ablation_staggered");
  bool all_correct = true;

  std::printf("  (a) staggered vs aligned sending, single buffer "
              "(Tbps, scaled to 64 clusters):\n");
  std::printf("  %-8s %12s %12s %9s | %14s %14s\n", "size", "staggered",
              "aligned", "gain", "cs-wait stag", "cs-wait align");
  for (const u64 z : {64_KiB, 256_KiB, 1_MiB}) {
    pspin::SingleSwitchOptions stag = base(z);
    stag.order = core::SendOrder::kStaggered;
    const auto rs = pspin::run_single_switch(stag);
    pspin::SingleSwitchOptions ali = base(z);
    ali.order = core::SendOrder::kAligned;
    const auto ra = pspin::run_single_switch(ali);
    all_correct = all_correct && rs.correct && ra.correct;
    const f64 scale = 64.0 / 16.0;
    std::printf("  %-8s %12s %12s %8.2fx | %14.0f %14.0f\n",
                bench::fmt_size(z).c_str(),
                bench::fmt_tbps(rs.goodput_bps * scale).c_str(),
                bench::fmt_tbps(ra.goodput_bps * scale).c_str(),
                rs.goodput_bps / ra.goodput_bps, rs.cs_wait_mean_cycles,
                ra.cs_wait_mean_cycles);
    report.add("staggered_gain_" + bench::fmt_size(z),
               rs.goodput_bps / ra.goodput_bps);
  }

  std::printf("\n  (b) hierarchical FCFS (local L1) vs global FCFS "
              "(remote L1, up to 25x access cost):\n");
  std::printf("  %-8s %14s %14s %9s\n", "size", "hierarchical", "global",
              "gain");
  for (const u64 z : {64_KiB, 256_KiB}) {
    pspin::SingleSwitchOptions hier = base(z);
    const auto rh = pspin::run_single_switch(hier);
    pspin::SingleSwitchOptions glob = base(z);
    glob.unit.scheduler = pspin::SchedulerKind::kGlobalFcfs;
    const auto rg = pspin::run_single_switch(glob);
    all_correct = all_correct && rh.correct && rg.correct;
    const f64 scale = 64.0 / 16.0;
    std::printf("  %-8s %14s %14s %8.2fx\n", bench::fmt_size(z).c_str(),
                bench::fmt_tbps(rh.goodput_bps * scale).c_str(),
                bench::fmt_tbps(rg.goodput_bps * scale).c_str(),
                rh.goodput_bps / rg.goodput_bps);
    report.add("hierarchical_gain_" + bench::fmt_size(z),
               rh.goodput_bps / rg.goodput_bps);
  }
  report.emit();
  return bench::exit_status(all_correct);
}
