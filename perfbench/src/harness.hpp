// Shared pieces of the repo benchmark: host-time spans, the simulated-
// result digest, the per-rep result record, and the step driver that runs a
// Network's calendar and (in traced mode) charges each event's host time to
// the layer whose public counter it advanced.
//
// flare-lint: allow-file(wall-clock) — the benchmark measures host time;
// std::chrono::steady_clock never feeds simulation state, only the
// reported figures.
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"
#include "net/telemetry.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace flare;

using Clock = std::chrono::steady_clock;

inline f64 seconds_since(Clock::time_point t0) {
  return std::chrono::duration<f64>(Clock::now() - t0).count();
}

/// Order-sensitive 64-bit digest of simulated results.  Host time never
/// enters it, so it must read the same on every repeat of a seed, traced
/// or not.
struct Digest {
  u64 h = 0xCBF29CE484222325ull;
  void mix(u64 v) { h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2); }
  void mix_f64(f64 v);
};

/// One set-up + run of a workload.
struct RepResult {
  f64 setup_s = 0.0;  ///< host: topology, inputs, control planes, submits
  f64 wall_s = 0.0;   ///< host: first calendar event through final export
  u64 digest = 0;
  u64 ops = 0;         ///< output checks made
  u64 ops_failed = 0;  ///< output checks that failed
  /// Simulated end-to-end metrics (deterministic in the seed).
  std::map<std::string, f64> sim;
  /// Per-layer metrics of this rep (the step loop charges host time to
  /// its classes only when traced).
  std::map<std::string, f64> layer;
};

/// Host-time classes of the traced step loop, in charging precedence.
enum Charge : int {
  kChargePlace = 0,
  kChargeFlow,
  kChargeMonitor,
  kChargeManager,
  kChargeData,  ///< everything else: the lumped packet data plane
  kChargeCount,
};

/// Drains a Network's calendar with Simulator::step() — the same pops, in
/// the same order, as Simulator::run().  After every event it reads the
/// monitor's sample counter so the fabric-wide worst link utilization is
/// taken at the monitor's own sample instants (the benchmark schedules no
/// events of its own).  A fabric without a monitor gets the same reading
/// from windows of `window_ps` closed by the first event past each window,
/// diffing Link::busy_cum_ps as the monitor does.  When traced, the host
/// time of each step() call goes to the first class whose O(1) public
/// counter advanced during it; time between the calls is not charged.
class StepDriver {
 public:
  StepDriver(net::Network& net, const service::AllreduceService* svc,
             const net::CongestionMonitor* mon, SimTime window_ps = 0)
      : net_(net), svc_(svc), mon_(mon), window_ps_(window_ps) {}

  void run(bool traced);

  /// Fabric-wide max link utilization per window, averaged over the
  /// windows weighted by their length: the service samples the monitor at
  /// its decision points too, and a sliver of a window must not weigh as
  /// much as a whole period.  0 when no window was observed.
  f64 worst_link_util_mean() const {
    return windowed_ps_ == 0
               ? 0.0
               : worst_weighted_ / static_cast<f64>(windowed_ps_);
  }
  const std::array<f64, kChargeCount>& charged_s() const { return charged_; }

 private:
  struct Counters {
    u64 place = 0;
    u64 recomputes = 0;
    u64 samples = 0;
    u64 manager = 0;
  };
  Counters read() const;
  void observe_monitor();
  void observe_window();
  void add_window(f64 worst, SimTime length);

  net::Network& net_;
  const service::AllreduceService* svc_;
  const net::CongestionMonitor* mon_;
  SimTime window_ps_;
  SimTime window_start_ = 0;
  std::vector<u64> busy_at_start_;
  u64 last_epoch_ = 0;
  SimTime last_window_at_ = 0;
  f64 worst_weighted_ = 0.0;
  SimTime windowed_ps_ = 0;
  std::array<f64, kChargeCount> charged_{};
};

/// Fabric-wide counters every network workload reports: link traffic,
/// drops, busy time, switch aggregation work, and the digest of per-link
/// busy time and the final clock.
void add_network_results(net::Network& net, RepResult& r, Digest& d);

/// Exports the network (and service, when given) metrics through the obs
/// registry, as a user reading the run's telemetry would; returns the
/// export's size in bytes.
u64 export_metrics(net::Network& net, const service::AllreduceService* svc);

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
f64 percentile(std::vector<f64> v, f64 q);

}  // namespace perfbench
