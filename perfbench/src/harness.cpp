// flare-lint: allow-file(wall-clock) — host-time spans of the benchmark's
// step driver; simulation state never reads them.
#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "net/flow.hpp"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void Digest::mix_f64(f64 v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

StepDriver::Counters StepDriver::read() const {
  Counters c;
  if (svc_ != nullptr) {
    const service::ServiceTelemetry& t = svc_->telemetry();
    c.place = t.place.rounds;
    c.manager = t.admission_attempts + t.requeue_retries + t.migrations +
                t.planned_migrations + svc_->tree_cache().misses();
  }
  if (net_.has_flows()) c.recomputes = net_.flows().recomputes();
  if (mon_ != nullptr) c.samples = mon_->samples();
  return c;
}

void StepDriver::observe_monitor() {
  if (mon_ == nullptr || mon_->samples() == last_epoch_) return;
  last_epoch_ = mon_->samples();
  const net::CongestionSnapshot& snap = mon_->snapshot();
  // A re-sample at the same instant opens no new window.
  if (snap.at == last_window_at_) return;
  f64 worst = 0.0;
  for (const net::LinkCongestion& lc : snap.links) {
    worst = std::max(worst, lc.inst_utilization);
  }
  add_window(worst, snap.at - last_window_at_);
  last_window_at_ = snap.at;
}

void StepDriver::observe_window() {
  const SimTime now = net_.sim().now();
  if (window_ps_ == 0 || now < window_start_ + window_ps_) return;
  busy_at_start_.resize(net_.num_links(), 0);
  f64 worst = 0.0;
  for (u32 i = 0; i < net_.num_links(); ++i) {
    const u64 busy = net_.link(i).busy_cum_ps();
    worst = std::max(worst, net::Link::windowed_utilization(
                                busy_at_start_[i], busy, window_start_, now));
    busy_at_start_[i] = busy;
  }
  add_window(worst, now - window_start_);
  window_start_ = now;
}

void StepDriver::add_window(f64 worst, SimTime length) {
  worst_weighted_ += worst * static_cast<f64>(length);
  windowed_ps_ += length;
}

void StepDriver::run(bool traced) {
  sim::Simulator& sim = net_.sim();
  if (!traced) {
    while (sim.step()) {
      observe_monitor();
      observe_window();
    }
    return;
  }
  // Only the step() call is timed: the counter reads, the observers and
  // the clock reads themselves stay uncharged, so the charged classes
  // cover the loop's wall time only as far as the events really fill it.
  Counters before = read();
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const bool more = sim.step();
    const f64 spent = seconds_since(t0);
    if (!more) break;
    const Counters after = read();
    Charge cls = kChargeData;
    if (after.place != before.place) {
      cls = kChargePlace;
    } else if (after.recomputes != before.recomputes) {
      cls = kChargeFlow;
    } else if (after.samples != before.samples) {
      cls = kChargeMonitor;
    } else if (after.manager != before.manager) {
      cls = kChargeManager;
    }
    charged_[cls] += spent;
    before = after;
    observe_monitor();
    observe_window();
  }
}

void add_network_results(net::Network& net, RepResult& r, Digest& d) {
  net.sync_flows();
  u64 busy_ps = 0;
  for (u32 i = 0; i < net.num_links(); ++i) {
    const net::Link& l = net.link(i);
    busy_ps += l.busy_cum_ps();
    d.mix(l.busy_cum_ps());
  }
  u64 reduce_packets = 0;
  for (const net::Switch* sw : net.switches()) {
    reduce_packets += sw->reduce_packets_processed();
  }
  const u64 drops = net.link_dropped_packets() + net.corrupt_dropped_packets() +
                    net.stale_reduce_dropped_packets() +
                    net.failed_switch_dropped_packets() +
                    net.unroutable_dropped_packets();
  d.mix(net.sim().total_events_run());
  d.mix(net.sim().now());
  d.mix(net.total_traffic_bytes());
  r.sim["sim_traffic_mb"] =
      static_cast<f64>(net.total_traffic_bytes()) / static_cast<f64>(kMiB);
  r.layer["sim.events"] = static_cast<f64>(net.sim().total_events_run());
  r.layer["net.packets"] = static_cast<f64>(net.total_packets());
  r.layer["net.drops"] = static_cast<f64>(drops);
  r.layer["net.link_busy_ms"] =
      static_cast<f64>(busy_ps) / static_cast<f64>(kPsPerMs);
  r.layer["core.switch_reduce_packets"] = static_cast<f64>(reduce_packets);
  if (net.has_flows()) {
    const net::FlowManager& fm = net.flows();
    r.layer["flow.started"] = static_cast<f64>(fm.flows_started());
    r.layer["flow.finished"] = static_cast<f64>(fm.flows_finished());
    r.layer["flow.recomputes"] = static_cast<f64>(fm.recomputes());
    r.layer["flow.reroutes"] = static_cast<f64>(fm.reroutes());
  }
}

u64 export_metrics(net::Network& net, const service::AllreduceService* svc) {
  obs::MetricsRegistry reg;
  obs::register_network_metrics(reg, net);
  if (svc != nullptr) obs::export_service_telemetry(reg, svc->telemetry());
  return reg.to_json().size();
}

f64 percentile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<f64>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
