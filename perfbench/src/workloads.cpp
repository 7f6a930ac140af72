// flare-lint: allow-file(wall-clock) — set-up and run spans of the
// benchmark workloads; simulation state never reads them.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "core/buffer_pool.hpp"
#include "net/flow.hpp"
#include "pspin/experiment.hpp"
#include "workload/cross_traffic.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

constexpr f64 kPsPerUsF = static_cast<f64>(kPsPerUs);

// ------------------------------------------------------------- inputs ---

/// The shape of one tenant job.  A workload's job list is a fixed multiset
/// of shapes: consecutive blocks of jobs each hold every shape once, in a
/// seeded order.  The seed also draws each job's hosts and arrival jitter.
/// The offered load thus has the same mix over any stretch of time and
/// across seeds, while the inputs differ.
struct JobShape {
  core::DType dtype = core::DType::kInt32;
  u64 bytes = 0;
  u32 hosts = 0;
  bool sparse = false;
  /// Leaves the job's hosts sit under, an equal share on each; 0 places
  /// them anywhere in the fabric.
  u32 leaves = 0;
};

struct JobPlan {
  JobShape shape;
  SimTime at = 0;
  std::vector<u32> hosts;
  u64 seed = 0;
};

/// `n` items cycling through `kinds`, each consecutive block of
/// kinds.size() items shuffled by `rng`.
template <typename T>
std::vector<T> block_shuffle(const std::vector<T>& kinds, u32 n, Rng& rng) {
  std::vector<T> out;
  for (u32 i = 0; i < n; ++i) out.push_back(kinds[i % kinds.size()]);
  for (std::size_t b = 0; b < n; b += kinds.size()) {
    const std::size_t len = std::min<std::size_t>(kinds.size(), n - b);
    for (std::size_t i = len; i > 1; --i) {
      std::swap(out[b + i - 1], out[b + rng.uniform_u64(i)]);
    }
  }
  return out;
}

/// `k` distinct values of [0, n), drawn by a partial Fisher-Yates shuffle.
std::vector<u32> pick(u32 n, u32 k, Rng& rng) {
  std::vector<u32> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (u32 i = 0; i < k; ++i) {
    std::swap(ids[i], ids[i + rng.uniform_u64(n - i)]);
  }
  ids.resize(k);
  return ids;
}

/// Jobs over a fabric of `leaves` leaves with `per_leaf` hosts each (host
/// index = leaf * per_leaf + slot, as build_fat_tree numbers them).
/// Open-loop arrivals: job i is due at i * gap plus a seeded jitter in
/// [0, gap), whatever the completions.
std::vector<JobPlan> plan_jobs(u64 seed, u32 leaves, u32 per_leaf, u32 jobs,
                               SimTime gap,
                               const std::vector<JobShape>& shapes) {
  Rng rng(derive_seed(seed, 1));
  const std::vector<JobShape> pool = block_shuffle(shapes, jobs, rng);
  std::vector<JobPlan> out;
  for (u32 i = 0; i < jobs; ++i) {
    JobPlan p;
    p.shape = pool[i];
    p.at = static_cast<SimTime>(i) * gap + rng.uniform_u64(gap);
    if (p.shape.leaves == 0) {
      p.hosts = pick(leaves * per_leaf, p.shape.hosts, rng);
    } else {
      for (const u32 leaf : pick(leaves, p.shape.leaves, rng)) {
        for (const u32 slot :
             pick(per_leaf, p.shape.hosts / p.shape.leaves, rng)) {
          p.hosts.push_back(leaf * per_leaf + slot);
        }
      }
    }
    p.seed = derive_seed(seed, 100 + i);
    out.push_back(std::move(p));
  }
  return out;
}

service::JobSpec job_spec(const JobPlan& p, const net::BuiltTopology& topo,
                          u32 iterations, SimTime iteration_gap) {
  service::JobSpec spec;
  for (const u32 h : p.hosts) spec.participants.push_back(topo.hosts[h]);
  spec.desc.dtype = p.shape.dtype;
  spec.desc.seed = p.seed;
  spec.desc.data_bytes = p.shape.bytes;
  if (p.shape.sparse) {
    spec.desc.algorithm = coll::Algorithm::kFlareSparse;
    spec.desc.sparse.block_span = 1280;
    spec.desc.sparse.num_blocks = static_cast<u32>(
        p.shape.bytes / (1280 * core::dtype_size(p.shape.dtype)));
    const core::DType dt = p.shape.dtype;
    spec.desc.sparse.epoch_pairs = [dt](u64 epoch, u32 h, u32 b) {
      const workload::SparseSpec s{1280, 0.08, 0.5, dt, epoch};
      return workload::sparse_block_pairs(s, h, b);
    };
  }
  spec.iterations = iterations;
  spec.iteration_gap_ps = iteration_gap;
  return spec;
}

// ------------------------------------------------------------ results ---

struct PoolMark {
  core::pool_detail::PoolStats at = core::pool_detail::payload_pool_stats();
  void report(RepResult& r) const {
    const auto now = core::pool_detail::payload_pool_stats();
    const f64 fresh = static_cast<f64>(now.fresh - at.fresh);
    const f64 reused = static_cast<f64>(now.reused - at.reused);
    r.layer["core.pool_fresh"] = fresh;
    r.layer["core.pool_reused"] = reused;
    r.layer["core.pool_reuse_ratio"] =
        fresh + reused == 0.0 ? 0.0 : reused / (fresh + reused);
  }
};

/// The traced step driver's classes, and the rates derived from them.
void add_driver_results(const StepDriver& drv, f64 loop_s, RepResult& r) {
  const auto& c = drv.charged_s();
  r.layer["net.data_s"] = c[kChargeData];
  r.layer["flow.self_s"] = c[kChargeFlow];
  r.layer["monitor.self_s"] = c[kChargeMonitor];
  r.layer["manager.self_s"] = c[kChargeManager];
  r.layer["place.self_s"] = c[kChargePlace];
  r.layer["trace.charged_s"] =
      std::accumulate(c.begin(), c.end(), 0.0) + r.layer["obs.export_s"];
  auto per = [&](const char* name, f64 s, const char* count, f64 scale) {
    const f64 n = r.layer[count];
    r.layer[name] = n == 0.0 ? 0.0 : s / n * scale;
  };
  per("sim.ns_per_event", loop_s, "sim.events", 1e9);
  per("net.ns_per_packet", c[kChargeData], "net.packets", 1e9);
  per("flow.us_per_recompute", c[kChargeFlow], "flow.recomputes", 1e6);
  per("monitor.us_per_sample", c[kChargeMonitor], "monitor.samples", 1e6);
  per("place.ms_per_round", c[kChargePlace], "place.rounds", 1e3);
}

/// Runs the calendar through the final metrics export; fills wall_s and
/// the export span, and returns the calendar loop's own host time.
f64 run_and_export(StepDriver& drv, net::Network& net,
                   const service::AllreduceService* svc, bool traced,
                   RepResult& r) {
  const Clock::time_point tw = Clock::now();
  drv.run(traced);
  const f64 loop_s = seconds_since(tw);
  const Clock::time_point te = Clock::now();
  r.layer["obs.export_bytes"] = static_cast<f64>(export_metrics(net, svc));
  r.layer["obs.export_s"] = seconds_since(te);
  r.wall_s = seconds_since(tw);
  return loop_s;
}

/// Job records -> output checks, digest, and the service-level metrics.
/// A job passes when it is done, ok, ran all its iterations and, for an
/// integer dtype, matches the reference bit for bit.
void add_service_results(const service::AllreduceService& svc,
                         const std::vector<JobPlan>& plan, u32 iterations,
                         RepResult& r, Digest& d) {
  std::vector<f64> sojourn_us;
  std::vector<f64> queue_us;
  f64 payload_bits = 0.0;
  SimTime makespan = 0;
  u64 in_network = 0;
  u64 spill = 0;
  for (const service::JobRecord& rec : svc.records()) {
    // Ids follow arrival order, which plan_jobs makes strictly increasing.
    const JobPlan& p = plan.at(rec.job_id);
    r.ops += 1;
    const bool good = rec.arrival_ps == p.at &&
                      rec.state == service::JobState::kDone && rec.ok &&
                      rec.iterations_done == iterations &&
                      (core::dtype_is_float(p.shape.dtype) || rec.exact);
    if (!good) r.ops_failed += 1;
    sojourn_us.push_back(static_cast<f64>(rec.finish_ps - rec.arrival_ps) /
                         kPsPerUsF);
    queue_us.push_back(static_cast<f64>(rec.start_ps - rec.arrival_ps) /
                       kPsPerUsF);
    payload_bits += 8.0 * static_cast<f64>(rec.data_bytes) *
                    static_cast<f64>(rec.iterations_done);
    makespan = std::max(makespan, rec.finish_ps);
    in_network += rec.in_network ? 1 : 0;
    spill += rec.spill_packets;
    for (const u64 v :
         {static_cast<u64>(rec.job_id), static_cast<u64>(rec.state),
          static_cast<u64>(rec.in_network), static_cast<u64>(rec.ok),
          static_cast<u64>(rec.exact), rec.arrival_ps, rec.start_ps,
          rec.finish_ps, static_cast<u64>(rec.iterations_done),
          static_cast<u64>(rec.migrations),
          static_cast<u64>(rec.planned_migrations), rec.retransmits,
          rec.spill_packets, static_cast<u64>(rec.tree_root)}) {
      d.mix(v);
    }
  }
  if (svc.records().size() < plan.size()) {  // a job that never arrived
    const u64 missing = plan.size() - svc.records().size();
    r.ops += missing;
    r.ops_failed += missing;
  }
  const service::ServiceTelemetry& t = svc.telemetry();
  const f64 jobs = static_cast<f64>(svc.records().size());
  r.sim["sim_makespan_us"] = static_cast<f64>(makespan) / kPsPerUsF;
  r.sim["sim_job_p50_us"] = percentile(sojourn_us, 0.5);
  r.sim["sim_goodput_gbps"] =
      payload_bits / (static_cast<f64>(makespan) / kPsPerSecond) / 1e9;
  r.layer["service.sojourn_p90_us"] =
      sojourn_us.size() >= 100 ? percentile(sojourn_us, 0.9) : 0.0;
  r.layer["service.queue_delay_p50_us"] = percentile(queue_us, 0.5);
  r.layer["service.peak_queue_len"] = static_cast<f64>(t.peak_queue_len);
  r.layer["service.migrations"] = static_cast<f64>(t.migrations);
  r.layer["service.planned_migrations"] =
      static_cast<f64>(t.planned_migrations);
  r.layer["service.admission_reorders"] =
      static_cast<f64>(t.admission_reorders);
  r.layer["coll.in_network_frac"] = static_cast<f64>(in_network) / jobs;
  r.layer["coll.fallbacks"] =
      static_cast<f64>(t.fallback() + t.fault_fallbacks);
  r.layer["coll.retransmits"] = static_cast<f64>(t.retransmits);
  r.layer["coll.spill_packets"] = static_cast<f64>(spill);
  const coll::TreeCache& cache = svc.tree_cache();
  const u64 lookups = cache.hits() + cache.misses();
  r.layer["manager.admission_attempts"] =
      static_cast<f64>(t.admission_attempts);
  r.layer["manager.requeue_retries"] = static_cast<f64>(t.requeue_retries);
  r.layer["manager.cache_hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<f64>(cache.hits()) /
                         static_cast<f64>(lookups);
  r.layer["place.rounds"] = static_cast<f64>(t.place.rounds);
  r.layer["place.moves_planned"] = static_cast<f64>(t.place.moves_planned);
  r.layer["place.moves_rejected"] = static_cast<f64>(t.place.moves_rejected);
  r.layer["place.realized_over_predicted"] =
      t.place.last_cost_predicted == 0.0
          ? 0.0
          : t.place.last_cost_realized / t.place.last_cost_predicted;
}

}  // namespace

// ------------------------------------------------------ tenants_packet ---

namespace {

/// 64-host 2-level fat tree serving 216 dense allreduce tenants, one due
/// every 10 us.  Four reduction slots per switch: some jobs queue, and
/// those still waiting after 60 us fall back to the host ring.
RepResult tenants_packet(u64 seed, Mode mode) {
  constexpr u32 kJobs = 216;
  constexpr u32 kIterations = 1;
  constexpr SimTime kWindow = 10 * kPsPerUs;
  RepResult r;
  Digest d;
  const PoolMark pool;
  const Clock::time_point t0 = Clock::now();
  net::Network net;
  net::FatTreeSpec ts;
  ts.hosts = 64;
  ts.radix = 8;
  ts.max_allreduces = 4;
  const net::BuiltTopology topo = net::build_fat_tree(net, ts);
  r.layer["net.build_s"] = seconds_since(t0);

  const Clock::time_point tg = Clock::now();
  std::vector<JobShape> shapes;
  for (const u32 hosts : {4u, 8u}) {
    for (const u64 kib : {64u, 128u, 256u}) {
      for (const core::DType dt :
           {core::DType::kFloat32, core::DType::kInt32, core::DType::kInt16}) {
        shapes.push_back({dt, kib * kKiB, hosts, false});
      }
    }
  }
  const std::vector<JobPlan> plan =
      plan_jobs(seed, 16, 4, kJobs, 10 * kPsPerUs, shapes);
  r.layer["workload.gen_s"] = seconds_since(tg);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastLoaded;
  opt.queue_timeout_ps = 60 * kPsPerUs;
  service::AllreduceService svc(net, opt);
  const Clock::time_point ts0 = Clock::now();
  for (const JobPlan& p : plan) {
    svc.submit_at(p.at, job_spec(p, topo, kIterations, 0));
  }
  r.layer["service.submit_s"] = seconds_since(ts0);
  r.setup_s = seconds_since(t0);
  if (mode == Mode::kSetup) return r;

  StepDriver drv(net, &svc, nullptr, kWindow);
  const f64 loop_s = run_and_export(drv, net, &svc, mode == Mode::kTraced, r);

  add_service_results(svc, plan, kIterations, r, d);
  add_network_results(net, r, d);
  r.sim["sim_worst_link_util"] = drv.worst_link_util_mean();
  add_driver_results(drv, loop_s, r);
  pool.report(r);
  r.digest = d.h;
  return r;
}

}  // namespace

// --------------------------------------------------- congested_service ---

namespace {

/// The same 64-host fabric and service as tenants_packet, but control-
/// heavy: flow-mode on/off + incast background heat, a CongestionMonitor,
/// least-congested roots, reactive migration, periodic placement rounds
/// and scored admission, serving dense and flare-sparse jobs that iterate
/// on a duty cycle.  Jobs sit on two leaves each (rack-local, as a
/// scheduler places them) and two slots per switch make some queue, so
/// scored admission has a choice to make.  The background is many light
/// flows (10 Gbps each): with a few 50 Gbps flows a job's fate hinged on
/// meeting one that saturates its link, and the simulated results swung by
/// a third from seed to seed.
RepResult congested_service(u64 seed, Mode mode) {
  constexpr u32 kJobs = 48;
  constexpr u32 kIterations = 4;
  constexpr SimTime kGap = 25 * kPsPerUs;
  constexpr SimTime kIterationGap = 10 * kPsPerUs;
  constexpr SimTime kHorizon = kJobs * kGap + 300 * kPsPerUs;
  RepResult r;
  Digest d;
  const PoolMark pool;
  const Clock::time_point t0 = Clock::now();
  net::Network net;
  net::FatTreeSpec ts;
  ts.hosts = 64;
  ts.radix = 8;
  ts.max_allreduces = 2;
  const net::BuiltTopology topo = net::build_fat_tree(net, ts);
  r.layer["net.build_s"] = seconds_since(t0);

  const Clock::time_point tg = Clock::now();
  std::vector<JobShape> shapes;
  for (const u32 hosts : {4u, 8u}) {
    shapes.push_back({core::DType::kInt32, 64 * kKiB, hosts, false, 2});
    shapes.push_back({core::DType::kFloat32, 64 * kKiB, hosts, false, 2});
    shapes.push_back({core::DType::kInt32, 128 * kKiB, hosts, false, 2});
    shapes.push_back({core::DType::kInt32, 60 * kKiB, hosts, true, 2});
  }
  const std::vector<JobPlan> plan =
      plan_jobs(seed, 16, 4, kJobs, kGap, shapes);
  workload::CrossTrafficSpec ct;
  ct.flow_mode = true;
  ct.flows = 48;
  ct.flow_rate_bps = 10e9;
  ct.incast_bursts = 6;
  ct.incast_fanin = 8;
  ct.horizon_ps = kHorizon;
  ct.seed = derive_seed(seed, 2);
  workload::CrossTrafficInjector injector(net, ct);
  injector.arm();
  r.layer["workload.gen_s"] = seconds_since(tg);

  net::CongestionMonitor monitor(net);
  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  opt.queue_timeout_ps = 200 * kPsPerUs;
  opt.migrate_above = 0.45;
  opt.cache_stale_above = 0.6;
  opt.place_period_ps = 100 * kPsPerUs;
  opt.place_iterations = 200;
  opt.place_seed = derive_seed(seed, 3);
  opt.admission_scoring = true;
  service::AllreduceService svc(net, opt);
  monitor.arm_until(kHorizon);
  const Clock::time_point ts0 = Clock::now();
  for (const JobPlan& p : plan) {
    svc.submit_at(p.at, job_spec(p, topo, kIterations, kIterationGap));
  }
  r.layer["service.submit_s"] = seconds_since(ts0);
  r.setup_s = seconds_since(t0);
  if (mode == Mode::kSetup) return r;

  StepDriver drv(net, &svc, &monitor);
  const f64 loop_s = run_and_export(drv, net, &svc, mode == Mode::kTraced, r);

  add_service_results(svc, plan, kIterations, r, d);
  add_network_results(net, r, d);
  r.sim["sim_worst_link_util"] = drv.worst_link_util_mean();
  r.layer["monitor.samples"] = static_cast<f64>(monitor.samples());
  add_driver_results(drv, loop_s, r);
  pool.report(r);
  r.digest = d.h;
  return r;
}

}  // namespace

// ---------------------------------------------------- scale_background ---

namespace {

/// The 10,400-host 3-level fat tree (radix 40, 26 pods) under flow-mode
/// on/off + incast background and a CongestionMonitor, plus seeded bulk
/// host-to-host transfers — the flow plane's "jobs" — with no collectives.
RepResult scale_background(u64 seed, Mode mode) {
  constexpr u32 kTransfers = 384;
  constexpr SimTime kHorizon = 800 * kPsPerUs;
  RepResult r;
  Digest d;
  const PoolMark pool;
  const Clock::time_point t0 = Clock::now();
  net::Network net;
  net::FatTree3Spec ts;
  ts.radix = 40;
  ts.pods = 26;
  const net::BuiltTopology3 topo = net::build_fat_tree_3level(net, ts);
  const u32 hosts = static_cast<u32>(topo.hosts.size());
  r.layer["net.build_s"] = seconds_since(t0);

  const Clock::time_point tg = Clock::now();
  workload::CrossTrafficSpec ct;
  ct.flow_mode = true;
  ct.flows = 128;
  ct.incast_bursts = 8;
  ct.incast_fanin = 32;
  ct.horizon_ps = kHorizon;
  ct.seed = derive_seed(seed, 2);
  workload::CrossTrafficInjector injector(net, ct);
  injector.arm();
  // Bulk transfers: clients, each paced at a seeded 20-50 Gbps, write a
  // fixed multiset of sizes (block-shuffled) to 32 seeded storage hosts at
  // jittered open-loop arrival instants.  Shared storage links make the
  // transfers contend through the fair-share solver.
  struct Transfer {
    net::FlowSpec spec;
    SimTime at = 0;
  };
  Rng rng(derive_seed(seed, 4));
  const std::vector<u64> sizes =
      block_shuffle<u64>({64 * kKiB, 256 * kKiB, 512 * kKiB}, kTransfers, rng);
  std::vector<u32> storage;
  for (u32 i = 0; i < 32; ++i) {
    storage.push_back(static_cast<u32>(rng.uniform_u64(hosts)));
  }
  const SimTime gap = kHorizon / kTransfers;
  std::vector<Transfer> transfers;
  for (u32 i = 0; i < kTransfers; ++i) {
    Transfer t;
    t.spec.dst_host = storage[rng.uniform_u64(storage.size())];
    t.spec.src_host = static_cast<u32>(
        (t.spec.dst_host + 1 + rng.uniform_u64(hosts - 1)) % hosts);
    t.spec.bytes = sizes[i];
    t.spec.rate_cap_bps = rng.uniform(20e9, 50e9);
    t.spec.flow_label = rng();
    t.at = static_cast<SimTime>(i) * gap + rng.uniform_u64(gap);
    transfers.push_back(std::move(t));
  }
  r.layer["workload.gen_s"] = seconds_since(tg);

  net::CongestionMonitorOptions mopt;
  mopt.period_ps = 20 * kPsPerUs;
  net::CongestionMonitor monitor(net, mopt);
  monitor.arm_until(kHorizon);
  std::vector<SimTime> finish(kTransfers, 0);
  for (u32 i = 0; i < kTransfers; ++i) {
    net::FlowSpec spec = transfers[i].spec;
    spec.on_complete = [&finish, i](SimTime at) { finish[i] = at; };
    net.flows().start_flow_at(transfers[i].at, std::move(spec));
  }
  r.setup_s = seconds_since(t0);
  if (mode == Mode::kSetup) return r;

  // No registry export here: its per-link families would be ~17 MiB of
  // JSON at this scale and swamp the flow solver this workload is for.
  StepDriver drv(net, nullptr, &monitor);
  const Clock::time_point tw = Clock::now();
  drv.run(mode == Mode::kTraced);
  r.wall_s = seconds_since(tw);
  const f64 loop_s = r.wall_s;

  std::vector<f64> done_us;
  f64 bits = 8.0 * static_cast<f64>(injector.bytes_armed());
  for (u32 i = 0; i < kTransfers; ++i) {
    r.ops += 1;
    if (finish[i] == 0) {
      r.ops_failed += 1;
      continue;
    }
    done_us.push_back(static_cast<f64>(finish[i] - transfers[i].at) /
                      kPsPerUsF);
    bits += 8.0 * static_cast<f64>(transfers[i].spec.bytes);
    d.mix(finish[i]);
  }
  // The calendar drained, so every transfer started; the flow manager's
  // other flows are the injector's, each one check.
  const net::FlowManager& fm = net.flows();
  const u64 transfers_done = done_us.size();
  const u64 bg_started =
      fm.flows_started() - std::min<u64>(fm.flows_started(), kTransfers);
  const u64 bg_finished =
      fm.flows_finished() - std::min(fm.flows_finished(), transfers_done);
  r.ops += bg_started;
  r.ops_failed += bg_started - std::min(bg_started, bg_finished);
  const f64 makespan_s = static_cast<f64>(net.sim().now()) / kPsPerSecond;
  r.sim["sim_makespan_us"] = static_cast<f64>(net.sim().now()) / kPsPerUsF;
  r.sim["sim_job_p50_us"] = percentile(done_us, 0.5);
  r.sim["sim_goodput_gbps"] = bits / makespan_s / 1e9;
  add_network_results(net, r, d);
  r.sim["sim_worst_link_util"] = drv.worst_link_util_mean();
  r.layer["monitor.samples"] = static_cast<f64>(monitor.samples());
  add_driver_results(drv, loop_s, r);
  pool.report(r);
  r.digest = d.h;
  return r;
}

}  // namespace

// -------------------------------------------------------- pspin_switch ---

namespace {

struct PspinCase {
  const char* name;
  core::DType dtype;
  core::AggPolicy policy;
  u32 buffers;
  bool sparse;
};

constexpr PspinCase kPspinCases[] = {
    {"int32_single", core::DType::kInt32, core::AggPolicy::kSingleBuffer, 1,
     false},
    {"fp32_tree", core::DType::kFloat32, core::AggPolicy::kTree, 1, false},
    {"int8_multi4", core::DType::kInt8, core::AggPolicy::kMultiBuffer, 4,
     false},
    {"sparse_hash", core::DType::kInt32, core::AggPolicy::kSingleBuffer, 1,
     true},
};

/// Digest of the host inputs one case will reduce, made with the same
/// public generators, geometry and seed pspin::run_single_switch uses.
/// pspin has no set-up separate from its run; generating (and pinning)
/// the inputs is this workload's set-up.
void digest_inputs(const pspin::SingleSwitchOptions& o, Digest& d) {
  const u64 elems = std::max<u64>(1, o.data_bytes / core::dtype_size(o.dtype));
  if (!o.sparse) {
    for (const core::TypedBuffer& b :
         workload::make_dense_data(o.hosts, elems, o.dtype, o.seed)) {
      for (std::size_t i = 0; i + 8 <= b.size_bytes(); i += 8) {
        u64 word = 0;
        std::memcpy(&word, b.data() + i, sizeof(word));
        d.mix(word);
      }
    }
    return;
  }
  const u32 ppp = core::sparse_pairs_per_packet(o.packet_payload, o.dtype);
  const u32 span =
      std::max<u32>(1, static_cast<u32>(static_cast<f64>(ppp) / o.density));
  const workload::SparseSpec spec{span, o.density, o.index_overlap, o.dtype,
                                  o.seed};
  for (u32 h = 0; h < o.hosts; ++h) {
    for (u64 b = 0; b * span < elems; ++b) {
      for (const core::SparsePair& p :
           workload::sparse_block_pairs(spec, h, static_cast<u32>(b))) {
        d.mix(p.index);
        d.mix_f64(p.value);
      }
    }
  }
}

/// pspin::run_single_switch with 16 hosts on the paper's full PsPIN unit,
/// one run per case: the engine policies, reduce kernels and HPU model
/// with no network around them.
RepResult pspin_switch(u64 seed, Mode mode) {
  constexpr u64 kBytes = 1 * kMiB;
  RepResult r;
  Digest d;
  const PoolMark pool;
  const Clock::time_point t0 = Clock::now();
  std::vector<pspin::SingleSwitchOptions> opts;
  for (u32 i = 0; i < std::size(kPspinCases); ++i) {
    const PspinCase& c = kPspinCases[i];
    pspin::SingleSwitchOptions o;
    o.hosts = 16;
    o.data_bytes = kBytes;
    o.dtype = c.dtype;
    o.policy = c.policy;
    o.num_buffers = c.buffers;
    o.sparse = c.sparse;
    o.hash_storage = true;
    o.index_overlap = 0.5;
    o.seed = derive_seed(seed, 10 + i);
    digest_inputs(o, d);
    opts.push_back(o);
  }
  r.setup_s = seconds_since(t0);
  r.layer["workload.gen_s"] = r.setup_s;
  if (mode == Mode::kSetup) return r;

  const Clock::time_point tw = Clock::now();
  std::vector<pspin::SingleSwitchResult> results;
  for (u32 i = 0; i < opts.size(); ++i) {
    const Clock::time_point tc = Clock::now();
    results.push_back(pspin::run_single_switch(opts[i]));
    r.layer[std::string("pspin.") + kPspinCases[i].name + ".wall_s"] =
        seconds_since(tc);
  }
  r.wall_s = seconds_since(tw);
  // run_single_switch has no step loop to charge, so this workload's
  // ledger is the four spans that make up wall_s: it holds by
  // construction and checks only that nothing else runs between them.
  r.layer["trace.charged_s"] = 0.0;
  for (const PspinCase& c : kPspinCases) {
    r.layer["trace.charged_s"] +=
        r.layer[std::string("pspin.") + c.name + ".wall_s"];
  }

  std::vector<f64> makespan_us;
  f64 log_goodput = 0.0;
  f64 buffer_share = 0.0;
  f64 traffic = 0.0;
  for (u32 i = 0; i < results.size(); ++i) {
    const pspin::SingleSwitchResult& res = results[i];
    const pspin::SingleSwitchOptions& o = opts[i];
    const std::string p = std::string("pspin.") + kPspinCases[i].name + ".";
    r.ops += 1;
    if (!res.correct) r.ops_failed += 1;
    makespan_us.push_back(static_cast<f64>(res.makespan_cycles) /
                          (o.unit.clock_ghz * 1e3));
    log_goodput += std::log(res.goodput_bps / 1e9);
    buffer_share += static_cast<f64>(res.input_buffer_hwm_bytes) /
                    static_cast<f64>(o.unit.l2_packet_bytes);
    traffic +=
        static_cast<f64>(res.host_payload_bytes + res.emitted_wire_bytes);
    r.layer[p + "goodput_gbps"] = res.goodput_bps / 1e9;
    r.layer[p + "cs_wait_cycles"] = res.cs_wait_mean_cycles;
    r.layer[p + "input_hwm_kib"] =
        static_cast<f64>(res.input_buffer_hwm_bytes) / 1024.0;
    r.layer[p + "drops"] = static_cast<f64>(res.drops);
    for (const u64 v : {res.makespan_cycles, res.result_checksum,
                        res.blocks_completed, res.drops,
                        res.emitted_wire_bytes}) {
      d.mix(v);
    }
  }
  const f64 n = static_cast<f64>(results.size());
  r.sim["sim_makespan_us"] =
      std::accumulate(makespan_us.begin(), makespan_us.end(), 0.0);
  r.sim["sim_job_p50_us"] = percentile(makespan_us, 0.5);
  r.sim["sim_goodput_gbps"] = std::exp(log_goodput / n);
  r.sim["sim_traffic_mb"] = traffic / static_cast<f64>(kMiB);
  // No fabric: the busiest shared resource is the switch's L2 packet
  // memory, reported as its peak occupancy share (mean over cases).
  r.sim["sim_worst_link_util"] = buffer_share / n;
  pool.report(r);
  r.digest = d.h;
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"tenants_packet", &tenants_packet},
      {"congested_service", &congested_service},
      {"scale_background", &scale_background},
      {"pspin_switch", &pspin_switch},
  };
  return all;
}

}  // namespace perfbench
