// Single-switch experiment driver (Sections 6.4 and 7.1).
//
// P hosts hang off one Flare switch and run `rounds` back-to-back allreduce
// operations of `data_bytes` each.  Hosts pace their packets at an aggregate
// rate matched to the unit's modeled service rate (the paper sizes the
// system so interarrival >= service time; a real deployment converges there
// through congestion control), optionally with exponential jitter, and back
// off when the L2 packet memory runs hot — so the measured goodput IS the
// switch's achievable aggregation bandwidth.
//
// The driver checks functional correctness of every completed block against
// a serial reference reduction and reports the telemetry the paper's figures
// plot: bandwidth, input-buffer and working-memory occupancy, per-block
// latency and memory, and (sparse) the spill-induced extra traffic.
#pragma once

#include "core/policy.hpp"
#include "core/staggered.hpp"
#include "pspin/unit.hpp"
#include "workload/arrivals.hpp"

namespace flare::pspin {

struct SingleSwitchOptions {
  PsPinConfig unit{};
  u32 hosts = 16;            ///< P
  u64 data_bytes = 1 * kMiB; ///< Z per host per operation (dense bytes)
  core::DType dtype = core::DType::kInt32;
  core::OpKind op = core::OpKind::kSum;
  core::AggPolicy policy = core::AggPolicy::kSingleBuffer;
  u32 num_buffers = 1;       ///< B for multi-buffer
  bool reproducible = false;
  u64 packet_payload = 1024;
  core::SendOrder order = core::SendOrder::kStaggered;
  u32 rounds = 1;
  /// Aggregate host injection rate in bits/s; 0 = auto-pace slightly above
  /// the analytical model's service rate (so queueing, not starvation,
  /// limits throughput).
  f64 aggregate_ingest_bps = 0.0;
  workload::ArrivalKind arrivals = workload::ArrivalKind::kExponential;
  u64 seed = 1;
  /// Seed for arrival jitter only; 0 -> derive from `seed`.  Lets tests vary
  /// packet arrival orders while keeping the host data identical
  /// (reproducibility experiments, F3).
  u64 arrival_seed = 0;

  // --- sparse (Section 7) ---
  bool sparse = false;
  f64 density = 0.10;
  f64 index_overlap = 0.0;  ///< cross-host shared fraction of non-zeros
  bool hash_storage = true;
  u32 hash_capacity_pairs = 512;
  u32 spill_capacity_pairs = 64;
};

struct SingleSwitchResult {
  /// Payload goodput: host data bits ingested / makespan.
  f64 goodput_bps = 0.0;
  u64 makespan_cycles = 0;
  u64 input_buffer_hwm_bytes = 0;
  f64 input_buffer_mean_bytes = 0.0;
  u64 working_mem_hwm_bytes = 0;
  f64 block_mem_mean_bytes = 0.0;
  f64 block_latency_mean_cycles = 0.0;
  f64 cs_wait_mean_cycles = 0.0;
  f64 mean_queued_packets = 0.0;
  u64 blocks_completed = 0;
  u64 duplicates = 0;
  u64 drops = 0;
  u64 host_payload_bytes = 0;  ///< total reducible bytes hosts sent
  u64 emitted_wire_bytes = 0;
  bool correct = false;
  f64 max_abs_err = 0.0;
  /// Sparse only: (emitted pairs - ideal union pairs) / ideal, in percent.
  f64 extra_traffic_pct = 0.0;
  /// Order-independent hash over (block id, result payload bits): equal
  /// checksums <=> bitwise-identical aggregation results (F3 checks).
  u64 result_checksum = 0;
  /// Event-calendar cost: pushes into the bucket being drained, and the
  /// events those inserts shifted (sim::Simulator::drain_inserts).
  u64 calendar_drain_inserts = 0;
  u64 calendar_drain_shifted = 0;
};

SingleSwitchResult run_single_switch(const SingleSwitchOptions& opt);

}  // namespace flare::pspin
