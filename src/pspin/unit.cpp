#include "pspin/unit.hpp"

#include <algorithm>

namespace flare::pspin {

PsPinUnit::PsPinUnit(sim::Simulator& sim, PsPinConfig cfg)
    : sim_(sim), cfg_(cfg) {
  FLARE_ASSERT(cfg_.n_clusters >= 1 && cfg_.cores_per_cluster >= 1);
  FLARE_ASSERT_MSG(cfg_.cores_per_cluster % cfg_.subset_cores == 0,
                   "S must divide the cores per cluster");
  cores_.resize(cfg_.total_cores());
  subsets_.resize(cfg_.num_subsets());
  if (cfg_.scheduler == SchedulerKind::kGlobalFcfs) {
    for (u32 c = 0; c < cfg_.total_cores(); ++c)
      subsets_[0].core_ids.push_back(c);
  } else {
    // Subsets are contiguous S-core groups inside one cluster, so a block's
    // working buffer is always in the local L1 TCDM.
    const u32 per_cluster = cfg_.cores_per_cluster / cfg_.subset_cores;
    for (u32 s = 0; s < cfg_.num_subsets(); ++s) {
      const u32 cluster = s / per_cluster;
      const u32 sub_in_cluster = s % per_cluster;
      for (u32 i = 0; i < cfg_.subset_cores; ++i) {
        subsets_[s].core_ids.push_back(cluster * cfg_.cores_per_cluster +
                                       sub_in_cluster * cfg_.subset_cores +
                                       i);
      }
    }
  }
}

core::AllreduceEngine& PsPinUnit::install(const core::AllreduceConfig& cfg,
                                          u64 pool_capacity) {
  auto [it, inserted] = engines_.try_emplace(
      cfg.id, core::make_engine(*this, cfg, pool_capacity));
  FLARE_ASSERT_MSG(inserted, "allreduce id already installed");
  return *it->second;
}

core::AllreduceEngine* PsPinUnit::find(u32 allreduce_id) {
  auto it = engines_.find(allreduce_id);
  return it == engines_.end() ? nullptr : it->second.get();
}

u32 PsPinUnit::subset_of(const core::Packet& pkt) const {
  if (cfg_.scheduler == SchedulerKind::kGlobalFcfs) return 0;
  // The parser extracts the block id from the option header and feeds the
  // packet scheduler: same block -> same subset (Section 5, footnote 4).
  return pkt.hdr.block_id % cfg_.num_subsets();
}

void PsPinUnit::inject(core::Packet pkt, SimTime when) {
  FLARE_ASSERT(when >= sim_.now());
  sim_.schedule_at(when, [this, pkt = std::move(pkt)]() mutable {
    const SimTime now = sim_.now();
    core::AllreduceEngine* engine = find(pkt.hdr.allreduce_id);
    if (engine == nullptr) {
      packets_unmatched_ += 1;
      return;
    }
    const u64 wire = pkt.wire_bytes();
    if (l2_bytes_.current() + wire > cfg_.l2_packet_bytes) {
      // Packet memory full: the packet is dropped (the host will time out
      // and retransmit; Section 3, footnote 2).
      packets_dropped_ += 1;
      return;
    }
    l2_bytes_.add(static_cast<i64>(wire), now);
    const u32 s = subset_of(pkt);
    subsets_[s].queue.push_back(
        QueuedPacket{core::make_pooled_packet(std::move(pkt)),
                     engine});
    queued_packets_.add(1, now);
    dispatch(s);
  });
}

void PsPinUnit::dispatch(u32 subset_idx) {
  Subset& sub = subsets_[subset_idx];
  while (!sub.queue.empty()) {
    u32 free_core = UINT32_MAX;
    for (u32 cid : sub.core_ids) {
      if (!cores_[cid].busy) {
        free_core = cid;
        break;
      }
    }
    if (free_core == UINT32_MAX) return;
    QueuedPacket qp = std::move(sub.queue.front());
    sub.queue.pop_front();
    queued_packets_.add(-1, sim_.now());
    start_handler(free_core, subset_idx, std::move(qp));
  }
}

void PsPinUnit::start_handler(u32 core_id, u32 subset_idx, QueuedPacket qp) {
  Core& core = cores_[core_id];
  FLARE_ASSERT(!core.busy);
  core.busy = true;
  core.handlers += 1;
  handlers_run_ += 1;
  busy_cores_.add(1, sim_.now());

  u64 cold = 0;
  if (!core.warm) {
    core.warm = true;
    if (cfg_.charge_cold_start) cold = cfg_.costs.cold_start_cycles;
  }
  const u64 wire = qp.pkt->wire_bytes();
  auto run = [this, core_id, subset_idx, wire, pkt = std::move(qp.pkt),
              engine = qp.engine]() mutable {
    engine->process(std::move(pkt), [this, core_id, subset_idx,
                                     wire](SimTime end) {
      finish_handler(core_id, subset_idx, wire, end);
    });
  };
  if (cold == 0) {
    run();
  } else {
    sim_.schedule_after(cold, std::move(run));
  }
}

void PsPinUnit::finish_handler(u32 core_id, u32 subset_idx, u64 wire_bytes,
                               SimTime end) {
  FLARE_ASSERT(end >= sim_.now());
  sim_.schedule_at(end, [this, core_id, subset_idx, wire_bytes] {
    const SimTime now = sim_.now();
    cores_[core_id].busy = false;
    busy_cores_.add(-1, now);
    // The input buffer is held for the whole handler lifetime (Section 4.2).
    l2_bytes_.add(-static_cast<i64>(wire_bytes), now);
    dispatch(subset_idx);
  });
}

void PsPinUnit::emit(core::Packet&& pkt, SimTime when) {
  FLARE_ASSERT(when >= sim_.now());
  emitted_.add(pkt.wire_bytes());
  last_emission_ = std::max(last_emission_, when);
  if (emit_hook_) {
    // Deliver at `when` so downstream consumers observe causal times.
    sim_.schedule_at(when,
                     [this, p = std::move(pkt), when] { emit_hook_(p, when); });
  }
}

u64 PsPinUnit::working_memory_high_water() const {
  u64 total = 0;
  // flare-lint: allow(unordered-iter) integer sum, order-insensitive
  for (const auto& [id, engine] : engines_)
    total += engine->pool().high_water();
  return total;
}

}  // namespace flare::pspin
