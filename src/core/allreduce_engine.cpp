#include "core/allreduce_engine.hpp"

#include "core/dense_policies.hpp"
#include "core/sparse_policy.hpp"

namespace flare::core {

AllreduceEngine::AllreduceEngine(EngineHost& host, const AllreduceConfig& cfg,
                                 u64 pool_capacity_bytes)
    : host_(host), cfg_(cfg), pool_(pool_capacity_bytes) {
  FLARE_ASSERT(cfg_.num_children >= 1);
}

void AllreduceEngine::process(std::shared_ptr<const Packet> pkt,
                              HandlerDone done) {
  stats_.packets_in += 1;
  stats_.payload_bytes_in += pkt->payload_bytes();
  const CostModel& costs = host_.costs();
  const SimTime ready = host_.simulator().now() +
                        costs.handler_dispatch_cycles +
                        costs.dma_packet_cycles;
  schedule(ready, [this, pkt = std::move(pkt),
                   done = std::move(done)]() mutable {
    const SimTime now = host_.simulator().now();
    if (drop_duplicate(completed_.contains(pkt->hdr.block_id), done, now)) {
      return;
    }
    on_ready(std::move(pkt), std::move(done), now);
  });
}

void AllreduceEngine::reset() {
  on_reset();
  completed_.clear();
}

std::unique_ptr<AllreduceEngine> make_engine(EngineHost& host,
                                             const AllreduceConfig& cfg,
                                             u64 pool_capacity_bytes) {
  if (cfg.sparse) {
    return std::make_unique<SparseAggregator>(host, cfg, pool_capacity_bytes);
  }
  switch (cfg.policy) {
    case AggPolicy::kSingleBuffer:
      return std::make_unique<SingleBufferAggregator>(host, cfg,
                                                      pool_capacity_bytes);
    case AggPolicy::kMultiBuffer:
      return std::make_unique<MultiBufferAggregator>(host, cfg,
                                                     pool_capacity_bytes);
    case AggPolicy::kTree:
      return std::make_unique<TreeAggregator>(host, cfg, pool_capacity_bytes);
  }
  FLARE_UNREACHABLE("unknown policy");
}

}  // namespace flare::core
