#include "net/node.hpp"

#include <algorithm>

#include "net/network.hpp"

namespace flare::net {

void Host::receive(NetPacket&& pkt, u32 in_port) {
  (void)in_port;
  if (pkt.corrupted) {
    net_.count_corrupt_drop();  // modelled NIC frame checksum
    return;
  }
  switch (pkt.kind) {
    case PacketKind::kHostMsg: {
      FLARE_ASSERT(pkt.msg != nullptr);
      const auto it = on_proto_.find(pkt.msg->proto);
      if (it != on_proto_.end()) {
        it->second(*pkt.msg);
      } else if (on_msg_) {
        on_msg_(*pkt.msg);
      }
      break;
    }
    case PacketKind::kReduceDown: {
      FLARE_ASSERT(pkt.reduce != nullptr);
      auto it = on_reduce_.find(pkt.reduce->hdr.allreduce_id);
      if (it != on_reduce_.end()) it->second(*pkt.reduce);
      break;
    }
    case PacketKind::kReduceUp:
      FLARE_UNREACHABLE("host received up-bound reduction traffic");
  }
}

// ---------------------------------------------------------------------------

namespace {
core::CostModel make_zero_costs() {
  // Functional aggregation is free inside the network simulator: timing is
  // owned by the calibrated per-switch server (the paper's SST methodology).
  core::CostModel c;
  c.cycles_per_elem_f32 = 0;
  c.cycles_per_elem_f16 = 0;
  c.cycles_per_elem_i8 = 0;
  c.cycles_per_elem_i16 = 0;
  c.cycles_per_elem_i32 = 0;
  c.cycles_per_elem_i64 = 0;
  c.dma_packet_cycles = 0;
  c.handler_dispatch_cycles = 0;
  c.emit_packet_cycles = 0;
  c.cold_start_cycles = 0;
  c.hash_insert_cycles_per_pair = 0;
  c.array_insert_cycles_per_pair = 0;
  c.spill_append_cycles_per_pair = 0;
  c.scan_cycles_per_slot = 0;
  c.emit_cycles_per_pair = 0;
  return c;
}
}  // namespace

Switch::Switch(Network& net, NodeId id, std::string name, u32 max_allreduces)
    : Node(net, id, std::move(name)), max_allreduces_(max_allreduces),
      zero_costs_(make_zero_costs()) {}

Switch::~Switch() = default;

sim::Simulator& Switch::simulator() { return net_.sim(); }

void Switch::fail() {
  if (failed_) return;
  failed_ = true;
  // Crash-stop: installed engines, cached results and queued service work
  // vanish.  Occupancy drops to zero — the partition is empty again.
  invalidate_role_cache();
  roles_.clear();
  occupancy_.set(0, net_.sim().now());
  net_.notify_fault({FaultKind::kSwitchFail, id_, UINT32_MAX,
                     net_.sim().now()});
}

void Switch::restart() {
  if (!failed_) return;
  failed_ = false;
  net_.notify_fault({FaultKind::kSwitchRestart, id_, UINT32_MAX,
                     net_.sim().now()});
}

bool Switch::install_reduce(const core::AllreduceConfig& cfg,
                            ReduceRole&& role) {
  if (!can_install()) return false;
  role.engine = core::make_engine(*this, cfg);
  auto [it, inserted] = roles_.try_emplace(cfg.id, std::move(role));
  FLARE_ASSERT_MSG(inserted, "allreduce id already installed on switch");
  occupancy_.set(roles_.size(), net_.sim().now());
#if FLARE_VALIDATE_ENABLED
  validate_occupancy();
#endif
  return true;
}

void Switch::uninstall_reduce(u32 allreduce_id) {
  invalidate_role_cache();
  if (roles_.erase(allreduce_id) != 0) {
    occupancy_.set(roles_.size(), net_.sim().now());
  }
#if FLARE_VALIDATE_ENABLED
  validate_occupancy();
#endif
}

bool Switch::reset_reduce(u32 allreduce_id) {
  auto it = roles_.find(allreduce_id);
  if (it == roles_.end()) return false;
  it->second.engine->reset();
  it->second.emitted.clear();
#if FLARE_VALIDATE_ENABLED
  // A persistent reset must return every acquired hash/array-store byte:
  // anything still out after engine->reset() is the sparse leak class
  // the chaos tests can only sample — here it is checked on EVERY reset.
  if (const u64 in_use = it->second.engine->pool().in_use(); in_use != 0) {
    validate::fail("engine-pool-leak",
                   "switch '" + name_ + "': engine for allreduce " +
                       std::to_string(allreduce_id) + " still holds " +
                       std::to_string(in_use) + " pool bytes after reset");
  }
#endif
  return true;
}

#if FLARE_VALIDATE_ENABLED
void Switch::debug_leak_occupancy() {
  occupancy_.add(1, net_.sim().now());
}
#endif

const ReduceRole* Switch::role(u32 allreduce_id) const {
  auto it = roles_.find(allreduce_id);
  return it == roles_.end() ? nullptr : &it->second;
}

const core::EngineStats* Switch::engine_stats(u32 allreduce_id) const {
  const ReduceRole* r = role(allreduce_id);
  return r == nullptr ? nullptr : &r->engine->stats();
}

void Switch::receive(NetPacket&& pkt, u32 in_port) {
  (void)in_port;
  if (failed_) {
    net_.count_failed_switch_drop();
    return;
  }
  if (pkt.corrupted) {
    net_.count_corrupt_drop();  // per-hop frame checksum
    return;
  }
  switch (pkt.kind) {
    case PacketKind::kHostMsg:
      forward_host_msg(std::move(pkt));
      break;
    case PacketKind::kReduceUp:
      on_reduce_up(std::move(pkt));
      break;
    case PacketKind::kReduceDown:
      on_reduce_down(std::move(pkt));
      break;
  }
}

std::span<const u32> Switch::route_ports(NodeId dst) const {
  if (!use_host_routes_) {
    FLARE_ASSERT(dst < routes_.size());
    const std::vector<u32>& v = routes_[dst];
    return {v.data(), v.size()};
  }
  const u32 host = net_.host_index_of(dst);
  if (host != UINT32_MAX) {
    const u32 group = host / host_routes_.group_size;
    const auto it = std::lower_bound(
        host_routes_.exceptions.begin(), host_routes_.exceptions.end(), group,
        [](const HostRouteTable::Exception& e, u32 g) { return e.group < g; });
    if (it != host_routes_.exceptions.end() && it->group == group) {
      return {host_routes_.ports.data() + it->begin,
              static_cast<std::size_t>(it->end - it->begin)};
    }
  }
  return {host_routes_.up_ports.data(), host_routes_.up_ports.size()};
}

void Switch::forward_host_msg(NetPacket&& pkt) {
  const std::span<const u32> ecmp = route_ports(pkt.dst_node);
  FLARE_ASSERT_MSG(!ecmp.empty(), "no route to destination");
  // Deterministic ECMP: hash the flow id over the equal-cost set.  On a
  // healthy fabric the hashed port wins directly (no allocation, one
  // usability probe, and the pre-fault-plane port selection exactly).
  const u64 label = pkt.flow ^ ecmp_salt();
  const u32 preferred = ecmp[ecmp_index(label, ecmp.size())];
  if (net_.port_usable(id_, preferred)) {
    port(preferred).send(std::move(pkt));
    return;
  }
  // Fast failover: the hashed port is dark — re-hash over the surviving
  // subset.  If the whole set is dark the packet is lost and the sender's
  // retransmission machinery must recover it.
  std::vector<u32> live;
  live.reserve(ecmp.size());
  for (const u32 p : ecmp) {
    if (p != preferred && net_.port_usable(id_, p)) live.push_back(p);
  }
  if (live.empty()) {
    net_.count_unroutable_drop();
    return;
  }
  const u32 out = live[ecmp_index(label, live.size())];
  port(out).send(std::move(pkt));
}

void Switch::on_reduce_up(NetPacket&& pkt) {
  ReduceRole* found = find_role(pkt.allreduce_id);
  if (found == nullptr) {
    // Reduction traffic for a collective this switch no longer serves:
    // state lost to a crash, or uninstalled by a recovery that moved the
    // tree.  Realistic switches drop such packets on the floor.
    net_.count_stale_reduce_drop();
    return;
  }
  ReduceRole& role2 = *found;
  reduce_packets_ += 1;
  // Calibrated aggregation server: FIFO service at the PsPIN-derived rate.
  const SimTime now = net_.sim().now();
  const u64 service =
      serialization_ps(pkt.wire_bytes, role2.service_bps);
  const SimTime start = std::max(now, role2.server_busy_until);
  role2.server_busy_until = start + service;
  // Retransmission of a block's last shard for a block this switch already
  // finished: the loss was downstream of aggregation (our up-aggregate or
  // the down-multicast).  Replay the cached emission sequence instead of
  // feeding the engine, which would just drop the packet as a duplicate.
  // Only the LAST shard triggers the replay — a host re-sends the whole
  // block per timeout, so one replay per round per tree level keeps
  // recovery traffic linear (replaying on EVERY arriving shard would
  // multiply sequence-length-fold at each level).  Other duplicate shards,
  // and any shard of a block still incomplete here, go to the engine,
  // whose trackers absorb them and aggregate only what was lost.
  if ((pkt.reduce->hdr.flags & core::kFlagRetransmit) != 0 &&
      pkt.reduce->is_last_shard()) {
    const u32 blk = pkt.reduce->hdr.block_id;
    const auto it = role2.emitted.find(blk);
    if (it != role2.emitted.end() && it->second.back()->is_last_shard()) {
      net_.sim().schedule_at(role2.server_busy_until,
                             [this, id = pkt.allreduce_id, blk] {
                               reemit_completed(id, blk);
                             });
      return;
    }
  }
  net_.sim().schedule_at(
      role2.server_busy_until,
      [this, id = pkt.allreduce_id, reduce = std::move(pkt.reduce)] {
        // The role can vanish while the packet sits in the service queue
        // (switch crash or recovery uninstall): drop, never re-create.
        ReduceRole* r = find_role(id);
        if (r == nullptr) {
          net_.count_stale_reduce_drop();
          return;
        }
        r->engine->process(reduce, [](SimTime) {});
      });
}

void Switch::reemit_completed(u32 allreduce_id, u32 block_id) {
  const ReduceRole* r = find_role(allreduce_id);
  if (r == nullptr) return;  // uninstalled/crashed while queued
  const auto it = r->emitted.find(block_id);
  if (it == r->emitted.end()) return;
  // Replay the whole sequence in order; receivers deduplicate by
  // (child, shard_seq) — host-side via the down ShardTrackers — so only
  // what was actually lost takes effect.
  for (const std::shared_ptr<const core::Packet>& cached : it->second) {
    core::Packet copy = *cached;
    copy.hdr.flags |= core::kFlagRetransmit;  // keep the cache path upstream
    send_result(r->parent_port,
                result_packet(*r, core::make_pooled_packet(std::move(copy))));
  }
}

void Switch::on_reduce_down(NetPacket&& pkt) {
  const ReduceRole* found = find_role(pkt.allreduce_id);
  if (found == nullptr) {
    net_.count_stale_reduce_drop();
    return;
  }
  // Replicate toward every tree child (hosts or further switches).
  const ReduceRole& role2 = *found;
  for (const u32 p : role2.child_ports) {
    NetPacket copy = pkt;
    port(p).send(std::move(copy));
  }
}

NetPacket Switch::result_packet(const ReduceRole& role,
                                std::shared_ptr<const core::Packet> pkt) {
  NetPacket np;
  np.kind = role.is_root || pkt->is_down() ? PacketKind::kReduceDown
                                           : PacketKind::kReduceUp;
  np.allreduce_id = pkt->hdr.allreduce_id;
  np.trace = role.engine->config().trace;
  np.wire_bytes = pkt->wire_bytes();
  np.reduce = std::move(pkt);
  return np;
}

void Switch::send_result(u32 parent_port, NetPacket&& np) {
  if (np.kind == PacketKind::kReduceDown) {
    on_reduce_down(std::move(np));
  } else {
    port(parent_port).send(std::move(np));
  }
}

void Switch::emit(core::Packet&& pkt, SimTime when) {
  ReduceRole* found = find_role(pkt.hdr.allreduce_id);
  FLARE_ASSERT_MSG(found != nullptr, "emit for an uninstalled allreduce");
  ReduceRole& role2 = *found;
  if (!role2.is_root && !pkt.is_down()) {
    pkt.hdr.child_index = role2.child_index_at_parent;
  }
  const u32 block = pkt.hdr.block_id;
  NetPacket np = result_packet(role2, core::make_pooled_packet(std::move(pkt)));
  if (role2.engine->config().fault_recovery) {
    role2.emitted[block].push_back(np.reduce);
  }
  // The port is captured now: the role may be uninstalled before `when`.
  net_.sim().schedule_at(
      when, [this, out = role2.parent_port, np = std::move(np)]() mutable {
        if (failed_) return;
        send_result(out, std::move(np));
      });
}

}  // namespace flare::net
