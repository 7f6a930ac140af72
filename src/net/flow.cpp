#include "net/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace flare::net {

FlowManager::FlowManager(Network& net) : net_(net) {
  fault_listener_token_ =
      net_.add_fault_listener([this](const FaultNotice& n) {
        switch (n.kind) {
          case FaultKind::kLinkDown:
          case FaultKind::kLinkUp:
          case FaultKind::kSwitchFail:
          case FaultKind::kSwitchRestart:
            on_fault();
            break;
          case FaultKind::kDropPackets:
          case FaultKind::kCorruptPackets:
            break;  // silent per-packet faults do not change topology
        }
      });
}

FlowManager::~FlowManager() {
  net_.remove_fault_listener(fault_listener_token_);
}

std::vector<u32> FlowManager::compute_path(const FlowSpec& spec) const {
  const std::vector<Host*>& hosts = net_.hosts();
  FLARE_ASSERT(spec.src_host < hosts.size() && spec.dst_host < hosts.size());
  FLARE_ASSERT_MSG(spec.src_host != spec.dst_host, "flow to self");
  const NodeId dst_id = hosts[spec.dst_host]->id();
  std::vector<u32> path;
  NodeId cur = hosts[spec.src_host]->id();
  u32 out_port = 0;  // the host NIC
  // Mirror of Switch::forward_host_msg: hash the flow label over the ECMP
  // set, re-hash over the surviving subset when the preferred port is
  // dark.  Same labels -> same links as the packet plane.
  for (u32 hop = 0; hop < 64; ++hop) {
    if (!net_.port_usable(cur, out_port)) return {};
    path.push_back(net_.node(cur).port(out_port).index());
    NodeId peer = kInvalidNode;
    for (const PortPeer& pp : net_.neighbors(cur)) {
      if (pp.my_port == out_port) {
        peer = pp.peer;
        break;
      }
    }
    FLARE_ASSERT(peer != kInvalidNode);
    if (peer == dst_id) return path;
    auto* sw = dynamic_cast<Switch*>(&net_.node(peer));
    if (sw == nullptr) return {};  // a host that is not the destination
    const std::span<const u32> ecmp = sw->route_ports(dst_id);
    if (ecmp.empty()) return {};
    const u64 label = spec.flow_label ^ sw->ecmp_salt();
    const u32 preferred = ecmp[ecmp_index(label, ecmp.size())];
    if (net_.port_usable(peer, preferred)) {
      out_port = preferred;
    } else {
      std::vector<u32> live;
      live.reserve(ecmp.size());
      for (const u32 p : ecmp) {
        if (p != preferred && net_.port_usable(peer, p)) live.push_back(p);
      }
      if (live.empty()) return {};
      out_port = live[ecmp_index(label, live.size())];
    }
    cur = peer;
  }
  return {};  // hop limit exceeded: treat as unroutable
}

void FlowManager::settle(ActiveFlow& f, SimTime now) {
  if (now > f.settled_at && f.rate_bps > 0.0) {
    const f64 dt_ps = static_cast<f64>(now - f.settled_at);
    book(f, std::min(f.rate_bps * dt_ps / kPsPerSecond, f.remaining_bits),
         false);
  }
  f.settled_at = now;
}

void FlowManager::book(ActiveFlow& f, f64 bits, bool flush) {
  if (bits <= 0.0 && !flush) return;
  f.remaining_bits -= bits;
  // Fractional bytes and busy ps carry to the next interval; a flush (the
  // finish or a reroute) rounds the carry in, so a flow's lifetime totals
  // are exact to the last byte and ps.
  const f64 bytes_f = f.byte_carry + bits / 8.0;
  const u64 bytes = static_cast<u64>(flush ? std::round(bytes_f) : bytes_f);
  f.byte_carry = flush ? 0.0 : bytes_f - static_cast<f64>(bytes);
  for (std::size_t i = 0; i < f.path.size(); ++i) {
    Link& l = net_.link(f.path[i]);
    // Busy accrual = the serialization time these bits would have cost at
    // line rate.
    const f64 busy_f =
        f.busy_carry[i] + bits / l.bandwidth_bps() * kPsPerSecond;
    const u64 busy = static_cast<u64>(flush ? std::round(busy_f) : busy_f);
    f.busy_carry[i] = flush ? 0.0 : busy_f - static_cast<f64>(busy);
    if (busy != 0 || bytes != 0) l.add_flow_busy(busy, bytes, f.spec.trace);
  }
}

void FlowManager::set_rate(ActiveFlow& f, f64 rate_bps, SimTime now) {
  settle(f, now);
  f.rate_bps = rate_bps;
  finish_index_.erase({f.finish_at, f.id});
  f.finish_at = kNever;
  if (rate_bps <= 0.0) return;
  const f64 ps = std::max(f.remaining_bits, 0.0) * kPsPerSecond / rate_bps;
  f.finish_at = now + static_cast<SimTime>(std::ceil(ps));
  finish_index_.emplace(f.finish_at, f.id);
}

void FlowManager::attach(ActiveFlow& f) {
  if (links_.size() < net_.num_links()) links_.resize(net_.num_links());
  for (const u32 li : f.path) {
    std::vector<ActiveFlow*>& v = links_[li].flows;
    v.insert(std::upper_bound(v.begin(), v.end(), f.id,
                              [](u64 id, const ActiveFlow* g) {
                                return id < g->id;
                              }),
             &f);
  }
}

void FlowManager::detach(ActiveFlow& f) {
  for (const u32 li : f.path) {
    std::erase(links_[li].flows, &f);
    touch_link(li);
  }
}

void FlowManager::touch_flow(ActiveFlow& f) {
  if (f.mark == mark_) return;
  f.mark = mark_;
  comp_flows_.push_back(&f);
}

void FlowManager::touch_link(u32 li) {
  if (links_[li].mark == mark_) return;
  links_[li].mark = mark_;
  comp_links_.push_back(li);
}

void FlowManager::resolve() {
  recomputes_ += 1;
  // Close the component over "shares a link": every flow on a touched
  // link, every link on a touched flow.
  for (std::size_t li = 0, fi = 0;
       li < comp_links_.size() || fi < comp_flows_.size();) {
    if (li < comp_links_.size()) {
      for (ActiveFlow* f : links_[comp_links_[li++]].flows) touch_flow(*f);
    } else {
      for (const u32 l : comp_flows_[fi++]->path) touch_link(l);
    }
  }
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [](const ActiveFlow* a, const ActiveFlow* b) {
              return a->id < b->id;
            });
  std::sort(comp_links_.begin(), comp_links_.end());

  // Deterministic max-min water-filling over the component: links by
  // ascending index, flows by ascending id.  Each round freezes either
  // every cap-limited flow whose cap is below the current fair share, or
  // every flow crossing a bottleneck link — so the loop terminates in
  // <= |flows| rounds.
  std::vector<f64> remaining(comp_links_.size());
  std::vector<u32> count(comp_links_.size());
  for (u32 i = 0; i < static_cast<u32>(comp_links_.size()); ++i) {
    LinkFlows& lf = links_[comp_links_[i]];
    lf.slot = i;
    remaining[i] = net_.link(comp_links_[i]).bandwidth_bps();
    count[i] = static_cast<u32>(lf.flows.size());
  }
  std::vector<f64> rate(comp_flows_.size(), -1.0);  // -1 = undecided
  std::size_t unfrozen = rate.size();
  auto freeze = [&](std::size_t k, f64 r) {
    rate[k] = r;
    unfrozen -= 1;
    for (const u32 li : comp_flows_[k]->path) {
      const u32 i = links_[li].slot;
      remaining[i] -= r;
      count[i] -= 1;
    }
  };
  while (unfrozen > 0) {
    f64 fair = std::numeric_limits<f64>::max();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (count[i] > 0) {
        fair = std::min(fair, std::max(remaining[i], 0.0) /
                                  static_cast<f64>(count[i]));
      }
    }
    bool froze_cap = false;
    for (std::size_t k = 0; k < rate.size(); ++k) {
      const f64 cap = comp_flows_[k]->spec.rate_cap_bps;
      if (rate[k] < 0.0 && cap > 0.0 && cap <= fair) {
        freeze(k, cap);
        froze_cap = true;
      }
    }
    if (froze_cap) continue;
    const f64 eps = fair * 1e-9;
    bool froze = false;
    for (std::size_t k = 0; k < rate.size(); ++k) {
      if (rate[k] >= 0.0) continue;
      bool bottlenecked = false;
      for (const u32 li : comp_flows_[k]->path) {
        const u32 i = links_[li].slot;
        if (count[i] > 0 && std::max(remaining[i], 0.0) /
                                    static_cast<f64>(count[i]) <=
                                fair + eps) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      freeze(k, fair);
      froze = true;
    }
    FLARE_ASSERT_MSG(froze, "max-min water-filling failed to converge");
  }
#if FLARE_VALIDATE_ENABLED
  if (skew_next_solve_ && !rate.empty()) {
    skew_next_solve_ = false;
    rate[0] *= 0.5;
  }
#endif

  // Only flows whose share moved are settled and re-indexed.
  const SimTime now = net_.sim().now();
  for (std::size_t k = 0; k < rate.size(); ++k) {
    if (rate[k] != comp_flows_[k]->rate_bps) {
      set_rate(*comp_flows_[k], rate[k], now);
    }
  }
  // Apply the aggregate rates so the packet plane serializes at the
  // remaining bandwidth (zero on links that lost their last flow).
  for (const u32 li : comp_links_) {
    f64 load = 0.0;
    for (const ActiveFlow* f : links_[li].flows) load += f->rate_bps;
    Link& l = net_.link(li);
#if FLARE_VALIDATE_ENABLED
    if (load > l.bandwidth_bps() * (1.0 + 1e-6)) {
      validate::fail("flow-share",
                     "link '" + l.name() + "': flow shares sum to " +
                         std::to_string(load) + " bps, above capacity " +
                         std::to_string(l.bandwidth_bps()));
    }
#endif
    l.set_flow_rate_bps(load);
  }
#if FLARE_VALIDATE_ENABLED
  certify();
#endif
  comp_flows_.clear();
  comp_links_.clear();
  mark_ += 1;  // a fresh stamp for the next component
}

void FlowManager::certify() const {
  // Max-min certificate, O(component): every flow sits at its cap or
  // crosses a saturated link on which no flow has a higher rate.
  constexpr f64 kTol = 1e-6;
  for (const ActiveFlow* f : comp_flows_) {
    if (f->spec.rate_cap_bps > 0.0 && f->rate_bps == f->spec.rate_cap_bps) {
      continue;
    }
    bool bottleneck = false;
    for (const u32 li : f->path) {
      const Link& l = net_.link(li);
      if (l.flow_rate_bps() < l.bandwidth_bps() * (1.0 - kTol)) continue;
      bottleneck = std::none_of(
          links_[li].flows.begin(), links_[li].flows.end(),
          [f](const ActiveFlow* g) {
            return g->rate_bps > f->rate_bps * (1.0 + kTol);
          });
      if (bottleneck) break;
    }
    if (!bottleneck) {
      validate::fail("flow-maxmin", "flow " + std::to_string(f->id) +
                                        " is below its cap with no "
                                        "saturated bottleneck link");
    }
  }
}

void FlowManager::rearm() {
  if (finish_index_.empty()) return;
  const SimTime next = finish_index_.begin()->first;
  // A timer at or before the earliest finish re-arms when it fires.
  if (!timers_.empty() && *timers_.begin() <= next) return;
  timers_.insert(next);
  net_.sim().schedule_at(next, [this] {
    timers_.erase(net_.sim().now());
    on_timer();
  });
}

void FlowManager::on_timer() {
  const SimTime now = net_.sim().now();
  std::vector<std::function<void(SimTime)>> callbacks;
  bool finished_any = false;
  // (time, id) order: flows finishing at one instant complete by id.
  while (!finish_index_.empty() && finish_index_.begin()->first <= now) {
    const auto it = flows_.find(finish_index_.begin()->second);
    finish_index_.erase(finish_index_.begin());
    ActiveFlow& f = it->second;
    settle(f, now);
    book(f, f.remaining_bits, true);
    detach(f);
    flows_finished_ += 1;
    finished_any = true;
    if (f.spec.on_complete) callbacks.push_back(std::move(f.spec.on_complete));
    flows_.erase(it);
  }
  if (finished_any) resolve();
  rearm();
  // Completion callbacks run last: they may start new flows, which
  // re-enter resolve()/rearm() themselves.
  for (auto& cb : callbacks) cb(now);
}

void FlowManager::on_fault() {
  const SimTime now = net_.sim().now();
  bool changed = false;
  for (auto& [id, f] : flows_) {
    std::vector<u32> np = compute_path(f.spec);
    if (np == f.path) continue;
    set_rate(f, 0.0, now);  // settles at the old share; stalled until re-solved
    book(f, 0.0, true);     // the old path keeps its rounded carries
    detach(f);
    f.path = std::move(np);
    f.busy_carry.assign(f.path.size(), 0.0);
    attach(f);
    if (!f.path.empty()) touch_flow(f);
    reroutes_ += 1;
    changed = true;
  }
  if (changed) {
    resolve();
    rearm();
  }
}

u64 FlowManager::start_flow(FlowSpec spec) {
  const u64 id = next_flow_id_++;
  ActiveFlow& f = flows_.emplace_hint(flows_.end(), id, ActiveFlow{})->second;
  f.id = id;
  f.settled_at = net_.sim().now();
  f.remaining_bits = static_cast<f64>(spec.bytes) * 8.0;
  f.spec = std::move(spec);
  f.path = compute_path(f.spec);
  f.busy_carry.assign(f.path.size(), 0.0);
  attach(f);
  flows_started_ += 1;
  if (!f.path.empty()) touch_flow(f);
  resolve();
  rearm();
  return id;
}

void FlowManager::start_flow_at(SimTime at, FlowSpec spec) {
  net_.sim().schedule_at(at, [this, s = std::move(spec)]() mutable {
    start_flow(std::move(s));
  });
}

void FlowManager::sync() {
  const SimTime now = net_.sim().now();
  for (auto& [id, f] : flows_) settle(f, now);
}

std::vector<FlowManager::FlowView> FlowManager::active_flows() const {
  std::vector<FlowView> out;
  out.reserve(flows_.size());
  for (const auto& [id, f] : flows_) {
    out.push_back({id, f.rate_bps, f.spec.rate_cap_bps, f.path});
  }
  return out;
}

u64 FlowManager::flows_stalled() const {
  u64 n = 0;
  for (const auto& [id, f] : flows_) {
    if (f.path.empty()) n += 1;
  }
  return n;
}

}  // namespace flare::net
