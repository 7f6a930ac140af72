// Flow-level (non-packet) link modeling for bulk transfers — the scale
// plane's answer to per-packet cross-traffic cost at 10k hosts.
//
// A Flow is a src->dst host transfer of `bytes` that occupies a
// deterministic bandwidth share on every link of its path instead of
// emitting one calendar event per packet.  Shares come from max-min
// fair-share water-filling, re-solved ONLY at flow start / finish /
// reroute instants and ONLY over the changed flows' component: the flows
// transitively sharing a link with them (max-min fairness splits exactly
// into such components, so the rest of the fabric keeps its rates).
// Each flow carries (settled_at, rate, remaining_bits) and accrues
// lazily: it is walked only when its rate or path changes, when it
// finishes, and on sync().  Finish instants live in an ordered (time, id)
// index; the calendar gets a new timer only when the earliest finish
// moves before every pending one (a timer that fires with nothing due
// re-arms for the current earliest).
//
// The congestion a flow builds is REAL for the packet plane:
//
//   * busy_cum_ps and the per-trace attribution bucket accrue the exact
//     serialization time the flow's bits would have cost
//     (Link::add_flow_busy adds the identical amount to both, so the
//     FLARE_VALIDATE conservation audit holds by construction; a finishing
//     flow books its rounded residual, leaving exactly `bytes` and its
//     converged busy time on every path link), which
//     means CongestionMonitor EWMAs — fed by diffing busy_cum_ps — see
//     flow load exactly like packet load (Network::sync_flows() settles
//     accrual before every sample);
//   * each link's aggregate flow rate throttles packet serialization
//     (Link::send serializes at the remaining bandwidth), so packet-level
//     collectives sharing a link with background flows genuinely slow
//     down.
//
// Paths use the SAME deterministic ECMP as packet forwarding
// (Switch::route_ports + ecmp_index on the salted flow label, with the
// identical live-subset re-hash on dark ports), so a given seeded workload
// heats the same links whether it runs in packet or flow mode — the parity
// property bench_scale_10k gates on.  Fault notices trigger re-pathing; a
// flow with no usable path stalls at rate zero (it does not hold the
// calendar open) and is re-pathed on the next fault notice.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"

namespace flare::net {

struct FlowSpec {
  u32 src_host = 0;      ///< index into Network::hosts()
  u32 dst_host = 0;
  u64 bytes = 0;         ///< wire bytes to transfer
  u64 flow_label = 0;    ///< ECMP hash input (same role as NetPacket::flow)
  u32 trace = 0;         ///< attribution trace id (0 = untagged)
  f64 rate_cap_bps = 0;  ///< application pacing limit; 0 = link-limited
  /// Invoked (synchronously, inside the finish event) when the last bit
  /// is delivered.  Optional.
  std::function<void(SimTime)> on_complete;
};

/// Owns every active flow on one Network (created lazily by
/// Network::flows()).  All mutation happens at event times through a
/// deterministic total order — flows by ascending id, links by ascending
/// index — so runs replay bit for bit.
class FlowManager {
 public:
  explicit FlowManager(Network& net);
  ~FlowManager();
  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  /// Starts a flow at the current simulated time; returns its id.
  u64 start_flow(FlowSpec spec);
  /// Schedules a flow start at absolute time `at` (>= now).  The calendar
  /// event captures this manager: it must outlive the horizon (it does —
  /// the Network owns it).
  void start_flow_at(SimTime at, FlowSpec spec);

  /// Settles every flow's fluid accrual up to the current simulated time.
  /// Called by CongestionMonitor::sample() and the metrics bridge before
  /// reading link counters; idempotent at a fixed time.
  void sync();

  /// One active flow as seen from outside (tests, diagnostics).
  struct FlowView {
    u64 id = 0;
    f64 rate_bps = 0;       ///< current fair share (0 while stalled)
    f64 rate_cap_bps = 0;
    std::vector<u32> path;  ///< unidirectional link indices; empty = stalled
  };
  /// Every active flow, ascending id.
  std::vector<FlowView> active_flows() const;

  u64 flows_started() const { return flows_started_; }
  u64 flows_finished() const { return flows_finished_; }
  u64 flows_active() const { return flows_.size(); }
  /// Active flows currently without a usable path (rate 0; re-pathed on
  /// the next fault notice).
  u64 flows_stalled() const;
  /// Path changes applied by fault notices (including stalls/revivals).
  u64 reroutes() const { return reroutes_; }
  /// Fair-share re-solve instants so far (start, finish and reroute
  /// instants; each re-solves one component).
  u64 recomputes() const { return recomputes_; }

#if FLARE_VALIDATE_ENABLED
  /// Validator-test backdoor: halves the first flow's rate in the next
  /// re-solve's result, so tests/validate_test.cpp can prove the max-min
  /// certificate fires.
  void debug_skew_next_solve() { skew_next_solve_ = true; }
#endif

 private:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  struct ActiveFlow {
    u64 id = 0;
    FlowSpec spec;
    SimTime settled_at = 0;      ///< accrual booked through this instant
    f64 rate_bps = 0;            ///< current fair share (0 while stalled)
    f64 remaining_bits = 0;      ///< as of settled_at
    SimTime finish_at = kNever;  ///< key in finish_index_ (kNever: none)
    u64 mark = 0;                ///< component-walk stamp
    f64 byte_carry = 0;          ///< fractional bytes not yet booked
    std::vector<u32> path;       ///< unidirectional link indices; empty = stalled
    std::vector<f64> busy_carry; ///< fractional busy ps per path link
  };
  struct LinkFlows {
    std::vector<ActiveFlow*> flows;  ///< resident flows, ascending id
    u64 mark = 0;                    ///< component-walk stamp
    u32 slot = 0;                    ///< dense index within the component
  };

  void settle(ActiveFlow& f, SimTime now);
  void book(ActiveFlow& f, f64 bits, bool flush);
  void set_rate(ActiveFlow& f, f64 rate_bps, SimTime now);
  void attach(ActiveFlow& f);
  void detach(ActiveFlow& f);
  void touch_flow(ActiveFlow& f);
  void touch_link(u32 li);
  void resolve();
  void certify() const;
  void rearm();
  void on_timer();
  void on_fault();
  std::vector<u32> compute_path(const FlowSpec& spec) const;

  Network& net_;
  std::map<u64, ActiveFlow> flows_;  ///< by id (node-stable: links point in)
  std::vector<LinkFlows> links_;     ///< by unidirectional link index
  std::set<std::pair<SimTime, u64>> finish_index_;  ///< (finish, id)
  /// The component being re-solved (touched flows and links, stamped
  /// with mark_); empty between re-solves.
  std::vector<ActiveFlow*> comp_flows_;
  std::vector<u32> comp_links_;
  u64 mark_ = 1;
  u64 next_flow_id_ = 1;
  std::set<SimTime> timers_;  ///< instants of pending finish timers
  u64 flows_started_ = 0;
  u64 flows_finished_ = 0;
  u64 reroutes_ = 0;
  u64 recomputes_ = 0;
  u64 fault_listener_token_ = 0;
#if FLARE_VALIDATE_ENABLED
  bool skew_next_solve_ = false;
#endif
};

}  // namespace flare::net
