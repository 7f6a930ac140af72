// The interface an aggregation engine (core::AllreduceEngine, built by
// make_engine) needs from its hosting simulator.
//
// The same engine code runs inside two substrates: the PsPIN processing-unit
// simulator (src/pspin, single-switch experiments of Section 6.4/7.1) and the
// SST-style network simulator (src/net, the fat-tree experiments of
// Figure 15).  Both provide the event calendar, the cycle-cost model, and a
// sink for the packets the engine produces.  A host may destroy an engine
// while its events are queued (switch crash, recovery uninstall): those
// events expire, and the engine emits nothing more.
#pragma once

#include <functional>

#include "core/cost_model.hpp"
#include "core/packet.hpp"
#include "sim/simulator.hpp"

namespace flare::core {

class EngineHost {
 public:
  virtual ~EngineHost() = default;

  virtual sim::Simulator& simulator() = 0;
  virtual const CostModel& costs() = 0;

  /// Consumes a packet the engine produced (fully-aggregated block result,
  /// or a sparse spill flush).  `when` is the cycle at which the packet
  /// leaves the processing unit; it is never before the current sim time.
  virtual void emit(Packet&& pkt, SimTime when) = 0;
};

/// Completion callback of one handler invocation: `end` is the cycle at
/// which the HPU core is released.  Invoked exactly once, at a simulation
/// event whose time is <= end.
using HandlerDone = std::function<void(SimTime end)>;

}  // namespace flare::core
