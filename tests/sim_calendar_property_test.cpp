// Property tests for the simulator's bucketed event calendar.
//
// The Simulator contract is a single total order — dispatch by
// (time, insertion-seq), FIFO among same-time events.  The calendar is
// checked two ways, on every geometry in kGeometries (tiny rings, deep and
// shallow wheel stacks, no wheels at all):
//
//   * directly, against an ordered-set reference: seeded interleavings of
//     push, peek and pop, with pushes at or after the last popped time —
//     same-timestamp ties, pushes into the bucket being drained, ring,
//     wheel and far-future delays;
//   * through the Simulator, against the stable sort of the schedule:
//     static storms, run_until windows, far-future storms spanning every
//     wheel level, same-time FIFO with in-event scheduling, and stop()
//     cutting a window short.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "pspin/unit.hpp"
#include "sim/simulator.hpp"

namespace flare::sim {
namespace {

/// One dispatched event, as observed from inside its callback.
struct TraceEntry {
  SimTime at = 0;
  u64 id = 0;
  bool operator==(const TraceEntry&) const = default;
};

// CalendarOptions geometries chosen to stress every tier boundary: a tiny
// ring that pushes most events into the wheels, deep wheel stacks, a
// single coarse level, and levels=0 (ring + far heap only — the
// pre-hierarchy shape).
const CalendarOptions kGeometries[] = {
    {},                // the default: 1024 x 2^16, two 64-slot levels
    pspin::kCalendarOptions,  // PsPIN's cycle tick: 1024 x 2^4
    {64, 12, 8, 3},    // tiny ring, three shallow wheels
    {256, 14, 16, 1},  // one coarse level only
    {1024, 16, 64, 0}, // no wheels: ring + far heap
    {4, 4, 2, 4},      // pathological: everything overflows somewhere
};

std::string describe(const CalendarOptions& g) {
  return "buckets=" + std::to_string(g.bucket_count) +
         " width=" + std::to_string(g.bucket_width_log2) +
         " slots=" + std::to_string(g.coarse_slot_count) +
         " levels=" + std::to_string(g.coarse_levels);
}

// Delay classes chosen against the default geometry (2^16 ps buckets,
// 1024-slot ring => 2^26 ps horizon): same-bucket, near-future ring,
// and past-the-horizon events all occur in every storm.
SimTime random_delay(Rng& rng) {
  switch (rng.uniform_u64(4)) {
    case 0: return 0;                                   // same timestamp
    case 1: return rng.uniform_u64(u64{1} << 16);       // same/next bucket
    case 2: return rng.uniform_u64(u64{1} << 24);       // inside the ring
    default: return rng.uniform_u64(u64{1} << 30);      // beyond the horizon
  }
}

/// The storm schedule for `seed`, and its model dispatch order: the stable
/// sort by time (stable = insertion order breaks ties).
std::vector<TraceEntry> storm_schedule(u64 seed, u64 n) {
  Rng rng(seed);
  std::vector<TraceEntry> schedule;
  for (u64 id = 0; id < n; ++id) schedule.push_back({random_delay(rng), id});
  return schedule;
}

std::vector<TraceEntry> stable_sorted(std::vector<TraceEntry> v) {
  std::stable_sort(
      v.begin(), v.end(),
      [](const TraceEntry& a, const TraceEntry& b) { return a.at < b.at; });
  return v;
}

/// Schedules every entry on `sim`, recording dispatches into `trace`.
void schedule_all(Simulator& sim, const std::vector<TraceEntry>& schedule,
                  std::vector<TraceEntry>& trace) {
  for (const TraceEntry& e : schedule) {
    sim.schedule_at(e.at, [&trace, &sim, id = e.id] {
      trace.push_back({sim.now(), id});
    });
  }
}

/// The calendar alone against an ordered-set reference: seeded
/// interleavings of push, peek and pop.  Every push lies at or after the
/// last popped time (the Simulator's schedule-in-the-future contract);
/// about a third land in the bucket the cursor is draining — same
/// timestamp included — and the rest spread over the ring, the wheels and
/// the far heap.  Every peeked and popped (at, seq) must be the
/// reference's minimum.
TEST(CalendarProperty, BucketCalendarMatchesOrderedSetOracle) {
  for (const CalendarOptions& g : kGeometries) {
    const SimTime bucket_mask = (SimTime{1} << g.bucket_width_log2) - 1;
    for (u64 seed = 70; seed <= 73; ++seed) {
      Rng rng(seed);
      detail::BucketCalendar cal(g);
      std::set<std::pair<SimTime, u64>> ref;
      u64 next_seq = 0;
      SimTime last = 0;  // time of the last popped event
      u64 pops = 0;
      u64 draining_pushes = 0;
      const auto push = [&] {
        SimTime at = last;
        switch (rng.uniform_u64(6)) {
          case 0:  // same timestamp as the last pop
            break;
          case 1:  // same bucket as the last pop, at or after it
            at += rng.uniform_u64((last | bucket_mask) - last + 1);
            break;
          case 2: at += rng.uniform_u64(u64{1} << 18); break;
          case 3: at += rng.uniform_u64(u64{1} << 26); break;
          case 4: at += rng.uniform_u64(u64{1} << 34); break;
          default: at += rng.uniform_u64(u64{1} << 42); break;
        }
        if (pops > 0 && (at | bucket_mask) == (last | bucket_mask)) {
          ++draining_pushes;
        }
        cal.push(Event{at, next_seq, [] {}});
        ref.emplace(at, next_seq);
        ++next_seq;
      };
      const auto pop = [&] {
        Event ev = cal.pop();
        ASSERT_EQ(std::make_pair(ev.at, ev.seq), *ref.begin())
            << describe(g) << " seed=" << seed << " pop " << pops;
        ASSERT_GE(ev.at, last);
        last = ev.at;
        ref.erase(ref.begin());
        ++pops;
      };
      for (u64 step = 0; step < 4000; ++step) {
        const u64 op = rng.uniform_u64(10);
        if (ref.empty() || op < 5) {
          push();
        } else if (op < 7) {
          const Event* front = cal.peek();
          ASSERT_NE(front, nullptr);
          ASSERT_EQ(std::make_pair(front->at, front->seq), *ref.begin())
              << describe(g) << " seed=" << seed << " peek";
        } else {
          pop();
        }
        ASSERT_EQ(cal.size(), ref.size());
      }
      while (!ref.empty()) pop();
      EXPECT_TRUE(cal.empty());
      EXPECT_EQ(cal.peek(), nullptr);
      EXPECT_GT(draining_pushes, 100u) << describe(g) << " seed=" << seed;
    }
  }
}

/// Model check on static storms: the trace must be the stable sort of the
/// schedule by time, on every geometry.
TEST(CalendarProperty, StaticStormMatchesStableSortModel) {
  for (const CalendarOptions& g : kGeometries) {
    for (u64 seed = 1; seed <= 5; ++seed) {
      const std::vector<TraceEntry> schedule = storm_schedule(seed, 500);
      Simulator sim(g);
      std::vector<TraceEntry> trace;
      schedule_all(sim, schedule, trace);
      sim.run();
      EXPECT_EQ(trace, stable_sorted(schedule))
          << describe(g) << " seed=" << seed;
    }
  }
}

/// The same storms dispatched through random run_until windows (empty ones
/// included): the trace is still the stable-sort model, and after every
/// window the clock reads exactly its `until`.
TEST(CalendarProperty, RunUntilWindowsMatchStableSortModel) {
  for (const CalendarOptions& g : kGeometries) {
    for (u64 seed = 20; seed <= 22; ++seed) {
      const std::vector<TraceEntry> schedule = storm_schedule(seed, 400);
      Simulator sim(g);
      std::vector<TraceEntry> trace;
      schedule_all(sim, schedule, trace);
      Rng rng(seed + 1000);
      SimTime until = 0;
      while (!sim.empty()) {
        until += rng.uniform_u64(u64{1} << 22);
        sim.run_until(until);
        ASSERT_EQ(sim.now(), until) << describe(g) << " seed=" << seed;
        if (!trace.empty()) {
          ASSERT_LE(trace.back().at, until);
        }
      }
      EXPECT_EQ(trace, stable_sorted(schedule))
          << describe(g) << " seed=" << seed;
    }
  }
}

/// Same-timestamp FIFO under pressure: many events at few distinct times,
/// with same-time follow-ups scheduled from inside events (which must
/// dispatch after every already-queued event of that timestamp).
TEST(CalendarProperty, SameTimeFifoWithInEventScheduling) {
  Simulator sim;
  std::vector<u64> order;
  u64 next = 0;
  for (int i = 0; i < 20; ++i) {
    const u64 id = next++;
    sim.schedule_at(100, [&, id] {
      order.push_back(id);
      if (id < 5) {
        // Zero-delay follow-up: same timestamp, larger seq => must run
        // after ALL twenty pre-scheduled events.
        const u64 child = next++;
        sim.schedule_after(0, [&order, child] { order.push_back(child); });
      }
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 25u);
  for (u64 i = 0; i < 25; ++i) EXPECT_EQ(order[i], i);
}

/// Far-future storm spanning MULTIPLE coarse wheels: with a 64-bucket 2^12
/// ring and 8-slot wheels, level k covers 64*8^k buckets — delays up to
/// 2^40 ps populate every wheel level AND the far heap at once, and the
/// stable-sort model must still hold exactly.
TEST(CalendarProperty, FarFutureStormSpansMultipleCoarseWheels) {
  const CalendarOptions g{64, 12, 8, 3};
  for (u64 seed = 60; seed <= 62; ++seed) {
    Rng rng(seed);
    std::vector<TraceEntry> expect;
    for (u64 id = 0; id < 600; ++id) {
      // Mix block-boundary-straddling delays (exact multiples of wheel
      // block widths +- 1) with uniform far-future spreads.
      SimTime at;
      switch (rng.uniform_u64(4)) {
        case 0: {
          const u64 block = u64{1} << (12 + 6 + 3 * (rng.uniform_u64(3) + 1));
          at = block * (1 + rng.uniform_u64(4)) + rng.uniform_u64(3) - 1;
          break;
        }
        case 1: at = rng.uniform_u64(u64{1} << 18); break;  // ring
        default: at = rng.uniform_u64(u64{1} << 40); break; // anywhere
      }
      expect.push_back({at, id});
    }
    Simulator sim(g);
    std::vector<TraceEntry> trace;
    schedule_all(sim, expect, trace);
    sim.run();
    EXPECT_EQ(trace, stable_sorted(expect)) << "seed=" << seed;
  }
}

/// The far-future overflow path alone: everything beyond the ring horizon,
/// forcing the cursor jump and the horizon migration.
TEST(CalendarProperty, FarFutureOnlyStorm) {
  Rng rng(99);
  Simulator sim;
  std::vector<SimTime> times;
  std::vector<SimTime> seen;
  for (int i = 0; i < 200; ++i) {
    // All far beyond the 2^26 ps ring horizon, widely spread.
    const SimTime at = (u64{1} << 27) + rng.uniform_u64(u64{1} << 40);
    times.push_back(at);
    sim.schedule_at(at, [&seen, &sim] { seen.push_back(sim.now()); });
  }
  std::sort(times.begin(), times.end());
  sim.run();
  EXPECT_EQ(seen, times);
}

/// stop() cutting a run short mid-bucket must leave the clock on the
/// stopping event and dispatch the same prefix of the stable-sort model on
/// every geometry, at link-scale and at wheel-scale event spacing.
TEST(CalendarProperty, StopAgreesAcrossGeometries) {
  for (const CalendarOptions& g : kGeometries) {
    for (const SimTime spacing : {SimTime{1000}, SimTime{100000}}) {
      Simulator sim(g);
      std::vector<u64> order;
      for (u64 id = 0; id < 10; ++id) {
        sim.schedule_at(id * spacing, [&, id] {
          order.push_back(id);
          if (id == 4) sim.stop();
        });
      }
      sim.run_until(8 * spacing);
      EXPECT_EQ(order.size(), 5u) << describe(g);
      EXPECT_EQ(sim.now(), 4 * spacing);  // stop() pins the clock
      sim.run();
      EXPECT_EQ(order.size(), 10u);
      EXPECT_EQ(sim.now(), 9 * spacing);
    }
  }
}

TEST(CalendarPropertyDeathTest, RejectsNonPowerOfTwoGeometry) {
  EXPECT_DEATH(Simulator(CalendarOptions{1000, 16, 64, 2}), "bucket_count");
  EXPECT_DEATH(Simulator(CalendarOptions{1024, 16, 63, 2}),
               "coarse_slot_count");
  EXPECT_DEATH(Simulator(CalendarOptions{1024, 0, 64, 2}),
               "bucket_width_log2");
}

}  // namespace
}  // namespace flare::sim
