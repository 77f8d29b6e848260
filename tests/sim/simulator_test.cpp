#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"

namespace paldia::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), 0.0);
}

TEST(Simulator, ScheduleInAdvancesClock) {
  Simulator simulator;
  TimeMs fired_at = -1.0;
  simulator.schedule_in(100.0, [&] { fired_at = simulator.now(); });
  simulator.run_to_completion();
  EXPECT_EQ(fired_at, 100.0);
  EXPECT_EQ(simulator.now(), 100.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator simulator;
  simulator.schedule_in(50.0, [&] {
    simulator.schedule_in(-10.0, [&] { EXPECT_EQ(simulator.now(), 50.0); });
  });
  simulator.run_to_completion();
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(10.0, [&] { ++fired; });
  simulator.schedule_at(20.0, [&] { ++fired; });
  simulator.schedule_at(30.0, [&] { ++fired; });
  simulator.run_until(20.0);  // events exactly at the boundary run
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 20.0);
  simulator.run_to_completion();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator simulator;
  simulator.run_until(500.0);
  EXPECT_EQ(simulator.now(), 500.0);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator simulator;
  std::vector<TimeMs> firings;
  std::function<void()> chain = [&] {
    firings.push_back(simulator.now());
    if (firings.size() < 5) simulator.schedule_in(10.0, chain);
  };
  simulator.schedule_at(0.0, chain);
  simulator.run_to_completion();
  EXPECT_EQ(firings, (std::vector<TimeMs>{0.0, 10.0, 20.0, 30.0, 40.0}));
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator simulator;
  std::vector<TimeMs> firings;
  simulator.schedule_every(100.0, 50.0, [&] { firings.push_back(simulator.now()); });
  simulator.run_until(300.0);
  EXPECT_EQ(firings, (std::vector<TimeMs>{100.0, 150.0, 200.0, 250.0, 300.0}));
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator simulator;
  int fired = 0;
  auto handle = simulator.schedule_every(0.0, 10.0, [&] { ++fired; });
  simulator.run_until(25.0);
  EXPECT_EQ(fired, 3);  // t = 0, 10, 20
  handle.cancel();
  simulator.run_until(100.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator simulator;
  bool fired = false;
  auto handle = simulator.schedule_in(10.0, [&] { fired = true; });
  handle.cancel();
  simulator.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsProcessedCount) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.schedule_in(i, [] {});
  simulator.run_to_completion();
  EXPECT_EQ(simulator.events_processed(), 7u);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator simulator;
  bool fired = false;
  simulator.schedule_in(10.0, [&] { fired = true; });
  simulator.reset();
  simulator.run_to_completion();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.now(), 0.0);
  EXPECT_EQ(simulator.events_processed(), 0u);
}

TEST(Simulator, RepeatingStopsWhenCallbackReturnsFalse) {
  Simulator simulator;
  std::vector<TimeMs> firings;
  simulator.schedule_repeating(10.0, 10.0, [&] {
    firings.push_back(simulator.now());
    return firings.size() < 3;  // stop after the third firing
  });
  simulator.run_to_completion();
  EXPECT_EQ(firings, (std::vector<TimeMs>{10.0, 20.0, 30.0}));
}

TEST(Simulator, StalePeriodicHandleAfterRecycleIsNoOp) {
  // A series that stopped on its own releases its pooled slot; the next
  // series reuses it. A cancel through the old handle must not stop the new
  // occupant (generation check).
  Simulator simulator;
  int first = 0;
  auto stale = simulator.schedule_repeating(0.0, 10.0, [&] {
    ++first;
    return false;  // one firing, then the slot is recycled
  });
  simulator.run_to_completion();
  EXPECT_EQ(first, 1);

  int second = 0;
  simulator.schedule_every(10.0, 10.0, [&] { ++second; });
  stale.cancel();  // old generation: must not touch the recycled slot
  simulator.run_until(45.0);
  EXPECT_EQ(second, 4);  // t = 10, 20, 30, 40 — still alive
}

TEST(Simulator, PeriodicCancelTwiceIsHarmless) {
  Simulator simulator;
  int fired = 0;
  auto handle = simulator.schedule_every(0.0, 10.0, [&] { ++fired; });
  simulator.run_until(15.0);
  handle.cancel();
  handle.cancel();
  auto copy = handle;
  copy.cancel();
  simulator.run_until(100.0);
  EXPECT_EQ(fired, 2);  // t = 0, 10
}

TEST(Simulator, ResetInvalidatesPeriodicHandles) {
  Simulator simulator;
  int old_series = 0;
  auto handle = simulator.schedule_every(0.0, 10.0, [&] { ++old_series; });
  simulator.reset();

  int new_series = 0;
  simulator.schedule_every(0.0, 10.0, [&] { ++new_series; });
  handle.cancel();  // pre-reset generation: no-op on the recycled slot
  simulator.run_until(25.0);
  EXPECT_EQ(old_series, 0);
  EXPECT_EQ(new_series, 3);  // t = 0, 10, 20
}

TEST(Simulator, ManyConcurrentPeriodicSeries) {
  // More series than the initial pool: slots grow, series interleave, and
  // each fires on its own phase. Cancels mid-run release slots for reuse.
  Simulator simulator;
  constexpr int kSeries = 64;
  std::vector<int> counts(kSeries, 0);
  std::vector<Simulator::PeriodicHandle> handles;
  handles.reserve(kSeries);
  for (int i = 0; i < kSeries; ++i) {
    handles.push_back(
        simulator.schedule_every(0.5 * static_cast<TimeMs>(i), 100.0,
                                 [&counts, i] { ++counts[i]; }));
  }
  simulator.run_until(350.0);
  for (int i = 0; i < kSeries; ++i) EXPECT_EQ(counts[i], 4) << i;
  for (int i = 0; i < kSeries; i += 2) handles[i].cancel();
  simulator.run_until(550.0);
  for (int i = 0; i < kSeries; ++i) EXPECT_EQ(counts[i], i % 2 == 0 ? 4 : 6) << i;
}

TEST(Simulator, SameTimeEventsRunInSubmissionOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(5.0, [&] { order.push_back(1); });
  simulator.schedule_at(5.0, [&] { order.push_back(2); });
  simulator.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, ZeroDelayChainsKeepSubmissionOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(10.0, [&] {
    // Zero-delay follow-ups run in submission order, a follow-up of a
    // follow-up after them, and all of them before anything later.
    simulator.schedule_in(0.0, [&] { order.push_back(1); });
    simulator.schedule_in(0.0, [&] { order.push_back(2); });
    simulator.schedule_in(0.0, [&] {
      order.push_back(3);
      simulator.schedule_in(0.0, [&] { order.push_back(4); });
    });
  });
  simulator.schedule_at(10.5, [&] { order.push_back(5); });
  simulator.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(simulator.events_processed(), 6u);
}

TEST(Simulator, RunUntilRunsEveryEventAtTheBoundaryAndNoLater) {
  Simulator simulator;
  std::vector<int> fired;
  simulator.schedule_at(10.0, [&] { fired.push_back(0); });
  simulator.schedule_at(20.0, [&] { fired.push_back(1); });
  simulator.schedule_at(20.0, [&] {
    fired.push_back(2);
    // Scheduled at the boundary from inside the boundary: still runs.
    simulator.schedule_in(0.0, [&] { fired.push_back(3); });
  });
  simulator.schedule_at(20.0001, [&] { fired.push_back(4); });
  EXPECT_DOUBLE_EQ(simulator.run_until(20.0), 20.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.run_until(20.0), 20.0);  // idempotent boundary
  EXPECT_EQ(fired.size(), 4u);
  simulator.run_to_completion();
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(simulator.now(), 20.0001);
}

TEST(Simulator, RunToCompletionReturnsLastEventTime) {
  Simulator simulator;
  simulator.schedule_at(7.5, [] {});
  auto cancelled = simulator.schedule_at(90.0, [] {});
  simulator.schedule_at(3.0, [&] {
    simulator.schedule_in(40.0, [] {});  // last live event: t = 43
  });
  cancelled.cancel();
  EXPECT_DOUBLE_EQ(simulator.run_to_completion(), 43.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 43.0);
  // A drained queue leaves the clock where it is.
  EXPECT_DOUBLE_EQ(simulator.run_to_completion(), 43.0);
}

TEST(Simulator, CancelFromEarlierEventAtNearbyTime) {
  Simulator simulator;
  bool victim_fired = false;
  EventHandle victim = simulator.schedule_at(6.0, [&] { victim_fired = true; });
  simulator.schedule_at(5.0, [&] { victim.cancel(); });
  simulator.run_to_completion();
  EXPECT_FALSE(victim_fired);
  EXPECT_TRUE(victim.cancelled());
  EXPECT_EQ(simulator.events_processed(), 1u);
}

TEST(Simulator, CancelEventScheduledInsideCallbackBeforeItRuns) {
  Simulator simulator;
  bool fired = false;
  EventHandle inner;
  simulator.schedule_at(1.0, [&] {
    inner = simulator.schedule_in(2.0, [&] { fired = true; });
  });
  simulator.schedule_at(2.0, [&] { inner.cancel(); });
  simulator.run_to_completion();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.events_processed(), 2u);
}

TEST(Simulator, ResetInvalidatesEventAndPeriodicHandles) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(5.0, [&] { ++fired; });
  EventHandle stale = simulator.schedule_at(6.0, [&] { ++fired; });
  auto stale_periodic = simulator.schedule_every(1.0, 1.0, [&] { ++fired; });
  simulator.reset();
  EXPECT_DOUBLE_EQ(simulator.now(), 0.0);
  simulator.run_to_completion();
  EXPECT_EQ(fired, 0);
  // Handles from before the reset are inert, not dangling into the slots
  // the new events reuse.
  int after = 0;
  EventHandle fresh = simulator.schedule_at(2.0, [&] { ++after; });
  simulator.schedule_every(1.0, 1.0, [&] { ++after; });
  stale.cancel();
  stale_periodic.cancel();
  EXPECT_FALSE(stale.cancelled());
  simulator.run_until(2.5);
  EXPECT_EQ(after, 3);  // periodic at t = 1, 2 plus the one-shot at t = 2
  EXPECT_FALSE(fresh.cancelled());
}

/// Deterministic random workload: every fired event logs (now, tag) and may
/// schedule children, cancel saved handles or stop a periodic series. The
/// script consumes its Rng in firing order, so any change in event order
/// cascades into a visibly different log.
class ChurnScript {
 public:
  using Log = std::vector<std::pair<TimeMs, int>>;

  ChurnScript(Simulator& simulator, Log& log, std::uint64_t seed)
      : simulator_(&simulator), log_(&log), rng_(seed) {}

  void seed_initial(int count) {
    for (int i = 0; i < count; ++i) schedule_child(rng_.uniform(0.0, 40.0));
    for (int i = 0; i < 6; ++i) {
      const int tag = next_tag_++;
      const int stop_after = (i % 2 == 0) ? 9 : 1000;
      periodic_.push_back(simulator_->schedule_repeating(
          1.0 + i, 3.0 + i, [this, tag, fired = 0, stop_after]() mutable {
            log_->emplace_back(simulator_->now(), tag);
            return ++fired < stop_after;
          }));
    }
  }

 private:
  void schedule_child(DurationMs delay) {
    if (spawned_++ >= 4000) return;
    const int tag = next_tag_++;
    const EventHandle handle =
        simulator_->schedule_in(delay, [this, tag] { fire(tag); });
    if (static_cast<int>(rng_.uniform(0.0, 4.0)) == 0) saved_.push_back(handle);
  }

  void fire(int tag) {
    log_->emplace_back(simulator_->now(), tag);
    const int children = static_cast<int>(rng_.uniform(0.0, 3.0));
    for (int i = 0; i < children; ++i) {
      const int kind = static_cast<int>(rng_.uniform(0.0, 3.0));
      schedule_child(kind == 0   ? 0.0
                     : kind == 1 ? rng_.uniform(0.0, 5.0)
                                 : rng_.uniform(5.0, 120.0));
    }
    if (!saved_.empty() && static_cast<int>(rng_.uniform(0.0, 3.0)) == 0) {
      const auto pick = static_cast<std::size_t>(
          rng_.uniform(0.0, static_cast<double>(saved_.size())));
      saved_[pick].cancel();
      saved_.erase(saved_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (!periodic_.empty() && static_cast<int>(rng_.uniform(0.0, 40.0)) == 0) {
      periodic_.back().cancel();
      periodic_.pop_back();
    }
  }

  Simulator* simulator_;
  Log* log_;
  Rng rng_;
  std::vector<EventHandle> saved_;
  std::vector<Simulator::PeriodicHandle> periodic_;
  int next_tag_ = 0;
  int spawned_ = 0;
};

TEST(Simulator, SteppedRunMatchesSingleDrainUnderChurn) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    Simulator whole;
    ChurnScript::Log whole_log;
    ChurnScript whole_script(whole, whole_log, seed);
    whole_script.seed_initial(64);
    const TimeMs whole_end = whole.run_to_completion();
    ASSERT_FALSE(whole_log.empty());
    EXPECT_TRUE(std::is_sorted(
        whole_log.begin(), whole_log.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));

    Simulator stepped;
    ChurnScript::Log stepped_log;
    ChurnScript stepped_script(stepped, stepped_log, seed);
    stepped_script.seed_initial(64);
    stepped.run_until(50.0);
    stepped.run_until(50.0);
    stepped.run_until(333.3);
    const TimeMs stepped_end = stepped.run_to_completion();
    EXPECT_EQ(whole_log, stepped_log) << "seed=" << seed;
    EXPECT_EQ(whole.events_processed(), stepped.events_processed());
    // run_until advances the clock to its boundary even past the last event.
    EXPECT_DOUBLE_EQ(std::max(whole_end, 333.3), stepped_end);
  }
}

}  // namespace
}  // namespace paldia::sim
