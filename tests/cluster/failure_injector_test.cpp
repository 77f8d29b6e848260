// Regression coverage for the failure injector's window tracking: the
// original implementation scheduled recovery blindly downtime_ms after each
// failure, so (a) downtime >= period interleaved fail/recover pairs out of
// order — a later recovery revived a node that a newer failure should have
// kept down — and (b) a recovery landing past the armed horizon never
// fired, ending the run with the node down.
#include "src/cluster/failure_injector.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/sim/simulator.hpp"

namespace paldia::cluster {
namespace {

struct Harness {
  sim::Simulator simulator;
  std::vector<TimeMs> failures;
  std::vector<TimeMs> recoveries;
  FailureInjector injector;

  explicit Harness(FailureInjectorConfig config)
      : injector(
            simulator, config,
            [this] { failures.push_back(simulator.now()); },
            [this] { recoveries.push_back(simulator.now()); }) {}
};

TEST(FailureInjector, AlternatesWhenDowntimeBelowPeriod) {
  Harness h(FailureInjectorConfig{
      .period_ms = 10'000.0, .downtime_ms = 4'000.0, .first_failure_ms = 5'000.0});
  h.injector.arm(40'000.0);
  h.simulator.run_until(40'000.0);
  EXPECT_EQ(h.failures, (std::vector<TimeMs>{5'000.0, 15'000.0, 25'000.0, 35'000.0}));
  EXPECT_EQ(h.recoveries,
            (std::vector<TimeMs>{9'000.0, 19'000.0, 29'000.0, 39'000.0}));
  EXPECT_EQ(h.injector.failures_injected(), 4);
  EXPECT_EQ(h.injector.recoveries_delivered(), 4);
  EXPECT_FALSE(h.injector.down());
}

TEST(FailureInjector, CoalescesOverlappingFailuresIntoOneWindow) {
  // downtime > period: every failure point after the first lands inside the
  // previous outage. The whole run must collapse into a single window
  // [first_failure, end] — one on_fail, one on_recover, never an
  // interleaved revive.
  Harness h(FailureInjectorConfig{
      .period_ms = 10'000.0, .downtime_ms = 25'000.0, .first_failure_ms = 5'000.0});
  h.injector.arm(60'000.0);
  h.simulator.run_until(60'000.0);
  EXPECT_EQ(h.failures, (std::vector<TimeMs>{5'000.0}));
  EXPECT_EQ(h.recoveries, (std::vector<TimeMs>{60'000.0}));
  EXPECT_EQ(h.injector.failures_injected(), 1);
  EXPECT_EQ(h.injector.recoveries_delivered(), 1);
  EXPECT_FALSE(h.injector.down());
}

TEST(FailureInjector, DowntimeEqualToPeriodStaysOrdered) {
  // Boundary shape: the recovery and the next failure point share a
  // timestamp. The recovery was scheduled first, so it fires first — the
  // node flaps down/up/down with no out-of-order pair.
  Harness h(FailureInjectorConfig{
      .period_ms = 10'000.0, .downtime_ms = 10'000.0, .first_failure_ms = 5'000.0});
  h.injector.arm(35'000.0);
  h.simulator.run_until(35'000.0);
  EXPECT_EQ(h.failures, (std::vector<TimeMs>{5'000.0, 15'000.0, 25'000.0}));
  EXPECT_EQ(h.recoveries, (std::vector<TimeMs>{15'000.0, 25'000.0, 35'000.0}));
  EXPECT_FALSE(h.injector.down());
}

TEST(FailureInjector, FinalRecoveryClampedToHorizon) {
  // A recovery that would land past end_ms_ is clamped to it, so the node
  // never finishes the run down.
  Harness h(FailureInjectorConfig{
      .period_ms = 20'000.0, .downtime_ms = 15'000.0, .first_failure_ms = 50'000.0});
  h.injector.arm(60'000.0);
  h.simulator.run_until(60'000.0);
  EXPECT_EQ(h.failures, (std::vector<TimeMs>{50'000.0}));
  EXPECT_EQ(h.recoveries, (std::vector<TimeMs>{60'000.0}));
  EXPECT_FALSE(h.injector.down());
}

TEST(FailureInjector, NoFailuresWhenFirstPointPastHorizon) {
  Harness h(FailureInjectorConfig{
      .period_ms = 10'000.0, .downtime_ms = 4'000.0, .first_failure_ms = 90'000.0});
  h.injector.arm(60'000.0);
  h.simulator.run_until(60'000.0);
  EXPECT_TRUE(h.failures.empty());
  EXPECT_TRUE(h.recoveries.empty());
  EXPECT_EQ(h.injector.failures_injected(), 0);
}

TEST(FailureInjector, CoalescedWindowsMatchAcrossRunUntilSteps) {
  // Driving the simulator in run_until steps — boundaries before, inside
  // and on the coalesced window — must land the fail/recover callbacks
  // exactly as one uninterrupted drain does.
  const std::vector<std::vector<TimeMs>> schedules = {
      {40'000.0}, {2'000.0, 3'000.0, 11'000.0, 11'000.0, 40'000.0}};
  for (const auto& steps : schedules) {
    sim::Simulator simulator;
    std::vector<std::pair<char, TimeMs>> log;
    FailureInjector injector(
        simulator,
        FailureInjectorConfig{.period_ms = 8'000.0,
                              .downtime_ms = 12'000.0,
                              .first_failure_ms = 3'000.0},
        [&] { log.emplace_back('f', simulator.now()); },
        [&] { log.emplace_back('r', simulator.now()); });
    injector.arm(40'000.0);
    for (const TimeMs until : steps) simulator.run_until(until);
    EXPECT_EQ(log, (std::vector<std::pair<char, TimeMs>>{
                       {'f', 3'000.0}, {'r', 40'000.0}}))
        << "steps=" << steps.size();
  }
}

}  // namespace
}  // namespace paldia::cluster
