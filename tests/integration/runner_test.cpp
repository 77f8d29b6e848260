#include "src/exp/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/exp/summary.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/health.hpp"
#include "src/obs/report.hpp"
#include "src/trace/generators.hpp"
#include "tests/report_sections.hpp"

namespace paldia::exp {
namespace {

Scenario short_scenario(models::ModelId model, Rps rate, DurationMs duration,
                        int repetitions = 1) {
  Scenario scenario;
  scenario.name = "short";
  trace::PoissonOptions options;
  options.mean_rps = rate;
  options.duration_ms = duration;
  scenario.workloads.push_back(
      WorkloadSpec{model, trace::make_poisson_trace(options)});
  scenario.repetitions = repetitions;
  return scenario;
}

TEST(Runner, ProducesCompleteMetrics) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 30.0, seconds(40));
  const auto result = runner.run_once(scenario, SchemeId::kPaldia, 42);
  ASSERT_EQ(result.per_workload.size(), 1u);
  const auto& metrics = result.combined;
  EXPECT_EQ(metrics.scheme, "Paldia");
  EXPECT_GT(metrics.requests, 0u);
  EXPECT_GT(metrics.slo_compliance, 0.5);
  EXPECT_GT(metrics.cost, 0.0);
  EXPECT_GT(metrics.average_power, 0.0);
  EXPECT_GT(metrics.p99_latency_ms, 0.0);
}

TEST(Runner, DeterministicForSameSeed) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kSeNet18, 40.0, seconds(30));
  const auto a = runner.run_once(scenario, SchemeId::kMoleculeCost, 7);
  const auto b = runner.run_once(scenario, SchemeId::kMoleculeCost, 7);
  EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
  EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
  EXPECT_EQ(a.combined.cost, b.combined.cost);
}

TEST(Runner, PerformanceVariantsUseV100AndCostMore) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 30.0, seconds(40));
  const auto perf = runner.run_once(scenario, SchemeId::kInflessLlamaPerf, 42);
  const auto cost = runner.run_once(scenario, SchemeId::kInflessLlamaCost, 42);
  EXPECT_GT(perf.combined.cost, cost.combined.cost * 2.0);
  EXPECT_GE(perf.combined.slo_compliance, 0.99);
}

TEST(Runner, KeepCdfPopulatesSeries) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 20.0, seconds(20));
  const auto result = runner.run_once(scenario, SchemeId::kPaldia, 1, true);
  EXPECT_FALSE(result.per_workload[0].latency_cdf.empty());
}

TEST(Runner, AggregationAcrossRepetitions) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  auto scenario = short_scenario(models::ModelId::kResNet50, 25.0, seconds(20), 3);
  const auto result = runner.run(scenario, SchemeId::kPaldia);
  EXPECT_GT(result.combined.slo_compliance, 0.5);
  EXPECT_LE(result.combined.slo_compliance, 1.0);
}

TEST(Runner, ParallelRepetitionsBitIdenticalToSerial) {
  // The pool must only change wall-clock time: each repetition derives its
  // seed independently of execution order and lands in a fixed slot, so the
  // aggregated metrics are bit-for-bit those of the serial runner.
  ThreadPool pool(4);
  Runner serial(models::Zoo::instance(), hw::Catalog::instance());
  Runner parallel(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  auto scenario = short_scenario(models::ModelId::kResNet50, 25.0, seconds(20), 8);
  for (SchemeId scheme : {SchemeId::kPaldia, SchemeId::kMoleculeCost}) {
    const auto a = serial.run(scenario, scheme);
    const auto b = parallel.run(scenario, scheme);
    EXPECT_EQ(a.combined.requests, b.combined.requests);
    EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
    EXPECT_EQ(a.combined.p50_latency_ms, b.combined.p50_latency_ms);
    EXPECT_EQ(a.combined.p95_latency_ms, b.combined.p95_latency_ms);
    EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
    EXPECT_EQ(a.combined.cost, b.combined.cost);
    EXPECT_EQ(a.combined.average_power, b.combined.average_power);
    ASSERT_EQ(a.per_workload.size(), b.per_workload.size());
    for (std::size_t w = 0; w < a.per_workload.size(); ++w) {
      EXPECT_EQ(a.per_workload[w].p99_latency_ms, b.per_workload[w].p99_latency_ms);
      EXPECT_EQ(a.per_workload[w].slo_compliance, b.per_workload[w].slo_compliance);
    }
  }
}

TEST(Runner, ParallelKeepCdfStillPopulatesFirstRep) {
  ThreadPool pool(4);
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  auto scenario = short_scenario(models::ModelId::kResNet50, 20.0, seconds(20), 4);
  const auto result = runner.run(scenario, SchemeId::kPaldia, /*keep_cdf=*/true);
  ASSERT_EQ(result.per_workload.size(), 1u);
  EXPECT_FALSE(result.per_workload[0].latency_cdf.empty());
}

TEST(Runner, CachedVsUncachedBitIdentical) {
  // The TmaxCache is exact memoization of deterministic math, so every
  // metric — not just the headline numbers — must be bit-identical with the
  // cache bypassed, while the cache-mode run actually hits. Runs under the
  // pool to exercise the mutex-guarded map from concurrent sweeps.
  ThreadPool pool(8);
  SchemeFactoryOptions bypass_options;
  bypass_options.paldia.tmax_cache = false;  // Oracle reads it from here too
  Runner cached(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  Runner bypass(models::Zoo::instance(), hw::Catalog::instance(), &pool,
                bypass_options);
  auto scenario = short_scenario(models::ModelId::kResNet50, 60.0, seconds(30), 2);
  for (SchemeId scheme : {SchemeId::kPaldia, SchemeId::kOracle}) {
    const auto a = cached.run(scenario, scheme);
    const auto b = bypass.run(scenario, scheme);
    EXPECT_EQ(a.combined.requests, b.combined.requests) << scheme_name(scheme);
    EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
    EXPECT_EQ(a.combined.mean_latency_ms, b.combined.mean_latency_ms);
    EXPECT_EQ(a.combined.p50_latency_ms, b.combined.p50_latency_ms);
    EXPECT_EQ(a.combined.p95_latency_ms, b.combined.p95_latency_ms);
    EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
    EXPECT_EQ(a.combined.cost, b.combined.cost);
    EXPECT_EQ(a.combined.average_power, b.combined.average_power);
    EXPECT_EQ(a.combined.cold_starts, b.combined.cold_starts);
    EXPECT_EQ(a.combined.slo_violations, b.combined.slo_violations);
    // The counters are identical too (bypass counts without reusing), and
    // a real workload revisits operating points, so hits must be nonzero.
    EXPECT_EQ(a.combined.tmax_cache_hits, b.combined.tmax_cache_hits);
    EXPECT_EQ(a.combined.tmax_cache_misses, b.combined.tmax_cache_misses);
    EXPECT_EQ(a.combined.tmax_cache_hit_rate, b.combined.tmax_cache_hit_rate);
    EXPECT_GT(a.combined.tmax_cache_hits, 0.0) << scheme_name(scheme);
    EXPECT_GT(a.combined.tmax_cache_misses, 0.0) << scheme_name(scheme);
  }
}

TEST(Runner, PooledVsBypassBitIdentical) {
  // The request arena only changes where request buffers live, never what
  // they contain, so every metric must be bit-identical with pooling
  // bypassed. Failures are enabled so the requeue path (the one place
  // blocks travel backwards through the pipeline) is exercised too.
  ThreadPool pool(8);
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool);
  auto scenario = short_scenario(models::ModelId::kResNet50, 60.0, seconds(30), 2);
  scenario.failures = cluster::FailureInjectorConfig{
      .period_ms = seconds(12), .downtime_ms = seconds(4),
      .first_failure_ms = seconds(6)};
  Scenario bypass = scenario;
  bypass.framework.request_pool = false;
  for (SchemeId scheme : {SchemeId::kPaldia, SchemeId::kOracle}) {
    const auto a = runner.run(scenario, scheme);
    const auto b = runner.run(bypass, scheme);
    EXPECT_EQ(a.combined.requests, b.combined.requests) << scheme_name(scheme);
    EXPECT_EQ(a.combined.slo_compliance, b.combined.slo_compliance);
    EXPECT_EQ(a.combined.mean_latency_ms, b.combined.mean_latency_ms);
    EXPECT_EQ(a.combined.p50_latency_ms, b.combined.p50_latency_ms);
    EXPECT_EQ(a.combined.p95_latency_ms, b.combined.p95_latency_ms);
    EXPECT_EQ(a.combined.p99_latency_ms, b.combined.p99_latency_ms);
    EXPECT_EQ(a.combined.cost, b.combined.cost);
    EXPECT_EQ(a.combined.average_power, b.combined.average_power);
    EXPECT_EQ(a.combined.cold_starts, b.combined.cold_starts);
    EXPECT_EQ(a.combined.slo_violations, b.combined.slo_violations);
  }
}

TEST(Runner, HonoursCallerRunTraceConfig) {
  // RunTrace is the only home of the observation settings: with default
  // factory options the slots must carry the sample rate and health
  // windows the caller set, not factory or library defaults.
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario =
      short_scenario(models::ModelId::kResNet50, 30.0, seconds(20), 2);
  obs::RunTrace trace;
  trace.config.sample_rate = 8;
  trace.collect_health = true;
  trace.health_config.slo_target = 0.99;
  trace.health_config.fast_window_ms = 2000.0;
  trace.health_config.slow_window_ms = 8000.0;
  runner.run(scenario, SchemeId::kPaldia, trace);

  ASSERT_EQ(trace.reps.size(), 2u);
  ASSERT_EQ(trace.healths.size(), 2u);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(trace.reps[rep]->config().sample_rate, 8u);
    const obs::HealthConfig& health = trace.healths[rep]->config();
    EXPECT_EQ(health.slo_target, 0.99);
    EXPECT_EQ(health.fast_window_ms, 2000.0);
    EXPECT_EQ(health.slow_window_ms, 8000.0);
  }
  EXPECT_GT(trace.sampled_out(), 0u) << "1-in-8 sampling dropped nothing";
}

TEST(Runner, RunEndingWithGpuWorkInFlightTearsDownCleanly) {
  // A zero drain cap stops the run at the trace end while the pinned V100
  // still executes batches. Teardown then destroys the cluster's in-flight
  // jobs, whose request blocks belong to the framework's arena, so the
  // arena must outlive the cluster (a use-after-free under ASan otherwise).
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  auto scenario = short_scenario(models::ModelId::kVgg19, 200.0, seconds(10));
  scenario.framework.max_drain_ms = 0.0;
  const auto result = runner.run_once(scenario, SchemeId::kMpsOnlyPerf, 3);
  const auto arrivals = scenario.workloads.front().trace.total_requests();
  EXPECT_GT(result.combined.requests, 0u);
  // Requests still executing at the cap count as unserved, so every
  // arrival is either completed or unserved.
  EXPECT_EQ(result.combined.requests, arrivals);
}

TEST(Runner, ReportAttributionExactWhenTraceBufferOverflows) {
  // A fig04 cell whose trace buffer holds a sliver of its lifecycles: the
  // report's attribution folds the rollup cells, which see every
  // completion, so it still matches the metrics row exactly.
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const Scenario scenario = azure_scenario(models::ModelId::kVgg19, 1);
  obs::RunTrace trace;
  trace.config.event_capacity = 4096;
  trace.collect_rollups = true;
  const RunResult result = runner.run(scenario, SchemeId::kPaldia, trace);
  ASSERT_GT(trace.dropped_events(), 0u) << "the buffer should overflow";

  const obs::AnalysisReport report =
      obs::analyze_with_zoo(obs::extract_run_data(trace, scenario.name));
  const telemetry::RunMetrics& row = result.combined;
  EXPECT_EQ(report.total.completed, row.requests);
  EXPECT_EQ(static_cast<double>(report.total.violations), row.slo_violations);
  for (std::size_t i = 0; i < report.total.causes.size(); ++i) {
    EXPECT_EQ(static_cast<double>(report.total.causes[i]), row.violations_by_cause[i])
        << telemetry::violation_cause_name(static_cast<telemetry::ViolationCause>(i));
  }

  // `paldia-analyze --rollup` over the exported stream folds the same cells.
  std::ostringstream rollups;
  obs::RollupWriter(rollups, obs::ExportFormat::kJsonl).write(trace, scenario.name);
  std::vector<obs::AnalysisReport> offline;
  std::string error;
  ASSERT_TRUE(obs::analyze_rollup_stream(rollups.str(), &offline, &error)) << error;
  ASSERT_EQ(offline.size(), 1u);
  EXPECT_EQ(obs::test::attribution_json(offline[0]), obs::test::attribution_json(report));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every export surface of one failure-injected run, as raw bytes.
struct Exports {
  std::string chrome_trace;
  std::string metrics;
  std::string decisions;
  std::string report;
};

Exports failure_run_exports(ThreadPool* pool, SchemeId scheme,
                            const std::string& tag) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), pool);
  auto scenario = short_scenario(models::ModelId::kResNet50, 60.0, seconds(30), 2);
  scenario.name = "failures";
  scenario.failures = cluster::FailureInjectorConfig{
      .period_ms = seconds(12), .downtime_ms = seconds(4),
      .first_failure_ms = seconds(6)};
  obs::RunTrace trace;
  trace.collect_rollups = true;  // the report's attribution folds them
  const RunResult result = runner.run(scenario, scheme, trace);

  Exports exports;
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, scenario.name);
  exports.chrome_trace = chrome.str();

  const std::string dir = ::testing::TempDir();
  const std::string metrics_path = dir + "runner_metrics_" + tag + ".jsonl";
  const std::string decisions_path = dir + "runner_decisions_" + tag + ".jsonl";
  {
    obs::MetricsWriter metrics(metrics_path);
    EXPECT_TRUE(metrics.ok()) << metrics.error();
    metrics.write(result.combined, "runner-test");
    obs::DecisionLogWriter decisions(decisions_path);
    EXPECT_TRUE(decisions.ok()) << decisions.error();
    decisions.write(trace, scheme_name(scheme), scenario.name);
  }
  exports.metrics = slurp(metrics_path);
  exports.decisions = slurp(decisions_path);
  std::remove(metrics_path.c_str());
  std::remove(decisions_path.c_str());

  std::ostringstream report;
  obs::write_report_json(
      report, {obs::analyze_with_zoo(
                  obs::extract_run_data(trace, scenario.name))});
  exports.report = report.str();
  return exports;
}

TEST(Runner, FailureRunExportsBitIdenticalAcrossThreads) {
  // Fail-over, requeue and procurement all run here; the pool (parallel
  // reps and Algorithm 1 sweeps) may not change a byte of any export.
  ThreadPool pool(8);
  for (const SchemeId scheme : {SchemeId::kPaldia, SchemeId::kOracle}) {
    const Exports serial = failure_run_exports(nullptr, scheme, "serial");
    ASSERT_FALSE(serial.chrome_trace.empty());
    ASSERT_FALSE(serial.metrics.empty());
    ASSERT_FALSE(serial.decisions.empty());
    const Exports pooled = failure_run_exports(&pool, scheme, "pooled");
    EXPECT_EQ(serial.chrome_trace, pooled.chrome_trace) << scheme_name(scheme);
    EXPECT_EQ(serial.metrics, pooled.metrics) << scheme_name(scheme);
    EXPECT_EQ(serial.decisions, pooled.decisions) << scheme_name(scheme);
    EXPECT_EQ(serial.report, pooled.report) << scheme_name(scheme);
  }
}

TEST(Runner, CacheStatsZeroForPoliciesWithoutCache) {
  Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  const auto scenario = short_scenario(models::ModelId::kResNet50, 30.0, seconds(20));
  const auto result = runner.run_once(scenario, SchemeId::kMoleculeCost, 5);
  EXPECT_EQ(result.combined.tmax_cache_hits, 0.0);
  EXPECT_EQ(result.combined.tmax_cache_misses, 0.0);
  EXPECT_EQ(result.combined.tmax_cache_hit_rate, 0.0);
}

TEST(SchemeFactory, BuildsEveryScheme) {
  models::ProfileTable profile(hw::Catalog::instance());
  SchemeFactory factory(models::Zoo::instance(), hw::Catalog::instance(), profile);
  for (SchemeId id :
       {SchemeId::kPaldia, SchemeId::kInflessLlamaCost, SchemeId::kInflessLlamaPerf,
        SchemeId::kMoleculeCost, SchemeId::kMoleculePerf, SchemeId::kOracle,
        SchemeId::kOfflineHybrid, SchemeId::kMpsOnlyPerf, SchemeId::kMpsOnlyCost,
        SchemeId::kTimeSharedPerf, SchemeId::kTimeSharedCost}) {
    auto policy = factory.make(id);
    ASSERT_NE(policy, nullptr) << scheme_name(id);
    EXPECT_EQ(policy->name(), scheme_name(id));
  }
}

TEST(SchemeFactory, InitialNodes) {
  models::ProfileTable profile(hw::Catalog::instance());
  SchemeFactory factory(models::Zoo::instance(), hw::Catalog::instance(), profile);
  EXPECT_EQ(factory.initial_node(SchemeId::kInflessLlamaPerf),
            hw::NodeType::kP3_2xlarge);
  EXPECT_EQ(factory.initial_node(SchemeId::kMpsOnlyCost), hw::NodeType::kG3s_xlarge);
  EXPECT_EQ(factory.initial_node(SchemeId::kPaldia), hw::NodeType::kC6i_2xlarge);
}

TEST(Summary, OutlierRuleApplied) {
  telemetry::RunMetrics base;
  base.scheme = "x";
  base.slo_compliance = 0.99;
  std::vector<telemetry::RunMetrics> runs(21, base);
  for (std::size_t i = 0; i < 20; ++i) {
    runs[i].slo_compliance = 0.99 + (i % 2 == 0 ? 0.001 : -0.001);
  }
  runs[20].slo_compliance = 0.10;  // a wild outlier repetition
  const auto aggregated = aggregate_metrics(runs);
  EXPECT_NEAR(aggregated.slo_compliance, 0.99, 0.005);
}

TEST(Summary, AggregateRunsPreservesWorkloadSlots) {
  RunResult rep;
  telemetry::RunMetrics m;
  m.scheme = "s";
  m.slo_compliance = 0.9;
  rep.per_workload = {m, m};
  rep.combined = m;
  const auto aggregated = aggregate_runs({rep, rep});
  EXPECT_EQ(aggregated.per_workload.size(), 2u);
  EXPECT_NEAR(aggregated.combined.slo_compliance, 0.9, 1e-12);
}

TEST(Scenario, PaperPeakScaling) {
  EXPECT_EQ(paper_peak_rps(models::ModelId::kGoogleNet), 225.0);   // high FBR
  EXPECT_EQ(paper_peak_rps(models::ModelId::kSeNet18), 450.0);     // low FBR
  EXPECT_EQ(paper_peak_rps(models::ModelId::kBert), 8.0);          // language
}

TEST(Scenario, BuildersProduceTraces) {
  const auto azure = azure_scenario(models::ModelId::kResNet50);
  EXPECT_EQ(azure.workloads.size(), 1u);
  EXPECT_NEAR(azure.workloads[0].trace.peak_rps(), 225.0, 60.0);
  const auto llm = llm_scenario(models::ModelId::kBert);
  EXPECT_NEAR(llm.workloads[0].trace.peak_rps(), 8.0, 6.0);
}

}  // namespace
}  // namespace paldia::exp
