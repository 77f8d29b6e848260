// Fleet-scale determinism contract: a multi-endpoint FleetSim run — E
// gateways over a sliced generated catalog, one shared simulator — must
// produce byte-identical exports (Chrome trace, metrics rows, decision log,
// analysis report) with and without a thread pool, and must account for
// every routed arrival. This is the test-suite twin of the CI fleet smoke
// (bench/fleet_sim byte-compare).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/common/json.hpp"
#include "src/exp/fleet_sim.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/health.hpp"
#include "src/obs/report.hpp"
#include "src/trace/generators.hpp"
#include "tests/report_sections.hpp"

namespace paldia::exp {
namespace {

constexpr int kEndpoints = 4;

Scenario fleet_scenario() {
  Scenario scenario;
  scenario.name = "fleet-sim";
  scenario.base_seed = 21;
  trace::PoissonOptions options;
  options.mean_rps = 120.0;
  options.duration_ms = seconds(20);
  options.seed = 5;
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kResNet50, trace::make_poisson_trace(options)});
  options.mean_rps = 40.0;
  options.seed = 6;
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kMobileNet, trace::make_poisson_trace(options)});
  return scenario;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Exports {
  std::string chrome_trace;
  std::string metrics;
  std::string decisions;
  std::string report;
  std::uint64_t total_requests = 0;
  std::uint64_t unserved = 0;
};

Exports run_exports(const hw::Catalog& catalog, ThreadPool* pool,
                    const std::string& tag) {
  FleetSim sim(models::Zoo::instance(), catalog, pool);
  const Scenario scenario = fleet_scenario();

  obs::RunTrace trace;
  trace.collect_rollups = true;  // the report's attribution folds them
  const FleetSimResult result =
      sim.run(scenario, SchemeId::kPaldia, kEndpoints, &trace);
  EXPECT_EQ(static_cast<std::size_t>(result.endpoints), trace.reps.size());

  Exports exports;
  exports.total_requests = result.total_requests;
  exports.unserved = result.unserved;

  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, scenario.name);
  exports.chrome_trace = chrome.str();

  const std::string dir = ::testing::TempDir();
  const std::string metrics_path = dir + "fleet_metrics_" + tag + ".jsonl";
  const std::string decisions_path = dir + "fleet_decisions_" + tag + ".jsonl";
  {
    obs::MetricsWriter metrics(metrics_path);
    EXPECT_TRUE(metrics.ok()) << metrics.error();
    for (const RunResult& endpoint : result.per_endpoint) {
      metrics.write(endpoint.combined, "fleet-test");
    }
    metrics.write(result.combined, "fleet-test");
    obs::DecisionLogWriter decisions(decisions_path);
    EXPECT_TRUE(decisions.ok()) << decisions.error();
    decisions.write(trace, scheme_name(SchemeId::kPaldia), scenario.name);
  }
  exports.metrics = slurp(metrics_path);
  exports.decisions = slurp(decisions_path);
  std::remove(metrics_path.c_str());
  std::remove(decisions_path.c_str());

  std::ostringstream report;
  obs::write_report_json(
      report,
      {obs::analyze_with_zoo(obs::extract_run_data(trace, scenario.name))});
  exports.report = report.str();
  return exports;
}

TEST(FleetSim, PooledVsSerialBitIdentical) {
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  ThreadPool pool(4);
  const Exports serial = run_exports(catalog, nullptr, "serial");
  ASSERT_FALSE(serial.chrome_trace.empty());
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_GT(serial.total_requests, 0u);
  // The pool runs Algorithm 1's sweeps in parallel; it may not change a byte.
  const Exports pooled = run_exports(catalog, &pool, "pooled");
  EXPECT_EQ(serial.chrome_trace, pooled.chrome_trace);
  EXPECT_EQ(serial.metrics, pooled.metrics);
  EXPECT_EQ(serial.decisions, pooled.decisions);
  EXPECT_EQ(serial.report, pooled.report);
  EXPECT_EQ(serial.total_requests, pooled.total_requests);
  EXPECT_EQ(serial.unserved, pooled.unserved);
}

TEST(FleetSim, HonoursCallerRunTraceConfig) {
  // Like Runner::run, FleetSim::run configures every endpoint slot from the
  // trace as the caller set it.
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  FleetSim sim(models::Zoo::instance(), catalog);
  obs::RunTrace trace;
  trace.config.sample_rate = 8;
  trace.collect_health = true;
  trace.health_config.slo_target = 0.99;
  trace.health_config.fast_window_ms = 2000.0;
  trace.health_config.slow_window_ms = 8000.0;
  sim.run(fleet_scenario(), SchemeId::kPaldia, kEndpoints, &trace);

  ASSERT_EQ(trace.reps.size(), static_cast<std::size_t>(kEndpoints));
  ASSERT_EQ(trace.healths.size(), static_cast<std::size_t>(kEndpoints));
  for (std::size_t e = 0; e < trace.reps.size(); ++e) {
    EXPECT_EQ(trace.reps[e]->config().sample_rate, 8u);
    const obs::HealthConfig& health = trace.healths[e]->config();
    EXPECT_EQ(health.slo_target, 0.99);
    EXPECT_EQ(health.fast_window_ms, 2000.0);
    EXPECT_EQ(health.slow_window_ms, 8000.0);
  }
  EXPECT_GT(trace.sampled_out(), 0u) << "1-in-8 sampling dropped nothing";
}

TEST(FleetSim, NodesCarryTheirCatalogNamesThroughEveryExport) {
  // fleet_sim --catalog=gen:16 --endpoints=4: every endpoint serves its
  // slice of the global catalog, so every exported node label must be a
  // name of that catalog, candidate prices must be that node's price, and
  // no two global nodes may share a report row.
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16});
  std::map<std::string, Dollars> price_of;
  for (const hw::NodeSpec& spec : catalog.all()) {
    price_of[spec.instance] = spec.price_per_hour;
  }
  ASSERT_EQ(price_of.size(), catalog.size()) << "catalog names must be unique";
  const auto expect_catalog_name = [&](const std::string& name,
                                       const std::string& where) {
    EXPECT_EQ(price_of.count(name), 1u) << where << " label '" << name << "'";
  };

  FleetSim sim(models::Zoo::instance(), catalog);
  const Scenario scenario = fleet_scenario();
  obs::RunTrace trace;
  trace.collect_rollups = true;
  sim.run(scenario, SchemeId::kPaldia, kEndpoints, &trace);
  ASSERT_EQ(trace.node_names.size(), static_cast<std::size_t>(kEndpoints));

  std::ostringstream decisions;
  obs::DecisionLogWriter(decisions, obs::ExportFormat::kJsonl)
      .write(trace, "Paldia", scenario.name);
  const auto decision_rows = common::parse_json_lines(decisions.str());
  ASSERT_TRUE(decision_rows.ok) << decision_rows.error;
  ASSERT_FALSE(decision_rows.rows.empty());
  std::size_t candidates = 0;
  for (const common::JsonValue& row : decision_rows.rows) {
    for (const char* key : {"current", "chosen", "final"}) {
      expect_catalog_name(row.string_or(key, ""), std::string("decision ") + key);
    }
    for (const common::JsonValue& candidate : row.find("candidates")->as_array()) {
      const std::string node = candidate.string_or("node", "");
      expect_catalog_name(node, "candidate");
      if (price_of.count(node) == 0) continue;
      EXPECT_EQ(candidate.number_or("price_per_hour", -1.0),
                obs::quantize_number(price_of[node]))
          << node;
      ++candidates;
    }
  }
  EXPECT_GT(candidates, 0u);

  std::ostringstream rollups;
  obs::RollupWriter(rollups, obs::ExportFormat::kJsonl).write(trace, scenario.name);
  const auto rollup_rows = common::parse_json_lines(rollups.str());
  ASSERT_TRUE(rollup_rows.ok) << rollup_rows.error;
  for (const common::JsonValue& row : rollup_rows.rows) {
    const std::string node = row.string_or("node", "");
    if (!node.empty()) expect_catalog_name(node, "rollup");  // "" = unserved
  }

  // Distinct nodes that served a request, across all endpoints.
  std::set<std::string> serving;
  for (std::size_t e = 0; e < trace.reps.size(); ++e) {
    for (const obs::TraceEvent& event : trace.reps[e]->events()) {
      if (event.type == obs::TraceEvent::Type::kRequest) {
        serving.insert(trace.node_name(e, event.node));
      }
    }
  }
  const obs::AnalysisReport report =
      obs::analyze_with_zoo(obs::extract_run_data(trace, scenario.name));
  std::set<std::string> rows;
  for (const obs::ReportBucket& bucket : report.per_node) {
    expect_catalog_name(bucket.label, "report per_node");
    EXPECT_TRUE(rows.insert(bucket.label).second) << "merged row " << bucket.label;
  }
  EXPECT_EQ(rows, serving);
  EXPECT_GT(serving.size(), static_cast<std::size_t>(kEndpoints))
      << "endpoints should serve from more than one node each overall";
  for (const obs::NodeUsage& usage : report.node_usage) {
    expect_catalog_name(usage.label, "report node_usage");
  }
  for (const obs::NodeCalibration& row : report.calibration.per_node) {
    expect_catalog_name(row.label, "report calibration");
  }
  for (const obs::TimelineEntry& entry : report.switch_timeline) {
    expect_catalog_name(entry.node, "report switch timeline");
  }

  // The offline analyzer reads the same names back: the trace sections out
  // of the trace, the attribution out of the rollup stream.
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, trace, scenario.name);
  const auto parsed = common::parse_json(chrome.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  obs::RunData offline;
  std::string error;
  ASSERT_TRUE(obs::parse_chrome_trace(parsed.value, scenario.name, &offline, &error))
      << error;
  EXPECT_EQ(obs::test::trace_sections_json(report),
            obs::test::trace_sections_json(obs::analyze_with_zoo(offline)));
  std::vector<obs::AnalysisReport> from_rollups;
  ASSERT_TRUE(obs::analyze_rollup_stream(rollups.str(), &from_rollups, &error))
      << error;
  ASSERT_EQ(from_rollups.size(), 1u);
  EXPECT_EQ(obs::test::attribution_json(report),
            obs::test::attribution_json(from_rollups[0]));
}

TEST(FleetSim, Gen16OverFourEndpointsConservesArrivalsAtTheDrainCap) {
  // fleet_sim --catalog=gen:16 --endpoints=4 --requests=60000 --duration=60:
  // the drain cap stops the run with batches still executing. Their
  // requests count as unserved, so the endpoints' rows (completed +
  // unserved) add up to every routed arrival.
  const hw::Catalog catalog =
      hw::generate_catalog(*hw::parse_catalog_spec("gen:16"));
  Scenario scenario;
  scenario.name = "fleet-poisson";
  trace::PoissonOptions poisson;
  poisson.duration_ms = seconds(60);
  poisson.mean_rps = 1000.0;
  poisson.seed = 4;
  scenario.workloads.push_back(WorkloadSpec{
      models::ModelId::kResNet50, trace::make_poisson_trace(poisson)});
  FleetSim sim(models::Zoo::instance(), catalog);
  const FleetSimResult result = sim.run(scenario, SchemeId::kPaldia, kEndpoints);
  std::uint64_t completed_or_unserved = 0;
  for (const RunResult& endpoint : result.per_endpoint) {
    completed_or_unserved += endpoint.combined.requests;
  }
  EXPECT_GT(result.unserved, 0u) << "the run should end with work left";
  EXPECT_EQ(completed_or_unserved, result.total_requests);
  EXPECT_EQ(result.combined.requests, result.total_requests);
}

TEST(FleetSim, RequestIdsUniqueAcrossEndpointTraces) {
  // Every traced request id carries its endpoint tag: ids observed by
  // different endpoints' tracers must never alias.
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 16, .seed = 3});
  FleetSim sim(models::Zoo::instance(), catalog);
  obs::RunTrace trace;
  const FleetSimResult result =
      sim.run(fleet_scenario(), SchemeId::kPaldia, kEndpoints, &trace);
  ASSERT_EQ(trace.reps.size(), static_cast<std::size_t>(kEndpoints));
  std::size_t traced = 0;
  for (int e = 0; e < kEndpoints; ++e) {
    for (const auto& event : trace.reps[static_cast<std::size_t>(e)]->events()) {
      if (event.type != obs::TraceEvent::Type::kRequest) continue;
      EXPECT_EQ(cluster::IdAllocator::endpoint_of(event.id), e);
      ++traced;
    }
  }
  EXPECT_GT(traced, 0u);
  EXPECT_LE(traced, result.total_requests);
}

}  // namespace
}  // namespace paldia::exp
