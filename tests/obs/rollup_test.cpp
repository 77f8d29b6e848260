// Windowed rollup aggregation (obs/rollup.hpp) and its export/ingest loop:
// fixed-memory per-(window, model, node) cells, deterministic sorted-key
// iteration, and the RollupWriter -> analyze_rollup_stream round trip that
// powers `paldia-analyze --rollup` (rollup-only compliance/attribution).
#include "src/obs/rollup.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"
#include "src/obs/tracer.hpp"

namespace paldia::obs {
namespace {

constexpr int kModel = static_cast<int>(models::ModelId::kResNet50);
constexpr int kNode = static_cast<int>(hw::NodeType::kG3s_xlarge);

TEST(RollupAggregator, RejectsNonPositiveWindow) {
  // A zero or negative width would make window_of() divide into garbage
  // indices; the constructor refuses it instead of silently substituting a
  // default the caller never asked for.
  EXPECT_THROW(RollupAggregator(RollupConfig{.window_ms = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(RollupAggregator(RollupConfig{.window_ms = -5.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(RollupAggregator(RollupConfig{.window_ms = 0.5}));
}

TEST(RollupAggregator, CellCacheSurvivesMapGrowth) {
  // The aggregator keeps a one-entry (key -> cell*) cache to skip the map
  // lookup on same-cell bursts. Interleave keys so every other observation
  // misses the cache while new keys keep inserting (std::map nodes are
  // stable, but the cached pointer must also track the *key* correctly), and
  // assert each count landed in the right cell.
  RollupAggregator rollup(RollupConfig{.window_ms = 1000.0});
  constexpr int kModels = 6;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (int m = 0; m < kModels; ++m) {
      // Two hits on the same key (second one served by the cache), then move
      // to the next key, forcing a re-lookup after the map may have grown.
      rollup.observe_completion(100.0, m, kNode, 10.0, std::nullopt);
      rollup.observe_completion(200.0, m, kNode, 20.0, std::nullopt);
      // A different window for the same model inserts a fresh key between
      // revisits of window 0.
      rollup.observe_completion(1000.0 * (round + 1) + 50.0, m, kNode, 30.0,
                                std::nullopt);
    }
  }
  EXPECT_EQ(rollup.completions(),
            static_cast<std::uint64_t>(kModels * kRounds * 3));
  ASSERT_EQ(rollup.cells().size(),
            static_cast<std::size_t>(kModels * (kRounds + 1)));
  for (int m = 0; m < kModels; ++m) {
    const RollupKey base{0, static_cast<std::int16_t>(m),
                         static_cast<std::int16_t>(kNode)};
    const auto it = rollup.cells().find(base);
    ASSERT_NE(it, rollup.cells().end()) << "model " << m;
    EXPECT_EQ(it->second.completed, static_cast<std::uint64_t>(kRounds * 2))
        << "model " << m;
    for (int round = 0; round < kRounds; ++round) {
      const RollupKey later{round + 1, static_cast<std::int16_t>(m),
                            static_cast<std::int16_t>(kNode)};
      const auto jt = rollup.cells().find(later);
      ASSERT_NE(jt, rollup.cells().end()) << "model " << m << " w" << round + 1;
      EXPECT_EQ(jt->second.completed, 1u) << "model " << m << " w" << round + 1;
    }
  }
}

TEST(RollupAggregator, WindowAssignment) {
  RollupAggregator rollup(RollupConfig{.window_ms = 1000.0});
  EXPECT_EQ(rollup.window_of(0.0), 0);
  EXPECT_EQ(rollup.window_of(999.9), 0);
  EXPECT_EQ(rollup.window_of(1000.0), 1);
  EXPECT_EQ(rollup.window_of(59'500.0), 59);
}

TEST(RollupAggregator, CompletionsFoldIntoCells) {
  RollupAggregator rollup(RollupConfig{.window_ms = 1000.0});
  rollup.observe_completion(100.0, kModel, kNode, 40.0, std::nullopt);
  rollup.observe_completion(200.0, kModel, kNode, 50.0, std::nullopt);
  rollup.observe_completion(300.0, kModel, kNode, 250.0,
                            telemetry::ViolationCause::kGatewayQueue);
  rollup.observe_completion(1500.0, kModel, kNode, 45.0, std::nullopt);

  EXPECT_EQ(rollup.completions(), 4u);
  ASSERT_EQ(rollup.cells().size(), 2u);

  const RollupKey first{0, static_cast<std::int16_t>(kModel),
                        static_cast<std::int16_t>(kNode)};
  const auto it = rollup.cells().find(first);
  ASSERT_NE(it, rollup.cells().end());
  EXPECT_EQ(it->second.completed, 3u);
  EXPECT_EQ(it->second.violations, 1u);
  EXPECT_EQ(it->second.causes[static_cast<int>(
                telemetry::ViolationCause::kGatewayQueue)],
            1u);
  EXPECT_EQ(it->second.latency.count(), 3u);
}

TEST(RollupAggregator, UnservedCountsAsideFromViolations) {
  // Unserved requests aggregate under node = -1 with cause kUnserved but do
  // NOT bump the cell's violation count — the rollup parser derives
  // violations + unserved itself, so double-counting here would skew
  // rollup-only compliance.
  RollupAggregator rollup;
  rollup.observe_unserved(30'000.0, kModel, 7);

  ASSERT_EQ(rollup.cells().size(), 1u);
  const auto& [key, cell] = *rollup.cells().begin();
  EXPECT_EQ(key.node, -1);
  EXPECT_EQ(key.model, kModel);
  EXPECT_EQ(cell.unserved, 7u);
  EXPECT_EQ(cell.violations, 0u);
  EXPECT_EQ(cell.completed, 0u);
  EXPECT_EQ(cell.causes[static_cast<int>(telemetry::ViolationCause::kUnserved)],
            7u);
}

TEST(RollupAggregator, GaugeAccumulators) {
  RollupAggregator rollup(RollupConfig{.window_ms = 1000.0});
  rollup.observe_queue_depth(100.0, kModel, kNode, 4.0);
  rollup.observe_queue_depth(200.0, kModel, kNode, 6.0);
  rollup.observe_in_flight(150.0, kNode, 2.0);

  const RollupKey depth_key{0, static_cast<std::int16_t>(kModel),
                            static_cast<std::int16_t>(kNode)};
  const auto depth = rollup.cells().find(depth_key);
  ASSERT_NE(depth, rollup.cells().end());
  EXPECT_DOUBLE_EQ(depth->second.queue_depth_sum, 10.0);
  EXPECT_EQ(depth->second.queue_depth_samples, 2u);

  // In-flight samples are cluster-wide: model = -1.
  const RollupKey flight_key{0, -1, static_cast<std::int16_t>(kNode)};
  const auto flight = rollup.cells().find(flight_key);
  ASSERT_NE(flight, rollup.cells().end());
  EXPECT_DOUBLE_EQ(flight->second.in_flight_sum, 2.0);
  EXPECT_EQ(flight->second.in_flight_samples, 1u);
}

TEST(RollupAggregator, CellIterationIsSortedRegardlessOfArrivalOrder) {
  RollupAggregator rollup(RollupConfig{.window_ms = 1000.0});
  rollup.observe_completion(2500.0, kModel, kNode, 10.0, std::nullopt);
  rollup.observe_completion(500.0, kModel + 1, kNode, 10.0, std::nullopt);
  rollup.observe_completion(500.0, kModel, kNode, 10.0, std::nullopt);
  rollup.observe_unserved(500.0, kModel, 1);

  std::vector<RollupKey> keys;
  for (const auto& [key, cell] : rollup.cells()) keys.push_back(key);
  ASSERT_EQ(keys.size(), 4u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(keys[i - 1] < keys[i]) << "position " << i;
  }
  // Unserved (node = -1) sorts before served rows of the same model.
  EXPECT_EQ(keys[0].window, 0);
  EXPECT_EQ(keys[0].node, -1);
}

TEST(QuantileSketchSerialization, SparseBucketsRoundTripExactly) {
  // The rollup row's "hist" field is nonzero_buckets(); re-adding each
  // (representative, count) pair reconstructs the bucket counts exactly
  // (every representative maps back into its own bucket). Quantiles agree
  // to within a bucket — exactly for interior buckets; the extremes differ
  // only by the min/max clamp, which becomes representative-based.
  QuantileSketch original;
  for (const double v : {0.4, 3.7, 3.8, 55.0, 212.9, 480.0, 9000.0}) {
    original.insert(v);
  }
  QuantileSketch rebuilt;
  for (const auto& [value, count] : original.histogram().nonzero_buckets()) {
    rebuilt.add(value, count);
  }
  EXPECT_EQ(rebuilt.count(), original.count());
  EXPECT_EQ(rebuilt.histogram().nonzero_buckets(),
            original.histogram().nonzero_buckets());
  const auto a = original.summary();
  const auto b = rebuilt.summary();
  EXPECT_DOUBLE_EQ(a.p50_ms, b.p50_ms);  // interior bucket: exact
  EXPECT_NEAR(b.p95_ms, a.p95_ms, 0.05 * a.p95_ms);  // top bucket is ~4.4% wide
  EXPECT_NEAR(b.p99_ms, a.p99_ms, 0.05 * a.p99_ms);

  // A second serialize -> rebuild cycle is a fixed point: the rebuilt
  // sketch's representatives ARE its samples, so everything round-trips
  // bit-exactly from then on.
  QuantileSketch again;
  for (const auto& [value, count] : rebuilt.histogram().nonzero_buckets()) {
    again.add(value, count);
  }
  const auto c = again.summary();
  EXPECT_DOUBLE_EQ(c.p50_ms, b.p50_ms);
  EXPECT_DOUBLE_EQ(c.p95_ms, b.p95_ms);
  EXPECT_DOUBLE_EQ(c.p99_ms, b.p99_ms);
  EXPECT_DOUBLE_EQ(c.max_ms, b.max_ms);
}

// --- RollupWriter -> analyze_rollup_stream round trip -----------------------

RunTrace make_rollup_trace() {
  RunTrace trace;
  trace.capture_events = false;
  trace.collect_rollups = true;
  trace.rollup_config.window_ms = 1000.0;
  trace.add_slot(hw::Catalog::instance());
  RollupAggregator& rollup = *trace.rollups.back();
  // 10 completions: 8 compliant, 2 violating (one cold start, one gateway
  // queue), plus 3 unserved — across two windows.
  for (int i = 0; i < 5; ++i) {
    rollup.observe_completion(100.0 + i, kModel, kNode, 40.0 + i, std::nullopt);
  }
  for (int i = 0; i < 3; ++i) {
    rollup.observe_completion(1500.0 + i, kModel, kNode, 45.0 + i, std::nullopt);
  }
  rollup.observe_completion(700.0, kModel, kNode, 250.0,
                            telemetry::ViolationCause::kColdStart);
  rollup.observe_completion(1800.0, kModel, kNode, 300.0,
                            telemetry::ViolationCause::kGatewayQueue);
  rollup.observe_unserved(2000.0, kModel, 3);
  rollup.observe_queue_depth(500.0, kModel, kNode, 5.0);
  return trace;
}

TEST(RollupRoundTrip, JsonlRowsMatchSchema) {
  const RunTrace trace = make_rollup_trace();
  std::ostringstream out;
  RollupWriter writer(out, ExportFormat::kJsonl);
  writer.write(trace, "scenario / Paldia");

  const auto parsed = common::parse_json_lines(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.rows.size(), trace.rollups[0]->cells().size());
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  std::uint64_t unserved = 0;
  std::uint64_t hist_total = 0;
  for (const auto& row : parsed.rows) {
    EXPECT_EQ(row.string_or("run", ""), "scenario / Paldia");
    EXPECT_EQ(row.number_or("rep", -1.0), 0.0);
    const double window = row.number_or("window", -1.0);
    EXPECT_DOUBLE_EQ(row.number_or("window_start_ms", -1.0), window * 1000.0);
    completed += static_cast<std::uint64_t>(row.number_or("completed", 0.0));
    violations += static_cast<std::uint64_t>(row.number_or("violations", 0.0));
    unserved += static_cast<std::uint64_t>(row.number_or("unserved", 0.0));
    const common::JsonValue* causes = row.find("causes");
    ASSERT_NE(causes, nullptr);
    EXPECT_NE(causes->find("cold_start"), nullptr);
    EXPECT_NE(causes->find("unserved"), nullptr);
    const common::JsonValue* hist = row.find("hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_TRUE(hist->is_array());
    for (const common::JsonValue& pair : hist->as_array()) {
      ASSERT_TRUE(pair.is_array());
      ASSERT_EQ(pair.as_array().size(), 2u);
      hist_total += static_cast<std::uint64_t>(pair.as_array()[1].as_number());
    }
  }
  EXPECT_EQ(completed, 10u);
  EXPECT_EQ(violations, 2u);
  EXPECT_EQ(unserved, 3u);
  EXPECT_EQ(hist_total, 10u);  // every completion is sketched
}

TEST(RollupRoundTrip, AnalyzeRollupStreamRebuildsAttribution) {
  const RunTrace trace = make_rollup_trace();
  std::ostringstream out;
  RollupWriter writer(out, ExportFormat::kJsonl);
  writer.write(trace, "scenario / Paldia");

  std::vector<AnalysisReport> reports;
  std::string error;
  ASSERT_TRUE(analyze_rollup_stream(out.str(), &reports, &error)) << error;
  ASSERT_EQ(reports.size(), 1u);
  const AnalysisReport& report = reports[0];

  EXPECT_EQ(report.label, "scenario / Paldia");
  EXPECT_EQ(report.reps, 1);
  // Unserved requests count as completed-and-violating, mirroring the
  // full-trace analyzer's drain-cap accounting.
  EXPECT_EQ(report.total.completed, 13u);
  EXPECT_EQ(report.total.violations, 5u);
  EXPECT_EQ(report.unserved, 3u);
  EXPECT_DOUBLE_EQ(report.compliance, 1.0 - 5.0 / 13.0);
  EXPECT_EQ(report.total.causes[static_cast<int>(
                telemetry::ViolationCause::kColdStart)],
            1u);
  EXPECT_EQ(report.total.causes[static_cast<int>(
                telemetry::ViolationCause::kGatewayQueue)],
            1u);
  EXPECT_EQ(report.total.causes[static_cast<int>(
                telemetry::ViolationCause::kUnserved)],
            3u);
  EXPECT_EQ(report.total.latency.count(), 10u);

  ASSERT_EQ(report.per_model.size(), 1u);
  EXPECT_EQ(report.per_model[0].label,
            models::model_id_name(static_cast<models::ModelId>(kModel)));
  EXPECT_EQ(report.per_model[0].completed, 13u);
  EXPECT_EQ(report.per_model[0].violations, 5u);
  ASSERT_EQ(report.per_node.size(), 1u);
  EXPECT_EQ(report.per_node[0].label,
            hw::Catalog::instance().name(hw::NodeType(kNode)));
  // Node rows never see unserved requests (they never reached a node).
  EXPECT_EQ(report.per_node[0].completed, 10u);
  EXPECT_EQ(report.per_node[0].violations, 2u);
}

TEST(RollupRoundTrip, GroupsRowsByRunLabel) {
  const RunTrace a = make_rollup_trace();
  const RunTrace b = make_rollup_trace();
  std::ostringstream out;
  RollupWriter writer(out, ExportFormat::kJsonl);
  writer.write(a, "scenario / Paldia");
  writer.write(b, "scenario / Oracle");

  std::vector<AnalysisReport> reports;
  std::string error;
  ASSERT_TRUE(analyze_rollup_stream(out.str(), &reports, &error)) << error;
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].label, "scenario / Paldia");
  EXPECT_EQ(reports[1].label, "scenario / Oracle");
  EXPECT_EQ(reports[0].total.completed, reports[1].total.completed);
}

TEST(RollupRoundTrip, MalformedStreamIsAnError) {
  std::vector<AnalysisReport> reports;
  std::string error;
  EXPECT_FALSE(analyze_rollup_stream("{not json\n", &reports, &error));
  EXPECT_FALSE(error.empty());
}

TEST(RollupRoundTrip, CsvExportCarriesTheSameTotals) {
  const RunTrace trace = make_rollup_trace();
  std::ostringstream out;
  RollupWriter writer(out, ExportFormat::kCsv);
  writer.write(trace, "scenario / Paldia");
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.compare(0, 4, "run,"), 0);
  std::size_t rows = 0;
  for (const char c : text) rows += c == '\n' ? 1 : 0;
  EXPECT_EQ(rows, trace.rollups[0]->cells().size() + 1);  // + header
}

}  // namespace
}  // namespace paldia::obs
