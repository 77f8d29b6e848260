// Unit tests for the analysis layer behind --report-out / paldia-analyze:
// the exporter-quantization helpers, the trace sections' inline-vs-offline
// parity (extract_run_data over a RunTrace against parse_chrome_trace over
// its serialized form), the attribution fold's parity (the inline report
// against analyze_rollup_stream over the RollupWriter stream, at any sample
// rate), the per-label merge of trace and rollup reports, analyze()'s
// cause-sum / unserved accounting and the text renderer.
#include "src/obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/models/zoo.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/telemetry/slo_tracker.hpp"
#include "tests/report_sections.hpp"

namespace paldia::obs {
namespace {

TEST(Quantize, TimestampIsIdempotent) {
  // The inline extractor pre-quantizes through the exporter's "%.3f" (us)
  // format; applying it twice must be a no-op or parity breaks.
  for (const double ms : {0.0, 0.1234567, 1000.0 / 3.0, 98765.4321, 1e-7}) {
    const double once = quantize_timestamp(ms);
    EXPECT_DOUBLE_EQ(quantize_timestamp(once), once) << ms;
    EXPECT_NEAR(once, ms, 5e-7) << ms;  // %.3f of microseconds: ns resolution
  }
}

TEST(Quantize, NumberIsIdempotentAndSanitizesNonFinite) {
  for (const double x : {0.0, 1.0 / 3.0, 123456.789, 1e-12, -42.5}) {
    const double once = quantize_number(x);
    EXPECT_DOUBLE_EQ(quantize_number(once), once) << x;
    EXPECT_NEAR(once, x, std::abs(x) * 1e-9);
  }
  EXPECT_DOUBLE_EQ(quantize_number(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_DOUBLE_EQ(quantize_number(std::nan("")), 0.0);
}

/// A small but feature-complete RunTrace across two repetitions: lifecycles
/// (compliant, violating, retried), a batch, a switch blackout, a decision
/// sweep and unserved requests. Like the framework, every completion also
/// feeds the rollup slot with the attribution engine's verdict. Rep 1 serves
/// one request on a node rep 0 never used.
RunTrace make_trace(std::uint32_t sample_rate = 1) {
  const models::Zoo& zoo = models::Zoo::instance();
  std::array<DurationMs, models::kModelCount> slos{};
  for (int m = 0; m < models::kModelCount; ++m) {
    slos[static_cast<std::size_t>(m)] = zoo.spec(models::ModelId(m)).slo_ms;
  }
  RunTrace trace;
  trace.config.sample_rate = sample_rate;
  trace.collect_rollups = true;
  trace.rollup_config.window_ms = 1000.0;
  for (int rep = 0; rep < 2; ++rep) {
    trace.add_slot(hw::Catalog::instance());
    Tracer* tracer = trace.reps.back().get();
    RollupAggregator& rollup = *trace.rollups.back();
    tracer->set_model_slos(slos);
    AttributionEngine engine(zoo);
    const double base = rep * 10.0;  // desync the reps slightly

    const auto complete = [&](std::int64_t id, models::ModelId model,
                              hw::NodeType node, cluster::ShareMode mode,
                              TimeMs arrival, TimeMs submit, TimeMs start,
                              TimeMs end, DurationMs solo, DurationMs interference,
                              DurationMs cold) {
      tracer->record_request_lifecycle(id, model, node, mode, 4, 3, 1, arrival,
                                       submit, start, end, solo, interference,
                                       cold);
      LifecycleSample sample;
      sample.request_id = id;
      sample.model = static_cast<int>(model);
      sample.node = static_cast<int>(node);
      sample.arrival_ms = arrival;
      sample.submit_ms = submit;
      sample.start_ms = start;
      sample.end_ms = end;
      sample.solo_ms = solo;
      sample.interference_ms = interference;
      sample.cold_ms = cold;
      rollup.observe_completion(end, sample.model, sample.node, end - arrival,
                                engine.observe_request(sample));
    };

    // Compliant requests (the sampler's 1-in-N pool).
    for (int i = 0; i < 12; ++i) {
      const double t = base + 20.0 * i;
      complete(100 + i, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
               cluster::ShareMode::kSpatial, t, t + 2.0, t + 5.0, t + 60.0 + i,
               50.0, 3.0, 0.0);
    }
    // Interference-dominated violation.
    complete(2, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
             cluster::ShareMode::kSpatial, base + 200.0, base + 203.0,
             base + 206.0, base + 520.0, 90.0, 224.0, 0.0);
    // Retried violation.
    engine.on_requeued(3);
    complete(3, models::ModelId::kVgg19, hw::NodeType::kP3_2xlarge,
             cluster::ShareMode::kTemporal, base + 300.0, base + 580.0,
             base + 590.0, base + 700.0, 100.0, 0.0, 4.0);
    if (rep == 1) {
      complete(5, models::ModelId::kResNet50, hw::NodeType::kC6i_2xlarge,
               cluster::ShareMode::kCpu, base + 400.0, base + 401.0,
               base + 402.0, base + 480.0, 78.0, 0.0, 0.0);
    }

    // Switch blackout plus a request that waited through it.
    tracer->instant("switch_begin", base + 1000.0, hw::NodeType::kP3_2xlarge);
    engine.on_switch_begin(base + 1000.0);
    complete(4, models::ModelId::kResNet50, hw::NodeType::kP3_2xlarge,
             cluster::ShareMode::kTemporal, base + 1010.0, base + 1290.0,
             base + 1295.0, base + 1340.0, 40.0, 0.0, 0.0);
    tracer->instant("switch_active", base + 1300.0, hw::NodeType::kP3_2xlarge);
    engine.on_switch_active(base + 1300.0);

    // Batch observation answering the decision below.
    tracer->record_batch(11, models::ModelId::kResNet50, hw::NodeType::kG3s_xlarge,
                         cluster::ShareMode::kSpatial, 4, base + 900.0,
                         base + 905.0, base + 1010.0, 100.0, 0.0);
    DecisionRecord* decision =
        tracer->begin_decision(base + 890.0, hw::NodeType::kG3s_xlarge);
    EXPECT_NE(decision, nullptr) << "decision log full in test setup";
    decision->has_sweep = true;
    decision->predicted_rps = 55.5;
    decision->observed_rps = 50.25;
    CandidateEval candidate;
    candidate.node = hw::NodeType::kG3s_xlarge;
    candidate.t_max_ms = 123.456;
    candidate.feasible = true;
    candidate.is_gpu = true;
    candidate.best_y = 3;
    decision->candidates.push_back(candidate);
    tracer->end_decision(hw::NodeType::kG3s_xlarge, false);

    // Drain-cap leftovers, as the framework's finish_run records them.
    rollup.observe_unserved(base + 2000.0, static_cast<int>(models::ModelId::kResNet50), 2);
    tracer->sample_counters(base + 2000.0);
  }
  return trace;
}

/// The RollupWriter stream of `trace` read back by analyze_rollup_stream.
AnalysisReport rollup_report(const RunTrace& trace, const std::string& label) {
  std::ostringstream rows;
  RollupWriter(rows, ExportFormat::kJsonl).write(trace, label);
  std::vector<AnalysisReport> reports;
  std::string error;
  EXPECT_TRUE(analyze_rollup_stream(rows.str(), &reports, &error)) << error;
  EXPECT_EQ(reports.size(), 1u);
  return reports.empty() ? AnalysisReport{} : reports[0];
}

TEST(Report, AnalyzeCountsCausesAndUnserved) {
  const RunTrace trace = make_trace();
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));

  EXPECT_EQ(report.reps, 2);
  EXPECT_TRUE(report.has_attribution);
  // 15 lifecycles + 2 unserved per rep, plus rep 1's CPU request.
  EXPECT_EQ(report.total.completed, 35u);
  EXPECT_EQ(report.unserved, 4u);
  // Violations: interference + retry + blackout + unserved x2, per rep.
  EXPECT_EQ(report.total.violations, 10u);
  EXPECT_EQ(report.total.latency.count(), 31u);  // unserved carry no latency

  std::uint64_t cause_sum = 0;
  for (const std::uint64_t n : report.total.causes) cause_sum += n;
  EXPECT_EQ(cause_sum, report.total.violations);

  using telemetry::ViolationCause;
  const auto cause = [&](ViolationCause c) {
    return report.total.causes[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(cause(ViolationCause::kMpsInterference), 2u);
  EXPECT_EQ(cause(ViolationCause::kFailureRetry), 2u);
  EXPECT_EQ(cause(ViolationCause::kHardwareSwitch), 2u);
  EXPECT_EQ(cause(ViolationCause::kUnserved), 4u);

  // Calibration: one decision per rep, answered by the batch that follows.
  EXPECT_EQ(report.calibration.intervals_total, 2);
  EXPECT_EQ(report.calibration.intervals_observed, 2);
  ASSERT_EQ(report.calibration.per_node.size(), 1u);
  EXPECT_EQ(report.calibration.per_node[0].node,
            static_cast<int>(hw::NodeType::kG3s_xlarge));

  // Switch timeline: begin + active per rep, rep-major order.
  ASSERT_EQ(report.switch_timeline.size(), 4u);
  EXPECT_EQ(report.switch_timeline[0].event, "switch_begin");
  EXPECT_EQ(report.switch_timeline[1].event, "switch_active");
  EXPECT_EQ(report.switch_timeline[2].rep, 1);
}

TEST(Report, LatencyMeanAndMaxAreTheCellsExactValues) {
  // The rollup rows carry each cell's exact mean and max; the report folds
  // those, not the histogram's bucket representatives.
  const RunTrace trace = make_trace();
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));
  QuantileSketch exact;
  for (const auto& rollup : trace.rollups) {
    for (const auto& [key, cell] : rollup->cells()) exact.merge(cell.latency);
  }
  const SketchSummary expected = exact.summary();
  const SketchSummary folded = report.total.latency.summary();
  EXPECT_EQ(folded.count, expected.count);
  EXPECT_NEAR(folded.mean_ms, expected.mean_ms, 1e-9 * expected.mean_ms);
  EXPECT_EQ(folded.max_ms, quantize_number(expected.max_ms));
  EXPECT_EQ(folded.p50_ms, expected.p50_ms);
  EXPECT_EQ(folded.p95_ms, expected.p95_ms);
  // The top bucket's representative lies above the exact max; a fold over
  // representatives would have reported it.
  EXPECT_LT(folded.max_ms, exact.histogram().nonzero_buckets().back().first);
}

TEST(Report, OfflineTraceParseReproducesInlineTraceSections) {
  const RunTrace trace = make_trace();

  std::ostringstream serialized;
  write_chrome_trace(serialized, trace, "unit");
  const auto parsed = common::parse_json(serialized.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;

  RunData offline;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(parsed.value, "unit", &offline, &error)) << error;

  const AnalysisReport inline_report =
      analyze_with_zoo(extract_run_data(trace, "unit"));
  const AnalysisReport offline_report = analyze_with_zoo(offline);
  EXPECT_FALSE(offline_report.has_attribution) << "a trace carries no rollups";
  EXPECT_EQ(offline_report.reps, inline_report.reps);
  const std::string sections = test::trace_sections_json(inline_report);
  EXPECT_NE(sections.find("switch_begin"), std::string::npos);
  EXPECT_EQ(sections, test::trace_sections_json(offline_report));
}

TEST(Report, OfflineTraceRunTakesItsLabelFromTheTrace) {
  const RunTrace trace = make_trace();
  const auto parse = [&](const std::string& written) {
    std::ostringstream serialized;
    write_chrome_trace(serialized, trace, written);
    const auto parsed = common::parse_json(serialized.str());
    EXPECT_TRUE(parsed.ok) << parsed.error;
    RunData offline;
    std::string error;
    EXPECT_TRUE(parse_chrome_trace(parsed.value, "fig04.azure_Paldia", &offline,
                                   &error))
        << error;
    return offline.label;
  };
  EXPECT_EQ(parse("azure / Paldia"), "azure / Paldia");
  // A trace written without a run label falls back to the caller's name.
  EXPECT_EQ(parse(""), "fig04.azure_Paldia");
}

TEST(Report, MergedTraceAndRollupRunsReproduceTheInlineReport) {
  // paldia-analyze over a trace file and a rollup stream of the same run
  // prints that run once, with every section of the inline report.
  const RunTrace trace = make_trace();
  const std::string label = "azure / Paldia";
  std::ostringstream serialized;
  write_chrome_trace(serialized, trace, label);
  const auto parsed = common::parse_json(serialized.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  RunData offline;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(parsed.value, "trace.azure_Paldia", &offline, &error))
      << error;

  std::vector<AnalysisReport> runs;
  runs.push_back(analyze_with_zoo(offline));
  runs.push_back(rollup_report(trace, label));
  runs.push_back(rollup_report(trace, "another run"));
  // A second trace of the same label is another run, not a duplicate.
  runs.push_back(analyze_with_zoo(offline));
  const std::vector<AnalysisReport> merged = merge_reports_by_label(std::move(runs));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1].label, "another run");
  EXPECT_EQ(merged[2].label, label);
  EXPECT_FALSE(merged[2].has_attribution);

  std::ostringstream inline_json;
  std::ostringstream merged_json;
  write_report_json(inline_json, {analyze_with_zoo(extract_run_data(trace, label))});
  write_report_json(merged_json, {merged[0]});
  EXPECT_EQ(merged_json.str(), inline_json.str());
}

TEST(Report, OfflineRollupReproducesInlineAttributionBytes) {
  const RunTrace trace = make_trace();
  const AnalysisReport inline_report =
      analyze_with_zoo(extract_run_data(trace, "unit"));
  const std::string attribution = test::attribution_json(inline_report);
  ASSERT_FALSE(attribution.empty());
  EXPECT_EQ(attribution, test::attribution_json(rollup_report(trace, "unit")));

  // Rep 1's CPU node first appears after rep 0's rows and keeps that
  // first-appearance position on both sides.
  const std::string cpu(hw::Catalog::instance().name(hw::NodeType::kC6i_2xlarge));
  ASSERT_FALSE(inline_report.per_node.empty());
  EXPECT_EQ(inline_report.per_node.back().label, cpu);
  EXPECT_EQ(inline_report.per_node.back().completed, 1u);

  // Sampling thins the trace, never the attribution: the sampled run's
  // section equals the unsampled one, latency included, on both sides.
  const RunTrace sampled = make_trace(8);
  EXPECT_GT(sampled.sampled_out(), 0u) << "1-in-8 sampling dropped nothing";
  const AnalysisReport sampled_report =
      analyze_with_zoo(extract_run_data(sampled, "unit"));
  EXPECT_EQ(sampled_report.sampled_out, sampled.sampled_out());
  EXPECT_EQ(test::attribution_json(sampled_report), attribution);
  EXPECT_EQ(test::attribution_json(rollup_report(sampled, "unit")), attribution);
}

TEST(Report, ReportJsonIsDeterministicAndValid) {
  const RunTrace trace = make_trace(8);
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));

  std::ostringstream first;
  std::ostringstream second;
  write_report_json(first, {report});
  write_report_json(second, {report});
  EXPECT_EQ(first.str(), second.str());

  const auto parsed = common::parse_json(first.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const common::JsonValue* runs = parsed.value.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->as_array().size(), 1u);
  const common::JsonValue& run = runs->as_array()[0];
  EXPECT_EQ(run.string_or("label", ""), "unit");
  const common::JsonValue* meta = run.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->number_or("sampled_out", -1.0),
            static_cast<double>(trace.sampled_out()));
  const common::JsonValue* attribution = run.find("attribution");
  ASSERT_NE(attribution, nullptr);
  EXPECT_EQ(attribution->find("sampled_out"), nullptr);
  EXPECT_DOUBLE_EQ(attribution->number_or("violations", -1.0), 10.0);
  const common::JsonValue* causes = attribution->find("causes");
  ASSERT_NE(causes, nullptr);
  double cause_sum = 0.0;
  for (const auto& member : causes->as_object()) {
    cause_sum += member.second.as_number();
  }
  EXPECT_DOUBLE_EQ(cause_sum, attribution->number_or("violations", -1.0));
}

TEST(Report, RenderTextMentionsEverySection) {
  const RunTrace trace = make_trace();
  const AnalysisReport report =
      analyze_with_zoo(extract_run_data(trace, "unit"));
  std::ostringstream out;
  render_report_text(out, {report});
  const std::string text = out.str();
  EXPECT_NE(text.find("unit"), std::string::npos);
  EXPECT_NE(text.find("requests 35"), std::string::npos);
  EXPECT_NE(text.find("mps_interference"), std::string::npos);
  EXPECT_NE(text.find("switch_begin"), std::string::npos);
  EXPECT_NE(text.find("Calibration"), std::string::npos);
}

/// The text line of the per-node table whose first cell is `node`.
std::string node_line(const std::string& text, const std::string& node) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t first = line.find_first_not_of(" |");
    if (first != std::string::npos && line.compare(first, node.size(), node) == 0) {
      return line;
    }
  }
  return "";
}

TEST(Report, RenderTextJoinsNodeUsageByName) {
  // Attribution rows follow rollup first appearance, node_usage catalog
  // order: a join by position would hand node-b's row node-a's batches.
  AnalysisReport report;
  report.label = "join";
  report.has_attribution = true;
  ReportBucket b;
  b.label = "node-b";
  b.completed = 5;
  ReportBucket a;
  a.label = "node-a";
  a.completed = 7;
  report.per_node = {b, a};
  report.node_usage = {NodeUsage{"node-a", 1111, 1000.0, 0.25},
                       NodeUsage{"node-b", 2222, 2000.0, 0.5},
                       NodeUsage{"node-c", 3333, 3000.0, 0.75}};
  std::ostringstream out;
  render_report_text(out, {report});
  const std::string text = out.str();
  EXPECT_NE(node_line(text, "node-b").find("2222"), std::string::npos) << text;
  EXPECT_NE(node_line(text, "node-a").find("1111"), std::string::npos) << text;
  // A node with batches but no attribution row still shows its usage.
  EXPECT_NE(node_line(text, "node-c").find("3333"), std::string::npos) << text;
}

TEST(Report, RenderTextOmitsAttributionWithoutRollups) {
  // A trace-only report (paldia-analyze over a trace file) and an
  // alert-only one carry no attribution: no "requests 0 ... 100%" line.
  const RunTrace trace = make_trace();
  std::ostringstream serialized;
  write_chrome_trace(serialized, trace, "unit");
  const auto parsed = common::parse_json(serialized.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  RunData offline;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(parsed.value, "unit", &offline, &error)) << error;
  AnalysisReport alerts_only;
  alerts_only.label = "alerts";
  alerts_only.health.enabled = true;

  std::ostringstream out;
  render_report_text(out, {analyze_with_zoo(offline), alerts_only});
  const std::string text = out.str();
  EXPECT_EQ(text.find("requests "), std::string::npos) << text;
  EXPECT_EQ(text.find("Violation attribution"), std::string::npos) << text;
  EXPECT_NE(text.find("Calibration"), std::string::npos);
  EXPECT_NE(text.find("SLO health"), std::string::npos);
  // The trace's node usage still reaches the per-node table.
  EXPECT_NE(text.find("Per-node"), std::string::npos);
}

}  // namespace
}  // namespace paldia::obs
