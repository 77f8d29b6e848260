// The analysis report: SLO-violation attribution, analytical-model
// calibration, per-node occupancy and the hardware-switch timeline, one
// AnalysisReport per (scenario, scheme) run, rendered as text and/or JSON.
//
// Attribution (request counts, violations by cause, compliance, latency,
// per-model and per-node rows) is one fold over rollup cells
// (AttributionFold). extract_run_data feeds it a RunTrace's aggregators in
// RollupWriter order; analyze_rollup_stream feeds it the parsed rows of a
// rollup stream. Both see the same cells in the same exported form, so the
// inline --report-out section and `paldia-analyze --rollup` are
// byte-identical, and both count every completion whatever the trace's
// sample rate or buffer size.
//
// Calibration, node usage and the switch timeline come from the tracer's
// batch events, instants and decision records: extract_run_data reads them
// from the RunTrace, parse_chrome_trace from an exported trace file. To make
// those sections byte-identical, the inline extractor quantizes every value
// through the exporter's textual formats (quantize_timestamp /
// quantize_number below), the same snprintf/strtod round trip a file read
// performs.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/units.hpp"
#include "src/obs/calibration.hpp"
#include "src/obs/sketch.hpp"
#include "src/obs/tracer.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {

/// ms value -> the double a reader recovers from the trace file's "%.3f"
/// microsecond timestamp field.
double quantize_timestamp(TimeMs ms);
/// value -> the double a reader recovers from a "%.10g" numeric field.
double quantize_number(double value);

/// The trace-derived inputs of one repetition, in exporter-quantized form
/// (see header comment). Node tags are indices into node_names.
struct RepData {
  /// The repetition's catalog names by node index. Inline: the whole slot
  /// catalog (RunTrace::node_names). Offline: the nodes the trace names —
  /// every node a request or batch ran on — with "" in the gaps.
  std::vector<std::string> node_names;
  /// Monitor ticks that carried a candidate sweep (observation fields are
  /// filled by analyze() from `batches`).
  std::vector<CalibrationInterval> ticks;
  struct BatchObs {
    int node = -1;
    TimeMs submit_ms = 0.0;
    TimeMs end_ms = 0.0;    // submit + e2e, both exporter-quantized
    TimeMs start_ms = 0.0;  // device execution start
    DurationMs dur_ms = 0.0;
  };
  std::vector<BatchObs> batches;
  struct SwitchEvent {
    TimeMs t_ms = 0.0;
    std::string event;  // switch_begin / switch_active / node_failure / ...
    std::string node;
  };
  std::vector<SwitchEvent> switches;
};

/// One rollup cell in the form RollupWriter exports it, which is all the
/// attribution fold reads. Numbers are the doubles a reader recovers from
/// the row's "%.10g" fields.
struct RollupRow {
  int model = -1;    // models::ModelId; -1 = cluster-wide gauge rows
  std::string node;  // catalog name; "" = unserved rows (no node)
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  std::uint64_t unserved = 0;
  telemetry::ViolationCauseCounts causes{};
  /// The cell's exact latency mean and max.
  double mean_ms = 0.0;
  double max_ms = 0.0;
  /// Sparse latency histogram: (bucket representative, count) pairs.
  std::vector<std::pair<double, std::uint64_t>> hist;
};

/// A report latency distribution folded from rollup cells. The bucket
/// counts, and so p50/p95/p99, come from the cells' sparse histograms;
/// mean_ms and max_ms come from the cells' exact means and maxima, never
/// from bucket representatives.
class LatencyFold {
 public:
  void add(const RollupRow& row);
  std::uint64_t count() const { return buckets_.count(); }
  SketchSummary summary() const;

 private:
  QuantileSketch buckets_;
  double sum_ms_ = 0.0;  // sum over cells of count x mean
  double max_ms_ = 0.0;
};

/// Attribution cell for one model or node (or the run total).
struct ReportBucket {
  std::string label;  // model or node name; node rows key by it
  std::uint64_t completed = 0;  // includes unserved requests
  std::uint64_t violations = 0;
  telemetry::ViolationCauseCounts causes{};
  LatencyFold latency;

  /// Fold one cell: an unserved request counts as completed and violating.
  void add(const RollupRow& row);
};

struct NodeUsage {
  std::string label;
  std::uint64_t batches = 0;
  DurationMs busy_ms = 0.0;
  /// Lane-busy time over summed rep spans; > 1 means lanes ran in parallel.
  double occupancy = 0.0;
};

struct TimelineEntry {
  int rep = 0;
  TimeMs t_ms = 0.0;
  std::string event;
  std::string node;
};

/// One row of the simulator self-profile (--profile): wall-clock totals for
/// a hot-path phase, merged across repetitions. Wall-clock values are
/// nondeterministic by nature, so this section never participates in the
/// byte-identity contract — it is emitted only when non-empty.
struct PhaseProfile {
  std::string phase;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
};

/// One incident row of the "health" section, in exporter-quantized textual
/// form — built inline from a HealthEngine's AlertRecords or parsed back
/// from an AlertWriter JSONL stream, so both producers are byte-identical.
struct HealthAlert {
  int rep = 0;
  std::string detector;  // health_detector_name
  std::string model;     // "" = cluster-wide
  std::string node;
  TimeMs open_ms = 0.0;
  TimeMs fire_ms = 0.0;
  TimeMs resolve_ms = 0.0;
  bool resolved_at_end = false;
  double peak_severity = 0.0;
  std::uint64_t ticks_breached = 0;
  std::string blame;  // violation_cause_name
  std::uint64_t violations = 0;  // ground truth over [open, resolve]
  std::uint64_t completed = 0;
};

/// "health" report section: the incident timeline plus detection quality
/// against the engine's ground truth. Emitted only when a health engine ran
/// (enabled), so non-health reports keep byte identity.
struct HealthReport {
  bool enabled = false;
  std::vector<HealthAlert> alerts;  // rep order, then resolution order
  std::uint64_t completed = 0;      // summed across repetitions
  std::uint64_t violations = 0;
  std::uint64_t evaluations = 0;
  double first_violation_ms = -1.0;  // min across reps; -1 = compliant run
  double first_fire_ms = -1.0;       // earliest alert fire; -1 = no alerts
  /// Mean-time-to-detect proxy: first_fire_ms - first_violation_ms, or -1
  /// when either side is undefined.
  double mttd_ms = -1.0;
  std::uint64_t false_positives = 0;  // alerts with zero in-window violations
  double false_positive_rate = 0.0;   // false_positives / alerts (0 if none)
};

struct AnalysisReport {
  std::string label;
  int reps = 0;
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_decisions = 0;
  /// Compliant lifecycles trace sampling left out of the trace. Attribution
  /// is unaffected: it folds rollup cells, which see every completion.
  std::uint64_t sampled_out = 0;

  /// False when the run's input carried no rollup cells (a trace-only or
  /// alert-only report); the attribution fields below are then empty.
  bool has_attribution = false;
  ReportBucket total;                    // completed includes unserved
  std::uint64_t unserved = 0;
  double compliance = 1.0;               // 1 - violations / completed
  std::vector<ReportBucket> per_model;   // model index ascending, non-empty
  /// One row per distinct node name, non-empty, in the rollup cells'
  /// first-appearance order.
  std::vector<ReportBucket> per_node;

  CalibrationSummary calibration;
  /// One row per distinct node name that ran a batch, ordered by catalog
  /// index then repetition (Table II runs: Table II order). Calibration
  /// node rows follow the same order.
  std::vector<NodeUsage> node_usage;
  std::vector<TimelineEntry> switch_timeline;  // rep order, then time order
  std::vector<PhaseProfile> profile;     // --profile only; else empty
  HealthReport health;                   // --alerts-out only; else disabled
};

/// The report's attribution section as one fold over rollup cells. Cells
/// must arrive in RollupWriter order (repetition, then cell key), which
/// fixes the per-node row order: first appearance.
class AttributionFold {
 public:
  void add(const RollupRow& row);
  /// Fill the report's attribution fields (has_attribution, total,
  /// unserved, compliance, per_model, per_node).
  void finish(AnalysisReport& report) const;

 private:
  bool folded_ = false;
  ReportBucket total_;
  std::uint64_t unserved_ = 0;
  std::array<ReportBucket, models::kModelCount> per_model_;
  std::vector<ReportBucket> per_node_;
  std::unordered_map<std::string, std::size_t> node_rows_;
};

/// Everything analyze() needs about one run.
struct RunData {
  std::string label;
  int reps_declared = 0;  // slot count (file metadata / RunTrace size)
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_decisions = 0;
  std::uint64_t sampled_out = 0;
  std::vector<RepData> reps;
  AttributionFold attribution;
};

/// Inline producer: the trace sections' inputs straight from the tracer
/// slots, quantized, plus the attribution fold over the rollup slots, both
/// in repetition order (identical bytes for any thread count).
RunData extract_run_data(const RunTrace& trace, const std::string& label);

/// Offline producer of the trace sections: RunData from a parsed
/// Chrome-trace JSON document (write_chrome_trace output). The run label,
/// node labels and each repetition's pid block come from the trace's
/// process-name metadata ("paldia framework (<label> rep <n>)"); `label`
/// names the run only when the trace was written without one. A trace
/// carries no rollup cells, so the report has no attribution. Returns false
/// and sets `error` when the document is not a trace export.
bool parse_chrome_trace(const common::JsonValue& root, const std::string& label,
                        RunData* out, std::string* error);

/// Shared consumer. `slo_ms` is the calibration guarantee threshold and
/// `rate_horizon_ms` the EWMA forecast horizon (framework defaults: min
/// model SLO, 7 s).
AnalysisReport analyze(const RunData& data, DurationMs slo_ms,
                       DurationMs rate_horizon_ms);

/// analyze() with the model zoo's minimum SLO and framework-default horizon.
AnalysisReport analyze_with_zoo(const RunData& data);

/// Merge the RunTrace's per-repetition Profilers into report rows, in
/// ProfilePhase order, skipping phases that never ran. Empty when --profile
/// was off (no profiler slots) or nothing was recorded.
std::vector<PhaseProfile> summarize_profile(const RunTrace& trace);

/// Inline producer for the "health" section: quantized incident rows and
/// ground truth straight from the RunTrace's HealthEngine slots (repetition
/// order). enabled stays false when no health engines ran.
HealthReport summarize_health(const RunTrace& trace);

/// Alert-stream consumer (`paldia-analyze --alerts`): rebuild per-run
/// AnalysisReports from an AlertWriter JSONL stream (rows group by their
/// "run" label in first-appearance order). Only the "health" section is
/// recoverable; it matches the inline section byte for byte. Returns false
/// and sets `error` on malformed input.
bool analyze_alert_stream(const std::string& text,
                          std::vector<AnalysisReport>* out,
                          std::string* error);

/// Rollup-stream consumer (`paldia-analyze --rollup`): per-run reports from
/// a rollup JSONL stream (RollupWriter output). Rows group by their "run"
/// label in first-appearance order, and each run's rows feed the same
/// AttributionFold the inline report uses, so its attribution section
/// equals the inline one byte for byte. Calibration, node usage and the
/// switch timeline need the trace and stay empty. Returns false and sets
/// `error` on malformed input.
bool analyze_rollup_stream(const std::string& text,
                           std::vector<AnalysisReport>* out,
                           std::string* error);

/// Reports that share a label (the same run read from its trace file,
/// rollup stream and alert stream) merge into the first one, each section
/// taken from the input that carries it, so paldia-analyze over all three
/// prints each run once. A report whose sections the earlier one already
/// has (two trace files with one label) stays a run of its own. Order is
/// first appearance.
std::vector<AnalysisReport> merge_reports_by_label(std::vector<AnalysisReport> runs);

/// Human-readable multi-section report (tables + timeline).
void render_report_text(std::ostream& out, const std::vector<AnalysisReport>& runs);

/// The report's "Self-profile" section on its own (header line + table).
void render_profile_text(std::ostream& out, const std::vector<PhaseProfile>& rows);

/// Machine-readable report: {"runs":[...]} with a fixed key order, numbers
/// formatted with "%.10g" — byte-identical for identical report structs.
void write_report_json(std::ostream& out, const std::vector<AnalysisReport>& runs);
bool write_report_json_file(const std::string& path,
                            const std::vector<AnalysisReport>& runs,
                            std::string* error);

}  // namespace paldia::obs
