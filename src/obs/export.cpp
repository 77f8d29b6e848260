#include "src/obs/export.hpp"

#include <cctype>
#include <ostream>

#include "src/common/json.hpp"
#include "src/common/log.hpp"
#include "src/models/model_spec.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {
namespace {

using common::json_escape;
constexpr auto num = common::json_number;

std::string csv_escape(const std::string& cell) {
  // \r must quote too: a bare CR inside a cell splits the row for any
  // reader that treats CRLF (or lone CR) as a record separator.
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += "\"";
  return out;
}

std::string sanitize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '-';
  }
  return out;
}

}  // namespace

ExportFormat format_for_path(const std::string& path) {
  const auto dot = path.find_last_of('.');
  if (dot != std::string::npos && path.substr(dot) == ".csv") {
    return ExportFormat::kCsv;
  }
  return ExportFormat::kJsonl;
}

bool warn_if_truncated(const RunTrace& trace, const std::string& context,
                       bool reads_events) {
  const std::uint64_t events = reads_events ? trace.dropped_events() : 0;
  const std::uint64_t decisions = trace.dropped_decisions();
  if (events == 0 && decisions == 0) return false;
  log_warn("trace export '", context, "' is truncated: ", events,
           " events and ", decisions,
           " decision records were dropped (raise TracerConfig capacities); "
           "the trace file, the decision log and the report's calibration, "
           "node usage and switch timeline undercount (attribution comes "
           "from the rollups)");
  return true;
}

std::string derive_trace_path(const std::string& base, const std::string& scenario,
                              const std::string& scheme) {
  const std::string tag = sanitize(scenario) + "_" + sanitize(scheme);
  const auto dot = base.find_last_of('.');
  const auto slash = base.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "." + tag + ".json";
  }
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

// --- MetricsWriter ----------------------------------------------------------

namespace {
const char* const kMetricsColumns[] = {
    "figure",         "scheme",          "workload",
    "trace",          "requests",        "slo_compliance",
    "mean_latency_ms", "p50_latency_ms", "p95_latency_ms",
    "p99_latency_ms", "p99_solo_ms",     "p99_queue_ms",
    "p99_interference_ms", "p99_cold_start_ms", "cost",
    "average_power",  "gpu_utilization", "cpu_utilization",
    "goodput_rps",    "offered_rps",     "cold_starts",
    "slo_violations",
    // One column per telemetry::ViolationCause, in enum order.
    "viol_cold_start", "viol_gateway_queue", "viol_batching",
    "viol_mps_interference", "viol_hardware_switch", "viol_failure_retry",
    "viol_execution", "viol_unserved",
    "tmax_mape", "tmax_coverage", "rate_mape", "calib_intervals",
    "tmax_cache_hits", "tmax_cache_misses", "tmax_cache_hit_rate",
};
}  // namespace

MetricsWriter::MetricsWriter(std::ostream& out, ExportFormat format)
    : out_(&out), format_(format) {}

MetricsWriter::MetricsWriter(const std::string& path)
    : file_(std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc)),
      format_(format_for_path(path)) {
  if (!*file_) {
    error_ = "cannot open " + path;
    file_.reset();
    return;
  }
  out_ = file_.get();
}

bool MetricsWriter::ok() const { return out_ != nullptr && error_.empty(); }

void MetricsWriter::write(const telemetry::RunMetrics& metrics,
                          const std::string& figure) {
  if (!ok()) return;
  const auto& breakdown = metrics.p99_breakdown;
  if (format_ == ExportFormat::kCsv) {
    if (!header_written_) {
      header_written_ = true;
      bool first = true;
      for (const char* column : kMetricsColumns) {
        if (!first) *out_ << ",";
        first = false;
        *out_ << column;
      }
      *out_ << "\n";
    }
    *out_ << csv_escape(figure) << "," << csv_escape(metrics.scheme) << ","
          << csv_escape(metrics.workload) << "," << csv_escape(metrics.trace) << ","
          << metrics.requests << "," << num(metrics.slo_compliance) << ","
          << num(metrics.mean_latency_ms) << "," << num(metrics.p50_latency_ms) << ","
          << num(metrics.p95_latency_ms) << "," << num(metrics.p99_latency_ms) << ","
          << num(breakdown.solo_ms) << "," << num(breakdown.queue_ms) << ","
          << num(breakdown.interference_ms) << "," << num(breakdown.cold_start_ms)
          << "," << num(metrics.cost) << "," << num(metrics.average_power) << ","
          << num(metrics.gpu_utilization) << "," << num(metrics.cpu_utilization)
          << "," << num(metrics.goodput_rps) << "," << num(metrics.offered_rps)
          << "," << metrics.cold_starts << "," << num(metrics.slo_violations);
    for (const double count : metrics.violations_by_cause) *out_ << "," << num(count);
    *out_ << "," << num(metrics.tmax_mape) << "," << num(metrics.tmax_coverage)
          << "," << num(metrics.rate_mape) << "," << num(metrics.calib_intervals)
          << "," << num(metrics.tmax_cache_hits) << ","
          << num(metrics.tmax_cache_misses) << ","
          << num(metrics.tmax_cache_hit_rate) << "\n";
  } else {
    *out_ << "{\"figure\":\"" << json_escape(figure) << "\",\"scheme\":\""
          << json_escape(metrics.scheme) << "\",\"workload\":\""
          << json_escape(metrics.workload) << "\",\"trace\":\""
          << json_escape(metrics.trace) << "\",\"requests\":" << metrics.requests
          << ",\"slo_compliance\":" << num(metrics.slo_compliance)
          << ",\"mean_latency_ms\":" << num(metrics.mean_latency_ms)
          << ",\"p50_latency_ms\":" << num(metrics.p50_latency_ms)
          << ",\"p95_latency_ms\":" << num(metrics.p95_latency_ms)
          << ",\"p99_latency_ms\":" << num(metrics.p99_latency_ms)
          << ",\"p99_breakdown\":{\"latency_ms\":" << num(breakdown.latency_ms)
          << ",\"solo_ms\":" << num(breakdown.solo_ms)
          << ",\"queue_ms\":" << num(breakdown.queue_ms)
          << ",\"interference_ms\":" << num(breakdown.interference_ms)
          << ",\"cold_start_ms\":" << num(breakdown.cold_start_ms)
          << ",\"samples\":" << breakdown.samples << "}"
          << ",\"cost\":" << num(metrics.cost)
          << ",\"average_power\":" << num(metrics.average_power)
          << ",\"gpu_utilization\":" << num(metrics.gpu_utilization)
          << ",\"cpu_utilization\":" << num(metrics.cpu_utilization)
          << ",\"goodput_rps\":" << num(metrics.goodput_rps)
          << ",\"offered_rps\":" << num(metrics.offered_rps)
          << ",\"cold_starts\":" << metrics.cold_starts
          << ",\"slo_violations\":" << num(metrics.slo_violations)
          << ",\"violation_causes\":{";
    for (int cause = 0; cause < telemetry::kViolationCauseCount; ++cause) {
      if (cause > 0) *out_ << ",";
      *out_ << "\"" << telemetry::violation_cause_name(
                           static_cast<telemetry::ViolationCause>(cause))
            << "\":" << num(metrics.violations_by_cause[cause]);
    }
    *out_ << "},\"calibration\":{\"tmax_mape\":" << num(metrics.tmax_mape)
          << ",\"tmax_coverage\":" << num(metrics.tmax_coverage)
          << ",\"rate_mape\":" << num(metrics.rate_mape)
          << ",\"intervals\":" << num(metrics.calib_intervals)
          << "},\"tmax_cache\":{\"hits\":" << num(metrics.tmax_cache_hits)
          << ",\"misses\":" << num(metrics.tmax_cache_misses)
          << ",\"hit_rate\":" << num(metrics.tmax_cache_hit_rate) << "}}\n";
  }
  out_->flush();
}

// --- DecisionLogWriter ------------------------------------------------------

DecisionLogWriter::DecisionLogWriter(std::ostream& out, ExportFormat format)
    : out_(&out), format_(format) {}

DecisionLogWriter::DecisionLogWriter(const std::string& path)
    : file_(std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc)),
      format_(format_for_path(path)) {
  if (!*file_) {
    error_ = "cannot open " + path;
    file_.reset();
    return;
  }
  out_ = file_.get();
}

bool DecisionLogWriter::ok() const { return out_ != nullptr && error_.empty(); }

void DecisionLogWriter::write(const RunTrace& trace, const std::string& scheme,
                              const std::string& scenario) {
  if (!ok()) return;
  for (std::size_t rep = 0; rep < trace.reps.size(); ++rep) {
    if (trace.reps[rep] == nullptr) continue;
    for (const auto& record : trace.reps[rep]->decisions()) {
      write_record(trace, record, rep, scheme, scenario);
    }
  }
  out_->flush();
}

void DecisionLogWriter::write_record(const RunTrace& trace,
                                     const DecisionRecord& record, std::size_t rep,
                                     const std::string& scheme,
                                     const std::string& scenario) {
  const auto node = [&](hw::NodeType type) {
    return trace.node_name(rep, hw::node_index(type));
  };
  if (format_ == ExportFormat::kCsv) {
    if (!header_written_) {
      header_written_ = true;
      *out_ << "scheme,scenario,rep,t_ms,current,chosen,final,switch_begun,"
               "feasible,t_max_ms,best_t_max_ms,band_ms,wait_ctr,downgrade_ctr,"
               "emergency_ctr,cpu_short_circuit,predicted_rps,observed_rps,"
               "pool_size,evaluated,pruned,candidates\n";
    }
    // Candidates as "node:t_max:feasible:price" joined with ';' — one cell,
    // still splittable without a CSV-in-CSV parser.
    std::string candidates;
    for (const auto& candidate : record.candidates) {
      if (!candidates.empty()) candidates += ";";
      candidates += node(candidate.node) + ":" + num(candidate.t_max_ms) + ":" +
                    (candidate.feasible ? "1" : "0") + ":" +
                    num(candidate.price_per_hour);
    }
    *out_ << csv_escape(scheme) << "," << csv_escape(scenario) << "," << rep << ","
          << num(record.t_ms) << "," << node(record.current) << ","
          << node(record.raw_choice) << "," << node(record.final_choice) << ","
          << (record.switch_begun ? 1 : 0) << "," << (record.raw_feasible ? 1 : 0)
          << "," << num(record.raw_t_max_ms) << "," << num(record.best_t_max_ms)
          << "," << num(record.band_ms) << "," << record.wait_ctr << ","
          << record.downgrade_ctr << "," << record.emergency_ctr << ","
          << (record.cpu_short_circuit ? 1 : 0) << "," << num(record.predicted_rps)
          << "," << num(record.observed_rps) << "," << record.pool_size << ","
          << record.evaluated_candidates << "," << record.pruned_candidates << ","
          << csv_escape(candidates) << "\n";
  } else {
    *out_ << "{\"scheme\":\"" << json_escape(scheme) << "\",\"scenario\":\""
          << json_escape(scenario) << "\",\"rep\":" << rep
          << ",\"t_ms\":" << num(record.t_ms) << ",\"current\":\""
          << node(record.current) << "\",\"chosen\":\"" << node(record.raw_choice)
          << "\",\"final\":\"" << node(record.final_choice)
          << "\",\"switch_begun\":" << (record.switch_begun ? "true" : "false")
          << ",\"feasible\":" << (record.raw_feasible ? "true" : "false")
          << ",\"t_max_ms\":" << num(record.raw_t_max_ms)
          << ",\"best_t_max_ms\":" << num(record.best_t_max_ms)
          << ",\"band_ms\":" << num(record.band_ms)
          << ",\"wait_ctr\":" << record.wait_ctr
          << ",\"downgrade_ctr\":" << record.downgrade_ctr
          << ",\"emergency_ctr\":" << record.emergency_ctr
          << ",\"cpu_short_circuit\":" << (record.cpu_short_circuit ? "true" : "false")
          << ",\"predicted_rps\":" << num(record.predicted_rps)
          << ",\"observed_rps\":" << num(record.observed_rps)
          << ",\"pool_size\":" << record.pool_size
          << ",\"evaluated\":" << record.evaluated_candidates
          << ",\"pruned\":" << record.pruned_candidates
          << ",\"candidates\":[";
    bool first = true;
    for (const auto& candidate : record.candidates) {
      if (!first) *out_ << ",";
      first = false;
      *out_ << "{\"node\":\"" << node(candidate.node)
            << "\",\"t_max_ms\":" << num(candidate.t_max_ms)
            << ",\"feasible\":" << (candidate.feasible ? "true" : "false")
            << ",\"price_per_hour\":" << num(candidate.price_per_hour)
            << ",\"best_y\":" << candidate.best_y << "}";
    }
    *out_ << "]}\n";
  }
}

// --- RollupWriter -----------------------------------------------------------

RollupWriter::RollupWriter(std::ostream& out, ExportFormat format)
    : out_(&out), format_(format) {}

RollupWriter::RollupWriter(const std::string& path)
    : file_(std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc)),
      format_(format_for_path(path)) {
  if (!*file_) {
    error_ = "cannot open " + path;
    file_.reset();
    return;
  }
  out_ = file_.get();
}

bool RollupWriter::ok() const { return out_ != nullptr && error_.empty(); }

void RollupWriter::write(const RunTrace& trace, const std::string& run) {
  if (!ok()) return;
  for (std::size_t rep = 0; rep < trace.rollups.size(); ++rep) {
    const RollupAggregator* rollup = trace.rollups[rep].get();
    if (rollup == nullptr) continue;
    for (const auto& [key, cell] : rollup->cells()) {
      write_cell(key, cell, rollup->config(), static_cast<int>(rep),
                 trace.node_name(rep, key.node), run);
    }
  }
  out_->flush();
}

void RollupWriter::write_cell(const RollupKey& key, const RollupCell& cell,
                              const RollupConfig& config, int rep,
                              const std::string& node, const std::string& run) {
  const std::string model =
      key.model >= 0 && key.model < models::kModelCount
          ? std::string(models::model_id_name(models::ModelId(key.model)))
          : std::string();
  const TimeMs window_start = key.window * config.window_ms;
  const SketchSummary latency = cell.latency.summary();
  const auto hist = cell.latency.histogram().nonzero_buckets();
  const double queue_mean =
      cell.queue_depth_samples > 0
          ? cell.queue_depth_sum / static_cast<double>(cell.queue_depth_samples)
          : 0.0;
  const double in_flight_mean =
      cell.in_flight_samples > 0
          ? cell.in_flight_sum / static_cast<double>(cell.in_flight_samples)
          : 0.0;

  if (format_ == ExportFormat::kCsv) {
    if (!header_written_) {
      header_written_ = true;
      *out_ << "run,rep,window,window_start_ms,window_end_ms,model,node,"
               "completed,violations,unserved,viol_cold_start,"
               "viol_gateway_queue,viol_batching,viol_mps_interference,"
               "viol_hardware_switch,viol_failure_retry,viol_execution,"
               "viol_unserved,latency_count,latency_mean_ms,latency_p50_ms,"
               "latency_p95_ms,latency_p99_ms,latency_max_ms,hist,"
               "queue_depth_mean,queue_depth_samples,in_flight_mean,"
               "in_flight_samples\n";
    }
    // Histogram as "value:count" pairs joined with ';' — one cell, still
    // splittable without a CSV-in-CSV parser (decision-log idiom).
    std::string pairs;
    for (const auto& [value, count] : hist) {
      if (!pairs.empty()) pairs += ";";
      pairs += num(value) + ":" + std::to_string(count);
    }
    *out_ << csv_escape(run) << "," << rep << "," << key.window << ","
          << num(window_start) << "," << num(window_start + config.window_ms)
          << "," << csv_escape(model) << "," << csv_escape(node) << ","
          << cell.completed << "," << cell.violations << "," << cell.unserved;
    for (const std::uint64_t count : cell.causes) *out_ << "," << count;
    *out_ << "," << latency.count << "," << num(latency.mean_ms) << ","
          << num(latency.p50_ms) << "," << num(latency.p95_ms) << ","
          << num(latency.p99_ms) << "," << num(latency.max_ms) << ","
          << csv_escape(pairs) << "," << num(queue_mean) << ","
          << cell.queue_depth_samples << "," << num(in_flight_mean) << ","
          << cell.in_flight_samples << "\n";
  } else {
    *out_ << "{\"run\":\"" << json_escape(run) << "\",\"rep\":" << rep
          << ",\"window\":" << key.window
          << ",\"window_start_ms\":" << num(window_start)
          << ",\"window_end_ms\":" << num(window_start + config.window_ms)
          << ",\"model\":\"" << json_escape(model) << "\",\"node\":\""
          << json_escape(node) << "\",\"completed\":" << cell.completed
          << ",\"violations\":" << cell.violations
          << ",\"unserved\":" << cell.unserved << ",\"causes\":{";
    for (int cause = 0; cause < telemetry::kViolationCauseCount; ++cause) {
      if (cause > 0) *out_ << ",";
      *out_ << "\"" << telemetry::violation_cause_name(
                           static_cast<telemetry::ViolationCause>(cause))
            << "\":" << cell.causes[static_cast<std::size_t>(cause)];
    }
    *out_ << "},\"latency\":{\"count\":" << latency.count
          << ",\"mean_ms\":" << num(latency.mean_ms)
          << ",\"p50_ms\":" << num(latency.p50_ms)
          << ",\"p95_ms\":" << num(latency.p95_ms)
          << ",\"p99_ms\":" << num(latency.p99_ms)
          << ",\"max_ms\":" << num(latency.max_ms) << "},\"hist\":[";
    bool first = true;
    for (const auto& [value, count] : hist) {
      if (!first) *out_ << ",";
      first = false;
      *out_ << "[" << num(value) << "," << count << "]";
    }
    *out_ << "],\"queue_depth_mean\":" << num(queue_mean)
          << ",\"queue_depth_samples\":" << cell.queue_depth_samples
          << ",\"in_flight_mean\":" << num(in_flight_mean)
          << ",\"in_flight_samples\":" << cell.in_flight_samples << "}\n";
  }
  out_->flush();
}

// --- AlertWriter ------------------------------------------------------------

AlertWriter::AlertWriter(std::ostream& out, ExportFormat format)
    : out_(&out), format_(format) {}

AlertWriter::AlertWriter(const std::string& path)
    : file_(std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc)),
      format_(format_for_path(path)) {
  if (!*file_) {
    error_ = "cannot open " + path;
    file_.reset();
    return;
  }
  out_ = file_.get();
}

bool AlertWriter::ok() const { return out_ != nullptr && error_.empty(); }

void AlertWriter::write(const RunTrace& trace, const std::string& run) {
  if (!ok()) return;
  for (std::size_t rep = 0; rep < trace.healths.size(); ++rep) {
    const HealthEngine* engine = trace.healths[rep].get();
    if (engine == nullptr) continue;
    for (const AlertRecord& record : engine->alerts()) {
      write_alert(record, static_cast<int>(rep), trace.node_name(rep, record.node),
                  run);
    }
    write_summary(*engine, static_cast<int>(rep), run);
  }
  out_->flush();
}

void AlertWriter::write_header() {
  if (header_written_) return;
  header_written_ = true;
  // One header for both row kinds; summary rows leave the alert-only
  // columns empty and vice versa.
  *out_ << "run,rep,row,detector,model,node,open_ms,fire_ms,resolve_ms,"
           "resolved_at_end,peak_severity,ticks_breached,blame,violations,"
           "completed,first_violation_ms,evaluations,alerts\n";
}

void AlertWriter::write_alert(const AlertRecord& record, int rep,
                              const std::string& node, const std::string& run) {
  const std::string model =
      record.model >= 0 && record.model < models::kModelCount
          ? std::string(models::model_id_name(models::ModelId(record.model)))
          : std::string();
  const char* detector = health_detector_name(record.detector);
  const std::string_view blame = telemetry::violation_cause_name(record.blame);
  if (format_ == ExportFormat::kCsv) {
    write_header();
    *out_ << csv_escape(run) << "," << rep << ",alert," << detector << ","
          << csv_escape(model) << "," << csv_escape(node) << ","
          << num(record.open_ms) << "," << num(record.fire_ms) << ","
          << num(record.resolve_ms) << "," << (record.resolved_at_end ? 1 : 0)
          << "," << num(record.peak_severity) << "," << record.ticks_breached
          << "," << blame << "," << record.violations << "," << record.completed
          << ",,,\n";
  } else {
    *out_ << "{\"run\":\"" << json_escape(run) << "\",\"rep\":" << rep
          << ",\"row\":\"alert\",\"detector\":\"" << detector
          << "\",\"model\":\"" << json_escape(model) << "\",\"node\":\""
          << json_escape(node) << "\",\"open_ms\":" << num(record.open_ms)
          << ",\"fire_ms\":" << num(record.fire_ms)
          << ",\"resolve_ms\":" << num(record.resolve_ms)
          << ",\"resolved_at_end\":" << (record.resolved_at_end ? "true" : "false")
          << ",\"peak_severity\":" << num(record.peak_severity)
          << ",\"ticks_breached\":" << record.ticks_breached << ",\"blame\":\""
          << blame << "\",\"violations\":" << record.violations
          << ",\"completed\":" << record.completed << "}\n";
  }
  out_->flush();
}

void AlertWriter::write_summary(const HealthEngine& engine, int rep,
                                const std::string& run) {
  if (format_ == ExportFormat::kCsv) {
    write_header();
    *out_ << csv_escape(run) << "," << rep << ",summary,,,,,,,,,,,"
          << engine.violations() << "," << engine.completions() << ","
          << num(engine.first_violation_ms()) << "," << engine.evaluations()
          << "," << engine.alerts().size() << "\n";
  } else {
    *out_ << "{\"run\":\"" << json_escape(run) << "\",\"rep\":" << rep
          << ",\"row\":\"summary\",\"completed\":" << engine.completions()
          << ",\"violations\":" << engine.violations()
          << ",\"first_violation_ms\":" << num(engine.first_violation_ms())
          << ",\"evaluations\":" << engine.evaluations()
          << ",\"alerts\":" << engine.alerts().size() << "}\n";
  }
  out_->flush();
}

}  // namespace paldia::obs
