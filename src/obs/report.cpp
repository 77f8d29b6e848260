#include "src/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <unordered_map>

#include "src/common/table.hpp"
#include "src/models/model_spec.hpp"
#include "src/models/zoo.hpp"

namespace paldia::obs {
namespace {

using telemetry::ViolationCause;

using common::json_escape;
constexpr auto num = common::json_number;

int model_index(std::string_view name) {
  for (int i = 0; i < models::kModelCount; ++i) {
    if (models::model_id_name(models::ModelId(i)) == name) return i;
  }
  return -1;
}

/// Index of a node label in a repetition's catalog; -1 when unknown.
int node_of(const RepData& rep, std::string_view name) {
  const auto& names = rep.node_names;
  const auto it = std::find(names.begin(), names.end(), name);
  return name.empty() || it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

bool is_timeline_event(std::string_view name) {
  return name == "switch_begin" || name == "switch_active" ||
         name == "node_failure" || name == "node_recovered";
}

// The shared ingestion steps of both trace producers: the inline extractor
// passes values already quantized through the exporter's formats, the file
// parser passes what it read, so both build identical RepData.

void add_batch(RepData& rep, int node, TimeMs start_ms, DurationMs dur_ms,
               TimeMs submit_ms, DurationMs e2e_ms) {
  RepData::BatchObs obs;
  obs.node = node;
  obs.start_ms = start_ms;
  obs.dur_ms = dur_ms;
  obs.submit_ms = submit_ms;
  obs.end_ms = submit_ms + e2e_ms;
  rep.batches.push_back(obs);
}

void add_decision(RepData& rep, TimeMs t_ms, int node, DurationMs t_max_ms,
                  int best_y, bool feasible, double predicted_rps,
                  double observed_rps) {
  CalibrationInterval interval;
  interval.t_ms = t_ms;
  interval.node = node;
  interval.predicted_tmax_ms = t_max_ms;
  interval.best_y = best_y;
  interval.predicted_feasible = feasible;
  interval.predicted_rps = predicted_rps;
  interval.observed_rps = observed_rps;
  rep.ticks.push_back(interval);
}

void add_instant(RepData& rep, std::string_view name, TimeMs t_ms, std::string node) {
  if (!is_timeline_event(name)) return;
  RepData::SwitchEvent event;
  event.t_ms = t_ms;
  event.event = std::string(name);
  event.node = std::move(node);
  rep.switches.push_back(std::move(event));
}

}  // namespace

double quantize_timestamp(TimeMs ms) {
  char buf[48];
  const double value = std::isfinite(ms) ? ms * 1000.0 : 0.0;
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return std::strtod(buf, nullptr) / 1000.0;
}

double quantize_number(double value) {
  if (!std::isfinite(value)) return 0.0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return std::strtod(buf, nullptr);
}

// --- Attribution fold -------------------------------------------------------

void LatencyFold::add(const RollupRow& row) {
  std::uint64_t count = 0;
  for (const auto& [value, n] : row.hist) {
    buckets_.add(value, n);
    count += n;
  }
  if (count == 0) return;
  sum_ms_ += row.mean_ms * static_cast<double>(count);
  max_ms_ = std::max(max_ms_, row.max_ms);
}

SketchSummary LatencyFold::summary() const {
  SketchSummary s = buckets_.summary();
  if (s.count == 0) return s;
  // The buckets know only representatives; the cells knew the exact mean
  // and max, and no quantile lies above the max.
  s.mean_ms = sum_ms_ / static_cast<double>(s.count);
  s.max_ms = max_ms_;
  s.p50_ms = std::min(s.p50_ms, max_ms_);
  s.p95_ms = std::min(s.p95_ms, max_ms_);
  s.p99_ms = std::min(s.p99_ms, max_ms_);
  return s;
}

void ReportBucket::add(const RollupRow& row) {
  completed += row.completed + row.unserved;
  violations += row.violations + row.unserved;
  for (std::size_t i = 0; i < causes.size(); ++i) causes[i] += row.causes[i];
  latency.add(row);
}

void AttributionFold::add(const RollupRow& row) {
  folded_ = true;
  total_.add(row);
  unserved_ += row.unserved;
  if (row.model >= 0 && row.model < models::kModelCount) {
    per_model_[static_cast<std::size_t>(row.model)].add(row);
  }
  if (row.node.empty()) return;
  // Gauge-only cells (no completions) still claim their node's row position,
  // on both sides alike; rows that never complete a request are dropped in
  // finish().
  const auto [it, added] = node_rows_.emplace(row.node, per_node_.size());
  if (added) {
    per_node_.emplace_back();
    per_node_.back().label = row.node;
  }
  per_node_[it->second].add(row);
}

void AttributionFold::finish(AnalysisReport& report) const {
  report.has_attribution = folded_;
  report.total = total_;
  report.total.label = "total";
  report.unserved = unserved_;
  report.compliance = total_.completed > 0
                          ? 1.0 - static_cast<double>(total_.violations) /
                                      static_cast<double>(total_.completed)
                          : 1.0;
  report.per_model.clear();
  for (int i = 0; i < models::kModelCount; ++i) {
    if (per_model_[static_cast<std::size_t>(i)].completed == 0) continue;
    report.per_model.push_back(per_model_[static_cast<std::size_t>(i)]);
    report.per_model.back().label =
        std::string(models::model_id_name(models::ModelId(i)));
  }
  report.per_node.clear();
  for (const ReportBucket& bucket : per_node_) {
    if (bucket.completed > 0) report.per_node.push_back(bucket);
  }
}

// --- Inline producer --------------------------------------------------------

RunData extract_run_data(const RunTrace& trace, const std::string& label) {
  RunData out;
  out.label = label;
  out.reps_declared = static_cast<int>(trace.node_names.size());
  out.dropped_events = trace.dropped_events();
  out.dropped_decisions = trace.dropped_decisions();
  out.sampled_out = trace.sampled_out();
  out.reps.resize(trace.reps.size());

  for (std::size_t rep = 0; rep < trace.reps.size(); ++rep) {
    const Tracer* tracer = trace.reps[rep].get();
    if (tracer == nullptr) continue;
    RepData& rd = out.reps[rep];
    if (rep < trace.node_names.size()) rd.node_names = trace.node_names[rep];

    for (const TraceEvent& event : tracer->events()) {
      if (event.type == TraceEvent::Type::kBatch) {
        // Mirror chrome_trace.cpp's field arithmetic exactly, then
        // quantize through the same formats a file reader sees.
        const double submit_ms = event.start_ms - event.value;
        add_batch(rd, event.node, quantize_timestamp(event.start_ms),
                  quantize_timestamp(event.end_ms - event.start_ms),
                  quantize_number(submit_ms),
                  quantize_number(event.end_ms - submit_ms));
      } else if (event.type == TraceEvent::Type::kInstant) {
        add_instant(rd, event.name, quantize_timestamp(event.start_ms),
                    trace.node_name(rep, event.node));
      }
    }

    for (const DecisionRecord& record : tracer->decisions()) {
      if (!record.has_sweep) continue;
      for (const CandidateEval& candidate : record.candidates) {
        if (candidate.node != record.final_choice) continue;
        add_decision(rd, quantize_timestamp(record.t_ms),
                     static_cast<int>(record.final_choice),
                     quantize_number(candidate.t_max_ms), candidate.best_y,
                     candidate.feasible, quantize_number(record.predicted_rps),
                     quantize_number(record.observed_rps));
        break;
      }
    }
  }

  // Attribution: every rollup cell in RollupWriter order, in the form its
  // row carries (the latency mean, max and bucket representatives
  // quantized through "%.10g").
  for (std::size_t rep = 0; rep < trace.rollups.size(); ++rep) {
    const RollupAggregator* rollup = trace.rollups[rep].get();
    if (rollup == nullptr) continue;
    for (const auto& [key, cell] : rollup->cells()) {
      RollupRow row;
      row.model = key.model;
      row.node = trace.node_name(rep, key.node);
      row.completed = cell.completed;
      row.violations = cell.violations;
      row.unserved = cell.unserved;
      row.causes = cell.causes;
      const Histogram& latency = cell.latency.histogram();
      row.mean_ms = quantize_number(latency.mean());
      row.max_ms = quantize_number(latency.max());
      row.hist = latency.nonzero_buckets();
      for (auto& bucket : row.hist) bucket.first = quantize_number(bucket.first);
      out.attribution.add(row);
    }
  }
  return out;
}

// --- Offline producer -------------------------------------------------------

bool parse_chrome_trace(const common::JsonValue& root, const std::string& label,
                        RunData* out, std::string* error) {
  *out = RunData{};
  out->label = label;
  const common::JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    if (error != nullptr) *error = "no traceEvents array (not a trace export?)";
    return false;
  }
  if (const common::JsonValue* meta = root.find("metadata")) {
    out->reps_declared = static_cast<int>(meta->number_or("reps", 0));
    out->dropped_events =
        static_cast<std::uint64_t>(meta->number_or("dropped_events", 0));
    out->dropped_decisions =
        static_cast<std::uint64_t>(meta->number_or("dropped_decisions", 0));
  }
  out->reps.resize(static_cast<std::size_t>(std::max(0, out->reps_declared)));

  // Each repetition's pid block opens with its framework process, named
  // "paldia framework (<suffix>)" with a suffix ending in "rep <n>"; pid
  // base+1+i is named "<name of node i> (<suffix>)" for every node a
  // request or batch ran on.
  constexpr std::string_view kFramework = "paldia framework (";
  struct Slot {
    int rep = 0;
    std::string suffix;
  };
  std::map<int, Slot> slots;  // base pid -> slot
  for (const common::JsonValue& event : events->as_array()) {
    const common::JsonValue* args = event.find("args");
    if (event.string_or("name", "") != "process_name" || args == nullptr) continue;
    const std::string name = args->string_or("name", "");
    const std::size_t at = name.rfind("rep ");
    if (!name.starts_with(kFramework) || at == std::string::npos) continue;
    slots[static_cast<int>(event.number_or("pid", 0))] =
        Slot{std::atoi(name.c_str() + at + 4),
             name.substr(kFramework.size(), name.size() - kFramework.size() - 1)};
  }
  for (const auto& [pid, slot] : slots) {
    out->reps.resize(std::max(out->reps.size(), static_cast<std::size_t>(slot.rep) + 1));
  }
  // The suffix is "<run label> rep <n>": the run label the rollup and alert
  // streams carry too. A trace written without one keeps `label`.
  if (!slots.empty()) {
    const std::string& suffix = slots.begin()->second.suffix;
    const std::size_t at = suffix.rfind(" rep ");
    if (at != std::string::npos && at > 0) out->label = suffix.substr(0, at);
  }

  // Events within a rep appear in recording order (the exporter writes rep
  // blocks sequentially). Request spans, phases and counters carry nothing
  // the trace sections read.
  for (const common::JsonValue& event : events->as_array()) {
    const std::string ph = event.string_or("ph", "");
    const int pid = static_cast<int>(event.number_or("pid", 0));
    // The slot owning the pid: the nearest framework base at or below it.
    auto owner = slots.upper_bound(pid);
    if (ph.empty() || owner == slots.begin()) continue;
    --owner;
    const int base = owner->first;
    RepData& rd = out->reps[static_cast<std::size_t>(owner->second.rep)];
    const TimeMs t_ms = event.number_or("ts", 0.0) / 1000.0;
    const std::string name = event.string_or("name", "");
    const common::JsonValue* args = event.find("args");

    if (ph == "M") {
      // A node process: record its name at its catalog index.
      const std::string tail = " (" + owner->second.suffix + ")";
      const std::string process = args != nullptr ? args->string_or("name", "") : "";
      if (name != "process_name" || pid == base || !process.ends_with(tail)) continue;
      const auto index = static_cast<std::size_t>(pid - base - 1);
      rd.node_names.resize(std::max(rd.node_names.size(), index + 1));
      rd.node_names[index] = process.substr(0, process.size() - tail.size());
    } else if (ph == "X") {
      // The self-profile lane (--profile) also emits "X" slices; only batch
      // slices carry batch_id, and profile timings must never reach the
      // deterministic report path.
      if (args == nullptr || args->find("batch_id") == nullptr) continue;
      add_batch(rd, pid - base - 1, t_ms, event.number_or("dur", 0.0) / 1000.0,
                args->number_or("submit_ms", 0.0), args->number_or("e2e_ms", 0.0));
    } else if (ph == "i") {
      if (name == "hardware_selection") {
        if (args == nullptr) continue;
        const common::JsonValue* candidates = args->find("candidates");
        if (candidates == nullptr || !candidates->is_array()) continue;
        const std::string final_node = args->string_or("final", "");
        for (const common::JsonValue& candidate : candidates->as_array()) {
          if (candidate.string_or("node", "") != final_node) continue;
          add_decision(rd, t_ms, node_of(rd, final_node),
                       candidate.number_or("t_max_ms", 0.0),
                       static_cast<int>(candidate.number_or("best_y", 0)),
                       candidate.bool_or("feasible", false),
                       args->number_or("predicted_rps", 0.0),
                       args->number_or("observed_rps", 0.0));
          break;
        }
      } else {
        add_instant(rd, name, t_ms, args != nullptr ? args->string_or("node", "") : "");
      }
    }
  }
  return true;
}

// --- Shared analysis --------------------------------------------------------

AnalysisReport analyze(const RunData& data, DurationMs slo_ms,
                       DurationMs rate_horizon_ms) {
  AnalysisReport report;
  report.label = data.label;
  report.reps = static_cast<int>(
      std::max<std::size_t>(data.reps.size(),
                            static_cast<std::size_t>(std::max(0, data.reps_declared))));
  report.dropped_events = data.dropped_events;
  report.dropped_decisions = data.dropped_decisions;
  report.sampled_out = data.sampled_out;
  data.attribution.finish(report);

  // Node rows key by catalog name, so nodes of different slot catalogs (a
  // fleet's slices) never merge. Rows follow catalog index, then slot — a
  // Table II run lists its nodes in Table II order. node_row[rep][i] is the
  // row of node i of that repetition's catalog.
  std::vector<std::string> node_labels;
  std::vector<std::vector<int>> node_row(data.reps.size());
  {
    std::unordered_map<std::string, int> row_of_name;
    std::size_t widest = 0;
    for (std::size_t rep = 0; rep < data.reps.size(); ++rep) {
      widest = std::max(widest, data.reps[rep].node_names.size());
      node_row[rep].assign(data.reps[rep].node_names.size(), -1);
    }
    for (std::size_t i = 0; i < widest; ++i) {
      for (std::size_t rep = 0; rep < data.reps.size(); ++rep) {
        const std::vector<std::string>& names = data.reps[rep].node_names;
        if (i >= names.size() || names[i].empty()) continue;
        const auto [it, inserted] =
            row_of_name.emplace(names[i], static_cast<int>(node_labels.size()));
        if (inserted) node_labels.push_back(names[i]);
        node_row[rep][i] = it->second;
      }
    }
  }

  struct UsageAcc {
    std::uint64_t batches = 0;
    DurationMs busy_ms = 0.0;
  };
  std::vector<UsageAcc> usage(node_labels.size());
  DurationMs span_sum_ms = 0.0;
  std::vector<std::vector<CalibrationInterval>> all_ticks;
  all_ticks.reserve(data.reps.size());

  for (std::size_t rep = 0; rep < data.reps.size(); ++rep) {
    const RepData& rd = data.reps[rep];
    TimeMs span_ms = 0.0;
    const auto row_of = [&](int node) {
      return node >= 0 && static_cast<std::size_t>(node) < node_row[rep].size()
                 ? node_row[rep][static_cast<std::size_t>(node)]
                 : -1;
    };

    // Calibration: fold batch observations into their decision interval
    // (same arithmetic as CalibrationTracker::observe_batch).
    std::vector<CalibrationInterval> ticks = rd.ticks;
    for (const RepData::BatchObs& batch : rd.batches) {
      span_ms = std::max(span_ms, batch.start_ms + batch.dur_ms);
      if (const int row = row_of(batch.node); row >= 0) {
        usage[row].batches += 1;
        usage[row].busy_ms += batch.dur_ms;
      }
      const int index = interval_containing(ticks, batch.submit_ms);
      if (index < 0) continue;
      CalibrationInterval& interval = ticks[static_cast<std::size_t>(index)];
      if (interval.node != batch.node) continue;
      interval.observed = true;
      interval.observed_max_e2e_ms = std::max(interval.observed_max_e2e_ms,
                                              batch.end_ms - batch.submit_ms);
    }
    for (CalibrationInterval& tick : ticks) {
      span_ms = std::max(span_ms, tick.t_ms);
      tick.node = row_of(tick.node);  // calibration rows key by node row too
    }
    all_ticks.push_back(std::move(ticks));

    for (const RepData::SwitchEvent& sw : rd.switches) {
      span_ms = std::max(span_ms, sw.t_ms);
      TimelineEntry entry;
      entry.rep = static_cast<int>(rep);
      entry.t_ms = sw.t_ms;
      entry.event = sw.event;
      entry.node = sw.node;
      report.switch_timeline.push_back(std::move(entry));
    }
    span_sum_ms += span_ms;
  }

  report.calibration = summarize_calibration(all_ticks, slo_ms, rate_horizon_ms);
  for (NodeCalibration& row : report.calibration.per_node) {
    if (row.node >= 0) row.label = node_labels[static_cast<std::size_t>(row.node)];
  }
  for (std::size_t i = 0; i < node_labels.size(); ++i) {
    if (usage[i].batches == 0) continue;
    NodeUsage row;
    row.label = node_labels[i];
    row.batches = usage[i].batches;
    row.busy_ms = usage[i].busy_ms;
    row.occupancy = span_sum_ms > 0.0 ? usage[i].busy_ms / span_sum_ms : 0.0;
    report.node_usage.push_back(std::move(row));
  }
  return report;
}

AnalysisReport analyze_with_zoo(const RunData& data) {
  const models::Zoo& zoo = models::Zoo::instance();
  DurationMs min_slo = kTimeNever;
  for (int i = 0; i < models::kModelCount; ++i) {
    min_slo = std::min(min_slo, zoo.spec(models::ModelId(i)).slo_ms);
  }
  const CalibrationTracker::Config defaults;
  if (!std::isfinite(min_slo)) min_slo = defaults.slo_ms;
  return analyze(data, min_slo, defaults.rate_horizon_ms);
}

// --- Self-profile summary ---------------------------------------------------

std::vector<PhaseProfile> summarize_profile(const RunTrace& trace) {
  Profiler merged;
  for (const auto& profiler : trace.profiles) {
    if (profiler != nullptr) merged.merge(*profiler);
  }
  std::vector<PhaseProfile> rows;
  if (merged.empty()) return rows;
  for (int i = 0; i < kProfilePhaseCount; ++i) {
    const PhaseStats& stats = merged.phases()[static_cast<std::size_t>(i)];
    if (stats.calls == 0) continue;
    PhaseProfile row;
    row.phase = std::string(profile_phase_name(static_cast<ProfilePhase>(i)));
    row.calls = stats.calls;
    row.total_ms = static_cast<double>(stats.total_ns) / 1e6;
    row.mean_us = static_cast<double>(stats.total_ns) /
                  (1e3 * static_cast<double>(stats.calls));
    row.max_us = static_cast<double>(stats.max_ns) / 1e3;
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- Health section ---------------------------------------------------------

namespace {

/// Detection-quality derivations shared by the inline and offline health
/// producers, so both compute MTTD / false-positive rate from identical
/// inputs (quantized or parsed — the same doubles either way).
void finish_health(HealthReport& health) {
  health.first_fire_ms = -1.0;
  health.false_positives = 0;
  for (const HealthAlert& alert : health.alerts) {
    if (health.first_fire_ms < 0.0 || alert.fire_ms < health.first_fire_ms) {
      health.first_fire_ms = alert.fire_ms;
    }
    if (alert.violations == 0) ++health.false_positives;
  }
  health.false_positive_rate =
      health.alerts.empty()
          ? 0.0
          : static_cast<double>(health.false_positives) /
                static_cast<double>(health.alerts.size());
  health.mttd_ms =
      health.first_fire_ms >= 0.0 && health.first_violation_ms >= 0.0
          ? health.first_fire_ms - health.first_violation_ms
          : -1.0;
}

}  // namespace

HealthReport summarize_health(const RunTrace& trace) {
  HealthReport health;
  for (std::size_t rep = 0; rep < trace.healths.size(); ++rep) {
    const HealthEngine* engine = trace.healths[rep].get();
    if (engine == nullptr) continue;
    health.enabled = true;
    health.completed += engine->completions();
    health.violations += engine->violations();
    health.evaluations += engine->evaluations();
    const double first = quantize_number(engine->first_violation_ms());
    if (first >= 0.0 &&
        (health.first_violation_ms < 0.0 || first < health.first_violation_ms)) {
      health.first_violation_ms = first;
    }
    for (const AlertRecord& record : engine->alerts()) {
      HealthAlert alert;
      alert.rep = static_cast<int>(rep);
      alert.detector = health_detector_name(record.detector);
      alert.model =
          record.model >= 0 && record.model < models::kModelCount
              ? std::string(models::model_id_name(models::ModelId(record.model)))
              : std::string();
      alert.node = trace.node_name(rep, record.node);
      alert.open_ms = quantize_number(record.open_ms);
      alert.fire_ms = quantize_number(record.fire_ms);
      alert.resolve_ms = quantize_number(record.resolve_ms);
      alert.resolved_at_end = record.resolved_at_end;
      alert.peak_severity = quantize_number(record.peak_severity);
      alert.ticks_breached = record.ticks_breached;
      alert.blame = telemetry::violation_cause_name(record.blame);
      alert.violations = record.violations;
      alert.completed = record.completed;
      health.alerts.push_back(std::move(alert));
    }
  }
  finish_health(health);
  return health;
}

bool analyze_alert_stream(const std::string& text,
                          std::vector<AnalysisReport>* out,
                          std::string* error) {
  out->clear();
  const common::JsonLinesResult parsed = common::parse_json_lines(text);
  if (!parsed.ok) {
    if (error != nullptr) *error = parsed.error;
    return false;
  }

  struct RunAcc {
    AnalysisReport report;
    int max_rep = -1;
  };
  std::vector<RunAcc> runs;
  std::unordered_map<std::string, std::size_t> run_index;

  for (const common::JsonValue& row : parsed.rows) {
    if (!row.is_object()) {
      if (error != nullptr) *error = "alert row is not an object";
      return false;
    }
    const std::string label = row.string_or("run", "");
    auto [it, inserted] = run_index.emplace(label, runs.size());
    if (inserted) {
      runs.emplace_back();
      runs.back().report.label = label;
      runs.back().report.total.label = "total";
      runs.back().report.health.enabled = true;
    }
    RunAcc& acc = runs[it->second];
    HealthReport& health = acc.report.health;
    const int rep = static_cast<int>(row.number_or("rep", 0.0));
    acc.max_rep = std::max(acc.max_rep, rep);

    const std::string kind = row.string_or("row", "");
    if (kind == "alert") {
      HealthAlert alert;
      alert.rep = rep;
      alert.detector = row.string_or("detector", "");
      alert.model = row.string_or("model", "");
      alert.node = row.string_or("node", "");
      alert.open_ms = row.number_or("open_ms", 0.0);
      alert.fire_ms = row.number_or("fire_ms", 0.0);
      alert.resolve_ms = row.number_or("resolve_ms", 0.0);
      alert.resolved_at_end = row.bool_or("resolved_at_end", false);
      alert.peak_severity = row.number_or("peak_severity", 0.0);
      alert.ticks_breached =
          static_cast<std::uint64_t>(row.number_or("ticks_breached", 0.0));
      alert.blame = row.string_or("blame", "");
      alert.violations =
          static_cast<std::uint64_t>(row.number_or("violations", 0.0));
      alert.completed =
          static_cast<std::uint64_t>(row.number_or("completed", 0.0));
      health.alerts.push_back(std::move(alert));
    } else if (kind == "summary") {
      health.completed +=
          static_cast<std::uint64_t>(row.number_or("completed", 0.0));
      health.violations +=
          static_cast<std::uint64_t>(row.number_or("violations", 0.0));
      health.evaluations +=
          static_cast<std::uint64_t>(row.number_or("evaluations", 0.0));
      const double first = row.number_or("first_violation_ms", -1.0);
      if (first >= 0.0 && (health.first_violation_ms < 0.0 ||
                           first < health.first_violation_ms)) {
        health.first_violation_ms = first;
      }
    } else {
      if (error != nullptr) {
        *error = "alert row kind '" + kind + "' is neither alert nor summary";
      }
      return false;
    }
  }

  for (RunAcc& acc : runs) {
    acc.report.reps = acc.max_rep + 1;
    finish_health(acc.report.health);
    out->push_back(std::move(acc.report));
  }
  return true;
}

// --- Merging per-input reports ------------------------------------------------

namespace {

bool has_trace_sections(const AnalysisReport& report) {
  return report.calibration.intervals_total > 0 ||
         !report.calibration.per_node.empty() || !report.node_usage.empty() ||
         !report.switch_timeline.empty();
}

}  // namespace

std::vector<AnalysisReport> merge_reports_by_label(std::vector<AnalysisReport> runs) {
  std::vector<AnalysisReport> merged;
  std::unordered_map<std::string, std::size_t> index;
  for (AnalysisReport& run : runs) {
    const auto found = index.find(run.label);
    AnalysisReport* into = found == index.end() ? nullptr : &merged[found->second];
    // Two inputs with the same section (two trace files of one label) are
    // different runs: keep both rather than drop one.
    if (into == nullptr || (run.has_attribution && into->has_attribution) ||
        (has_trace_sections(run) && has_trace_sections(*into)) ||
        (run.health.enabled && into->health.enabled)) {
      index.emplace(run.label, merged.size());
      merged.push_back(std::move(run));
      continue;
    }
    into->reps = std::max(into->reps, run.reps);
    into->dropped_events = std::max(into->dropped_events, run.dropped_events);
    into->dropped_decisions = std::max(into->dropped_decisions, run.dropped_decisions);
    if (run.has_attribution) {
      into->has_attribution = true;
      into->total = std::move(run.total);
      into->unserved = run.unserved;
      into->compliance = run.compliance;
      into->per_model = std::move(run.per_model);
      into->per_node = std::move(run.per_node);
    }
    if (has_trace_sections(run)) {
      into->calibration = std::move(run.calibration);
      into->node_usage = std::move(run.node_usage);
      into->switch_timeline = std::move(run.switch_timeline);
    }
    if (run.health.enabled) into->health = std::move(run.health);
  }
  return merged;
}

// --- Rollup-stream consumer -------------------------------------------------

bool analyze_rollup_stream(const std::string& text,
                           std::vector<AnalysisReport>* out,
                           std::string* error) {
  out->clear();
  const common::JsonLinesResult parsed = common::parse_json_lines(text);
  if (!parsed.ok) {
    if (error != nullptr) *error = parsed.error;
    return false;
  }

  std::vector<RunData> runs;  // first-appearance order of the run labels
  std::unordered_map<std::string, std::size_t> run_index;
  for (const common::JsonValue& row : parsed.rows) {
    if (!row.is_object()) {
      if (error != nullptr) *error = "rollup row is not an object";
      return false;
    }
    const std::string label = row.string_or("run", "");
    const auto [it, inserted] = run_index.emplace(label, runs.size());
    if (inserted) {
      runs.emplace_back();
      runs.back().label = label;
    }
    RunData& run = runs[it->second];
    run.reps_declared =
        std::max(run.reps_declared, static_cast<int>(row.number_or("rep", 0.0)) + 1);

    RollupRow cell;
    cell.model = model_index(row.string_or("model", ""));
    cell.node = row.string_or("node", "");
    cell.completed = static_cast<std::uint64_t>(row.number_or("completed", 0.0));
    cell.violations = static_cast<std::uint64_t>(row.number_or("violations", 0.0));
    cell.unserved = static_cast<std::uint64_t>(row.number_or("unserved", 0.0));
    if (const common::JsonValue* causes = row.find("causes")) {
      for (int i = 0; i < telemetry::kViolationCauseCount; ++i) {
        cell.causes[static_cast<std::size_t>(i)] =
            static_cast<std::uint64_t>(causes->number_or(
                telemetry::violation_cause_name(static_cast<ViolationCause>(i)),
                0.0));
      }
    }
    if (const common::JsonValue* latency = row.find("latency")) {
      cell.mean_ms = latency->number_or("mean_ms", 0.0);
      cell.max_ms = latency->number_or("max_ms", 0.0);
    }
    if (const common::JsonValue* hist = row.find("hist");
        hist != nullptr && hist->is_array()) {
      for (const common::JsonValue& pair : hist->as_array()) {
        if (!pair.is_array() || pair.as_array().size() != 2) continue;
        cell.hist.emplace_back(
            pair.as_array()[0].as_number(),
            static_cast<std::uint64_t>(pair.as_array()[1].as_number()));
      }
    }
    run.attribution.add(cell);
  }

  for (const RunData& run : runs) out->push_back(analyze_with_zoo(run));
  return true;
}

// --- Text rendering ---------------------------------------------------------

namespace {

std::string top_cause(const ReportBucket& bucket) {
  if (bucket.violations == 0) return "-";
  std::size_t best = 0;
  for (std::size_t i = 1; i < bucket.causes.size(); ++i) {
    if (bucket.causes[i] > bucket.causes[best]) best = i;
  }
  return std::string(
      telemetry::violation_cause_name(static_cast<ViolationCause>(best)));
}

constexpr std::size_t kTimelineRows = 40;  // text report cap; JSON keeps all

}  // namespace

void render_report_text(std::ostream& out,
                        const std::vector<AnalysisReport>& runs) {
  for (const AnalysisReport& report : runs) {
    out << "=== " << report.label << " (" << report.reps << " rep"
        << (report.reps == 1 ? "" : "s") << ") ===\n";
    if (report.has_attribution) {
      out << "requests " << report.total.completed << " | violations "
          << report.total.violations << " (" << Table::percent(report.compliance)
          << " compliant) | unserved " << report.unserved << "\n";
    }
    if (report.sampled_out > 0) {
      out << "trace sampling left out " << report.sampled_out
          << " compliant lifecycles\n";
    }
    if (report.dropped_events > 0 || report.dropped_decisions > 0) {
      out << "WARNING: trace truncated (" << report.dropped_events
          << " events, " << report.dropped_decisions
          << " decisions dropped) — calibration, node usage and the switch "
             "timeline below undercount\n";
    }

    if (report.has_attribution) {
      out << "\nViolation attribution:\n";
      Table table({"cause", "count", "share"});
      for (std::size_t i = 0; i < report.total.causes.size(); ++i) {
        if (report.total.causes[i] == 0) continue;
        const double share =
            report.total.violations > 0
                ? static_cast<double>(report.total.causes[i]) /
                      static_cast<double>(report.total.violations)
                : 0.0;
        table.add_row({std::string(telemetry::violation_cause_name(
                           static_cast<ViolationCause>(i))),
                       std::to_string(report.total.causes[i]),
                       Table::percent(share)});
      }
      if (report.total.violations == 0) table.add_row({"(none)", "0", "-"});
      table.print(out);
    }

    if (!report.per_model.empty()) {
      out << "\nPer-model:\n";
      Table table({"model", "completed", "violations", "p50 ms", "p95 ms",
                   "p99 ms", "top cause"});
      for (const ReportBucket& bucket : report.per_model) {
        const SketchSummary latency = bucket.latency.summary();
        table.add_row({bucket.label, std::to_string(bucket.completed),
                       std::to_string(bucket.violations), Table::num(latency.p50_ms),
                       Table::num(latency.p95_ms), Table::num(latency.p99_ms),
                       top_cause(bucket)});
      }
      table.print(out);
    }

    if (!report.per_node.empty() || !report.node_usage.empty()) {
      // Attribution rows (rollup first-appearance order) join node_usage
      // (catalog order) by node name; nodes with batches but no attribution
      // row follow with "-" in the attribution columns.
      out << "\nPer-node:\n";
      Table table({"node", "completed", "violations", "p99 ms", "batches",
                   "busy s", "occupancy"});
      const auto usage_of = [&](const std::string& label) -> const NodeUsage* {
        for (const NodeUsage& row : report.node_usage) {
          if (row.label == label) return &row;
        }
        return nullptr;
      };
      const auto add_row = [&](const std::string& label, std::string completed,
                               std::string violations, std::string p99) {
        const NodeUsage* usage = usage_of(label);
        table.add_row({label, std::move(completed), std::move(violations),
                       std::move(p99),
                       usage != nullptr ? std::to_string(usage->batches) : "0",
                       usage != nullptr ? Table::num(usage->busy_ms / 1000.0) : "0",
                       usage != nullptr ? Table::num(usage->occupancy) : "0"});
      };
      for (const ReportBucket& bucket : report.per_node) {
        add_row(bucket.label, std::to_string(bucket.completed),
                std::to_string(bucket.violations),
                Table::num(bucket.latency.summary().p99_ms));
      }
      for (const NodeUsage& row : report.node_usage) {
        const bool attributed =
            std::any_of(report.per_node.begin(), report.per_node.end(),
                        [&](const ReportBucket& b) { return b.label == row.label; });
        if (!attributed) add_row(row.label, "-", "-", "-");
      }
      table.print(out);
    }

    const CalibrationSummary& calibration = report.calibration;
    out << "\nCalibration: " << calibration.intervals_observed << "/"
        << calibration.intervals_total << " intervals observed | T_max MAPE "
        << Table::percent(calibration.tmax_mape) << " | SLO coverage "
        << Table::percent(calibration.tmax_coverage) << " | rate MAPE "
        << Table::percent(calibration.rate.mape) << " ("
        << calibration.rate.pairs << " pairs)\n";
    if (!calibration.per_node.empty()) {
      Table table({"node", "intervals", "MAPE", "coverage", "mean pred ms",
                   "mean obs ms"});
      for (const NodeCalibration& row : calibration.per_node) {
        table.add_row({row.label, std::to_string(row.intervals), Table::percent(row.mape),
                       Table::percent(row.coverage),
                       Table::num(row.mean_predicted_ms),
                       Table::num(row.mean_observed_ms)});
      }
      table.print(out);
    }
    if (!calibration.per_y_split.empty()) {
      Table table({"y split", "intervals", "MAPE"});
      for (const YSplitCalibration& row : calibration.per_y_split) {
        table.add_row({std::to_string(row.best_y), std::to_string(row.intervals),
                       Table::percent(row.mape)});
      }
      table.print(out);
    }

    if (report.health.enabled) {
      const HealthReport& health = report.health;
      out << "\nSLO health: " << health.alerts.size() << " alerts ("
          << health.false_positives << " false positives, "
          << Table::percent(health.false_positive_rate) << ") | "
          << health.evaluations << " evaluations | first violation ";
      if (health.first_violation_ms >= 0.0) {
        out << "t=" << Table::num(health.first_violation_ms / 1000.0, 3) << "s";
      } else {
        out << "none";
      }
      out << " | MTTD ";
      if (health.mttd_ms >= 0.0) {
        out << Table::num(health.mttd_ms) << " ms";
      } else {
        out << "-";
      }
      out << "\n";
      if (!health.alerts.empty()) {
        Table table({"rep", "detector", "model", "node", "open s", "fire s",
                     "resolve s", "peak", "blame", "violations"});
        bool any_at_end = false;
        for (const HealthAlert& alert : health.alerts) {
          any_at_end = any_at_end || alert.resolved_at_end;
          table.add_row(
              {std::to_string(alert.rep), alert.detector,
               alert.model.empty() ? "-" : alert.model,
               alert.node.empty() ? "-" : alert.node,
               Table::num(alert.open_ms / 1000.0, 3),
               Table::num(alert.fire_ms / 1000.0, 3),
               Table::num(alert.resolve_ms / 1000.0, 3) +
                   (alert.resolved_at_end ? "*" : ""),
               Table::num(alert.peak_severity), alert.blame,
               std::to_string(alert.violations)});
        }
        table.print(out);
        if (any_at_end) out << "  * still firing at run end\n";
      }
    }

    if (!report.profile.empty()) {
      out << "\n";
      render_profile_text(out, report.profile);
    }

    if (!report.switch_timeline.empty()) {
      out << "\nSwitch timeline (" << report.switch_timeline.size()
          << " events):\n";
      std::size_t shown = 0;
      for (const TimelineEntry& entry : report.switch_timeline) {
        if (shown++ >= kTimelineRows) {
          out << "  ... (" << report.switch_timeline.size() - kTimelineRows
              << " more in the JSON report)\n";
          break;
        }
        out << "  rep " << entry.rep << "  t=" << Table::num(entry.t_ms / 1000.0, 3)
            << "s  " << entry.event;
        if (!entry.node.empty()) out << " -> " << entry.node;
        out << "\n";
      }
    }
    out << "\n";
  }
}

void render_profile_text(std::ostream& out, const std::vector<PhaseProfile>& rows) {
  out << "Self-profile (host wall clock, nondeterministic):\n";
  Table table({"phase", "calls", "total ms", "mean us", "max us"});
  for (const PhaseProfile& row : rows) {
    table.add_row({row.phase, std::to_string(row.calls), Table::num(row.total_ms),
                   Table::num(row.mean_us), Table::num(row.max_us)});
  }
  table.print(out);
}

// --- JSON rendering ---------------------------------------------------------

namespace {

void write_causes(std::ostream& out, const telemetry::ViolationCauseCounts& causes) {
  out << "{";
  for (int i = 0; i < telemetry::kViolationCauseCount; ++i) {
    if (i > 0) out << ",";
    out << "\"" << telemetry::violation_cause_name(static_cast<ViolationCause>(i))
        << "\":" << causes[static_cast<std::size_t>(i)];
  }
  out << "}";
}

void write_latency(std::ostream& out, const LatencyFold& latency) {
  const SketchSummary summary = latency.summary();
  out << "{\"count\":" << summary.count << ",\"mean_ms\":" << num(summary.mean_ms)
      << ",\"p50_ms\":" << num(summary.p50_ms)
      << ",\"p95_ms\":" << num(summary.p95_ms)
      << ",\"p99_ms\":" << num(summary.p99_ms)
      << ",\"max_ms\":" << num(summary.max_ms) << "}";
}

void write_bucket(std::ostream& out, const char* key, const ReportBucket& bucket) {
  out << "{\"" << key << "\":\"" << json_escape(bucket.label)
      << "\",\"completed\":" << bucket.completed
      << ",\"violations\":" << bucket.violations << ",\"causes\":";
  write_causes(out, bucket.causes);
  out << ",\"latency\":";
  write_latency(out, bucket.latency);
  out << "}";
}

}  // namespace

void write_report_json(std::ostream& out, const std::vector<AnalysisReport>& runs) {
  out << "{\"runs\":[";
  bool first_run = true;
  for (const AnalysisReport& report : runs) {
    if (!first_run) out << ",\n";
    first_run = false;
    out << "{\"label\":\"" << json_escape(report.label)
        << "\",\"reps\":" << report.reps
        << ",\"meta\":{\"dropped_events\":" << report.dropped_events
        << ",\"sampled_out\":" << report.sampled_out
        << ",\"dropped_decisions\":" << report.dropped_decisions << "}";

    out << ",\"attribution\":{\"requests\":" << report.total.completed
        << ",\"violations\":" << report.total.violations
        << ",\"unserved\":" << report.unserved
        << ",\"compliance\":" << num(report.compliance) << ",\"causes\":";
    write_causes(out, report.total.causes);
    out << ",\"latency\":";
    write_latency(out, report.total.latency);
    out << ",\"per_model\":[";
    for (std::size_t i = 0; i < report.per_model.size(); ++i) {
      if (i > 0) out << ",";
      write_bucket(out, "model", report.per_model[i]);
    }
    out << "],\"per_node\":[";
    for (std::size_t i = 0; i < report.per_node.size(); ++i) {
      if (i > 0) out << ",";
      write_bucket(out, "node", report.per_node[i]);
    }
    out << "]}";

    const CalibrationSummary& calibration = report.calibration;
    out << ",\"calibration\":{\"intervals\":" << calibration.intervals_total
        << ",\"observed\":" << calibration.intervals_observed
        << ",\"tmax_mape\":" << num(calibration.tmax_mape)
        << ",\"tmax_coverage\":" << num(calibration.tmax_coverage)
        << ",\"per_node\":[";
    for (std::size_t i = 0; i < calibration.per_node.size(); ++i) {
      const NodeCalibration& row = calibration.per_node[i];
      if (i > 0) out << ",";
      out << "{\"node\":\"" << json_escape(row.label) << "\",\"intervals\":" << row.intervals << ",\"mape\":" << num(row.mape)
          << ",\"feasible_intervals\":" << row.feasible_intervals
          << ",\"coverage\":" << num(row.coverage)
          << ",\"mean_predicted_ms\":" << num(row.mean_predicted_ms)
          << ",\"mean_observed_ms\":" << num(row.mean_observed_ms) << "}";
    }
    out << "],\"per_y_split\":[";
    for (std::size_t i = 0; i < calibration.per_y_split.size(); ++i) {
      const YSplitCalibration& row = calibration.per_y_split[i];
      if (i > 0) out << ",";
      out << "{\"best_y\":" << row.best_y << ",\"intervals\":" << row.intervals
          << ",\"mape\":" << num(row.mape) << "}";
    }
    out << "],\"rate\":{\"pairs\":" << calibration.rate.pairs
        << ",\"mape\":" << num(calibration.rate.mape)
        << ",\"mean_predicted_rps\":" << num(calibration.rate.mean_predicted_rps)
        << ",\"mean_observed_rps\":" << num(calibration.rate.mean_observed_rps)
        << "}}";

    out << ",\"node_usage\":[";
    for (std::size_t i = 0; i < report.node_usage.size(); ++i) {
      const NodeUsage& row = report.node_usage[i];
      if (i > 0) out << ",";
      out << "{\"node\":\"" << json_escape(row.label)
          << "\",\"batches\":" << row.batches << ",\"busy_ms\":" << num(row.busy_ms)
          << ",\"occupancy\":" << num(row.occupancy) << "}";
    }
    out << "],\"switch_timeline\":[";
    for (std::size_t i = 0; i < report.switch_timeline.size(); ++i) {
      const TimelineEntry& entry = report.switch_timeline[i];
      if (i > 0) out << ",";
      out << "{\"rep\":" << entry.rep << ",\"t_ms\":" << num(entry.t_ms)
          << ",\"event\":\"" << json_escape(entry.event) << "\",\"node\":\""
          << json_escape(entry.node) << "\"}";
    }
    out << "]";
    // Like the profile key: only present when a health engine ran, so
    // non-health reports keep byte identity.
    if (report.health.enabled) {
      const HealthReport& health = report.health;
      out << ",\"health\":{\"alerts\":" << health.alerts.size()
          << ",\"false_positives\":" << health.false_positives
          << ",\"false_positive_rate\":" << num(health.false_positive_rate)
          << ",\"evaluations\":" << health.evaluations
          << ",\"completed\":" << health.completed
          << ",\"violations\":" << health.violations
          << ",\"first_violation_ms\":" << num(health.first_violation_ms)
          << ",\"first_fire_ms\":" << num(health.first_fire_ms)
          << ",\"mttd_ms\":" << num(health.mttd_ms) << ",\"incidents\":[";
      for (std::size_t i = 0; i < health.alerts.size(); ++i) {
        const HealthAlert& alert = health.alerts[i];
        if (i > 0) out << ",";
        out << "{\"rep\":" << alert.rep << ",\"detector\":\""
            << json_escape(alert.detector) << "\",\"model\":\""
            << json_escape(alert.model) << "\",\"node\":\""
            << json_escape(alert.node)
            << "\",\"open_ms\":" << num(alert.open_ms)
            << ",\"fire_ms\":" << num(alert.fire_ms)
            << ",\"resolve_ms\":" << num(alert.resolve_ms)
            << ",\"resolved_at_end\":"
            << (alert.resolved_at_end ? "true" : "false")
            << ",\"peak_severity\":" << num(alert.peak_severity)
            << ",\"ticks_breached\":" << alert.ticks_breached
            << ",\"blame\":\"" << json_escape(alert.blame)
            << "\",\"violations\":" << alert.violations
            << ",\"completed\":" << alert.completed << "}";
      }
      out << "]}";
    }
    // Wall-clock timings are nondeterministic; the key only appears when a
    // profiler ran, so non-profile reports keep byte identity.
    if (!report.profile.empty()) {
      out << ",\"profile\":[";
      for (std::size_t i = 0; i < report.profile.size(); ++i) {
        const PhaseProfile& row = report.profile[i];
        if (i > 0) out << ",";
        out << "{\"phase\":\"" << json_escape(row.phase)
            << "\",\"calls\":" << row.calls
            << ",\"total_ms\":" << num(row.total_ms)
            << ",\"mean_us\":" << num(row.mean_us)
            << ",\"max_us\":" << num(row.max_us) << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << "]}\n";
}

bool write_report_json_file(const std::string& path,
                            const std::vector<AnalysisReport>& runs,
                            std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  write_report_json(out, runs);
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed for " + path;
    return false;
  }
  return true;
}

}  // namespace paldia::obs
