// End-to-end benchmark of the Paldia simulator: runs one named workload
// through the library's public entry points (hw::generate_catalog, the
// trace generators, exp::Runner::run, exp::FleetSim::run and the obs
// extract/analyze/write/read functions), checks the outputs, and prints
// one JSON result line last.
//
//   e2e_bench --workload fleet|azure-grid|azure-report --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--workload-seed W]
//   e2e_bench --probe fig12-wikipedia|fig12-twitter
//
// --trace 0 reports the end-to-end metrics from untraced iterations.
// --trace 1 alternates untraced and traced iterations and reports the
// per-layer metrics. A traced iteration times spans the benchmark takes
// around its own calls into each layer, runs the simulator's self-profiler
// (RunTrace::profile) and reads the counters the library already returns.
// No span or counter is added inside the library.
//
// --probe runs the fig12 real-trace cells that abort at teardown; the
// caller (run.py) runs it in a child process and reports whether it
// completed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/exp/fleet_sim.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/scenario.hpp"
#include "src/hw/catalog.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/zoo.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"
#include "src/telemetry/slo_tracker.hpp"
#include "src/trace/generators.hpp"

using namespace paldia;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// The workloads' fixed inputs: the fleet_sim and fig03/fig04 driver defaults.
constexpr int kFleetEndpoints = 64;
constexpr double kFleetRequests = 1'200'000.0;
constexpr double kFleetDurationS = 300.0;
constexpr std::uint64_t kFleetDefaultSeed = 4;            // fleet_sim --seed
constexpr std::uint64_t kAzureDefaultSeed = 0x9a1d1a;     // Scenario::base_seed
constexpr int kAzureReps = 3;
constexpr int kMaxPoolThreads = 4;
// Set-ups timed per invocation; setup_s is their median.
constexpr int kSetupSamples = 25;

// Every per-layer metric with its unit, printed for every workload with
// --trace 1 (0 where the workload does not exercise or expose the layer; see
// README.md).
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"trace.gen_s", "s"},
    {"trace.arrivals", "count"},
    {"hw.catalog_s", "s"},
    {"exp.init_s", "s"},
    {"exp.run_s", "s"},
    {"exp.cell_p50_s", "s"},
    {"exp.cell_max_s", "s"},
    {"common.pool_busy_share", "fraction"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.drain_s", "s"},
    {"sim.unattributed_s", "s"},
    {"core.dispatch_ticks", "count"},
    {"core.dispatch_tick_s", "s"},
    {"core.selection_sweeps", "count"},
    {"core.selection_sweep_s", "s"},
    {"core.selection_sweep_mean_us", "us"},
    {"core.monitor_self_s", "s"},
    {"core.sweep_evaluated_share", "fraction"},
    {"core.hw_switches", "count"},
    {"perfmodel.tmax_cache_hit_rate", "fraction"},
    {"perfmodel.tmax_cache_misses", "count"},
    {"perfmodel.tmax_mape", "fraction"},
    {"predictor.rate_mape", "fraction"},
    {"cluster.cold_starts", "count"},
    {"telemetry.violations.cold_start", "count"},
    {"telemetry.violations.gateway_queue", "count"},
    {"telemetry.violations.batching", "count"},
    {"telemetry.violations.mps_interference", "count"},
    {"telemetry.violations.hardware_switch", "count"},
    {"telemetry.violations.failure_retry", "count"},
    {"telemetry.violations.execution", "count"},
    {"telemetry.violations.unserved", "count"},
    {"obs.capture_run_s", "s"},
    {"obs.extract_s", "s"},
    {"obs.analyze_s", "s"},
    {"obs.write_s", "s"},
    {"obs.read_s", "s"},
    {"obs.bytes_written", "bytes"},
    {"obs.events_dropped_share", "fraction"},
    {"obs.profile_overhead_x", "ratio"},
    {"unattributed_s", "s"},
};

// ---------------------------------------------------------------------------
// Correctness bookkeeping: one operation per simulated cell.

class Tally {
 public:
  void attempt(const std::string& cell) { cells_.insert(cell); }
  /// Record the outcome of one check of a cell; a cell fails at most once
  /// per iteration however many of its checks fail.
  void check(bool ok, const std::string& cell, const std::string& what) {
    if (ok) return;
    std::printf("FAIL %s: %s\n", cell.c_str(), what.c_str());
    failed_cells_.insert(cell);
  }
  void end_iteration() {
    attempted_ += cells_.size();
    failed_ += failed_cells_.size();
    cells_.clear();
    failed_cells_.clear();
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::set<std::string> cells_;
  std::set<std::string> failed_cells_;
};

// FNV-1a over every simulated field of a metrics row (the latency CDF is
// not kept by these runs).
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void number(double value) { bytes(&value, sizeof(value)); }
  void text(const std::string& value) { bytes(value.c_str(), value.size() + 1); }
  void row(const telemetry::RunMetrics& m) {
    text(m.scheme);
    text(m.workload);
    text(m.trace);
    number(static_cast<double>(m.requests));
    for (double v : {m.slo_compliance, m.mean_latency_ms, m.p50_latency_ms,
                     m.p95_latency_ms, m.p99_latency_ms,
                     m.p99_breakdown.latency_ms, m.p99_breakdown.solo_ms,
                     m.p99_breakdown.queue_ms, m.p99_breakdown.interference_ms,
                     m.p99_breakdown.cold_start_ms, m.cost, m.average_power,
                     m.gpu_utilization, m.cpu_utilization, m.goodput_rps,
                     m.offered_rps, static_cast<double>(m.cold_starts),
                     m.slo_violations, m.tmax_mape, m.tmax_coverage,
                     m.rate_mape, m.calib_intervals, m.tmax_cache_hits,
                     m.tmax_cache_misses, m.tmax_cache_hit_rate}) {
      number(v);
    }
    for (double v : m.violations_by_cause) number(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

bool causes_sum_to_violations(const telemetry::RunMetrics& m) {
  double sum = 0.0;
  for (double v : m.violations_by_cause) sum += v;
  // Rows aggregated over repetitions hold plain means, so the per-cause
  // sum may differ from the mean total by rounding only.
  return std::abs(sum - m.slo_violations) <= 1e-9 * std::max(1.0, m.slo_violations);
}

// ---------------------------------------------------------------------------
// What one iteration produced.

/// Paldia's simulated outcome over the workload's Paldia cells.
struct Headline {
  double attainment = 0.0;
  double p99_ms = 0.0;
  double cost_usd = 0.0;
};

/// Sums over the workload's Paldia cells, accumulated from RunMetrics rows.
struct PaldiaTotals {
  double arrivals = 0.0;
  double violations = 0.0;
  double p99_ms = 0.0;  // worst cell
  double cost = 0.0;
  double cold_starts = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double tmax_mape = 0.0;  // summed; divided by cells
  double rate_mape = 0.0;
  int cells = 0;
  std::array<double, telemetry::kViolationCauseCount> causes{};

  void add(const telemetry::RunMetrics& m, double cell_arrivals) {
    arrivals += cell_arrivals;
    violations += m.slo_violations;
    p99_ms = std::max(p99_ms, m.p99_latency_ms);
    cost += m.cost;
    cold_starts += static_cast<double>(m.cold_starts);
    cache_hits += m.tmax_cache_hits;
    cache_misses += m.tmax_cache_misses;
    tmax_mape += m.tmax_mape;
    rate_mape += m.rate_mape;
    ++cells;
    for (std::size_t c = 0; c < causes.size(); ++c) causes[c] += m.violations_by_cause[c];
  }
  Headline headline() const {
    Headline h;
    h.attainment = arrivals > 0.0 ? (arrivals - violations) / arrivals : 0.0;
    h.p99_ms = p99_ms;
    h.cost_usd = cost;
    return h;
  }
};

struct Iteration {
  double run_s = 0.0;           // wall time of the run phase
  double arrivals = 0.0;        // simulated arrivals processed
  Headline headline;
  std::map<std::string, std::uint64_t> digests;  // cell -> row digest
  /// Per-layer values (traced iterations only).
  std::map<std::string, double> layer;
  /// Wall-clock rows of the iteration in execution order; with the
  /// "unattributed" remainder they sum to the iteration's wall time.
  std::vector<std::pair<std::string, double>> wall_rows;
};

/// Fold a RunTrace's self-profile into per-layer values (summed over the
/// trace's slots: repetitions or fleet endpoints). Returns the seconds spent
/// in obs::summarize_profile, which count as obs analysis.
double add_profile(const obs::RunTrace& trace, std::map<std::string, double>& layer) {
  const auto t = Clock::now();
  const std::vector<obs::PhaseProfile> rows = obs::summarize_profile(trace);
  const double analyze_s = since(t);
  for (const obs::PhaseProfile& row : rows) {
    const double s = row.total_ms / 1e3;
    if (row.phase == "serial_drain" || row.phase == "epoch_extract" ||
        row.phase == "epoch_merge") {
      layer["sim.drain_s"] += s;
    } else if (row.phase == "dispatch_tick") {
      layer["core.dispatch_ticks"] += static_cast<double>(row.calls);
      layer["core.dispatch_tick_s"] += s;
    } else if (row.phase == "monitor_tick") {
      layer["core.monitor_tick_s"] += s;
    } else if (row.phase == "selection_sweep") {
      layer["core.selection_sweeps"] += static_cast<double>(row.calls);
      layer["core.selection_sweep_s"] += s;
    }
  }
  return analyze_s;
}

/// Derived per-layer values once every trace of an iteration was folded in.
void finish_layers(const PaldiaTotals& paldia, Iteration& it) {
  auto& l = it.layer;
  l["core.monitor_self_s"] = l["core.monitor_tick_s"] - l["core.selection_sweep_s"];
  l.erase("core.monitor_tick_s");
  l["core.selection_sweep_mean_us"] =
      l["core.selection_sweeps"] > 0.0
          ? 1e6 * l["core.selection_sweep_s"] / l["core.selection_sweeps"]
          : 0.0;
  l["sim.unattributed_s"] = l["sim.drain_s"] - l["core.dispatch_tick_s"] -
                            l["core.monitor_self_s"] - l["core.selection_sweep_s"];
  const double lookups = paldia.cache_hits + paldia.cache_misses;
  l["perfmodel.tmax_cache_hit_rate"] = lookups > 0.0 ? paldia.cache_hits / lookups : 0.0;
  l["perfmodel.tmax_cache_misses"] = paldia.cache_misses;
  const double cells = std::max(1, paldia.cells);
  l["perfmodel.tmax_mape"] = paldia.tmax_mape / cells;
  l["predictor.rate_mape"] = paldia.rate_mape / cells;
  l["cluster.cold_starts"] = paldia.cold_starts;
  for (int c = 0; c < telemetry::kViolationCauseCount; ++c) {
    l["telemetry.violations." +
      std::string(telemetry::violation_cause_name(
          static_cast<telemetry::ViolationCause>(c)))] =
        paldia.causes[static_cast<std::size_t>(c)];
  }
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the catalog, the experiment driver and the traces, replacing any
  /// earlier set-up. Returns the wall rows of the set-up.
  virtual std::vector<std::pair<std::string, double>> setup() = 0;
  /// Arrivals in the generated traces (trace.arrivals).
  virtual double generated_arrivals() const = 0;
  /// One pass of the run phase. Traced iterations fill it.layer.
  virtual void run(bool traced, Tally& tally, Iteration& it) = 0;
};

/// `fleet`: the fleet_sim defaults — gen:256 catalog, 64 endpoints, ~1.2M
/// Poisson ResNet 50 arrivals over 300 s, Paldia, observation off.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(ThreadPool& pool, std::uint64_t seed) : pool_(pool), seed_(seed) {}

  std::vector<std::pair<std::string, double>> setup() override {
    sim_.reset();
    catalog_.reset();
    std::vector<std::pair<std::string, double>> rows;
    auto t = Clock::now();
    catalog_ = std::make_unique<hw::Catalog>(
        hw::generate_catalog(*hw::parse_catalog_spec("gen:256")));
    rows.emplace_back("hw.catalog_s", since(t));
    t = Clock::now();
    sim_ = std::make_unique<exp::FleetSim>(models::Zoo::instance(), *catalog_, &pool_);
    rows.emplace_back("exp.init_s", since(t));
    t = Clock::now();
    scenario_ = exp::Scenario{};
    scenario_.name = "fleet-poisson";
    trace::PoissonOptions poisson;
    poisson.duration_ms = kFleetDurationS * 1000.0;
    poisson.mean_rps = kFleetRequests / kFleetDurationS;
    poisson.seed = seed_;
    scenario_.workloads.push_back(exp::WorkloadSpec{
        models::ModelId::kResNet50, trace::make_poisson_trace(poisson)});
    rows.emplace_back("trace.gen_s", since(t));
    return rows;
  }

  double generated_arrivals() const override {
    return static_cast<double>(scenario_.workloads[0].trace.total_requests());
  }

  void run(bool traced, Tally& tally, Iteration& it) override {
    obs::RunTrace trace;
    trace.capture_events = false;
    trace.profile = true;
    const std::string cell = "fleet/Paldia";
    tally.attempt(cell);
    const auto t = Clock::now();
    const exp::FleetSimResult result = sim_->run(
        scenario_, exp::SchemeId::kPaldia, kFleetEndpoints, traced ? &trace : nullptr);
    const double cell_s = since(t);
    it.wall_rows.emplace_back("exp.fleet_run_s", cell_s);

    const auto checks = Clock::now();
    // Every routed arrival is served or still unserved at the drain cap. The
    // framework records each unserved request as a missed completion, so the
    // endpoints' `requests` sum to served + unserved.
    std::uint64_t served_and_unserved = 0;
    for (const auto& endpoint : result.per_endpoint) {
      served_and_unserved += endpoint.combined.requests;
    }
    tally.check(served_and_unserved == result.total_requests, cell,
                "served + unserved != routed arrivals");
    tally.check(causes_sum_to_violations(result.combined), cell,
                "fleet row: violations_by_cause does not sum to slo_violations");
    Digest digest;
    digest.row(result.combined);
    for (const auto& endpoint : result.per_endpoint) {
      tally.check(causes_sum_to_violations(endpoint.combined), cell,
                  endpoint.combined.trace +
                      ": violations_by_cause does not sum to slo_violations");
      digest.row(endpoint.combined);
    }
    digest.number(static_cast<double>(result.unserved));
    digest.number(static_cast<double>(result.events_processed));
    it.digests[cell] = digest.value();

    PaldiaTotals paldia;
    paldia.add(result.combined, static_cast<double>(result.total_requests));
    for (const auto& endpoint : result.per_endpoint) {
      paldia.cache_hits += endpoint.combined.tmax_cache_hits;
      paldia.cache_misses += endpoint.combined.tmax_cache_misses;
    }
    it.headline = paldia.headline();
    it.arrivals = static_cast<double>(result.total_requests);
    it.wall_rows.emplace_back("bench.checks_s", since(checks));
    if (!traced) return;

    const double analyze_s = add_profile(trace, it.layer);
    it.wall_rows.emplace_back("obs.analyze_s", analyze_s);
    it.layer["obs.analyze_s"] = analyze_s;
    it.layer["exp.cell_p50_s"] = cell_s;
    it.layer["exp.cell_max_s"] = cell_s;
    it.layer["sim.events"] = static_cast<double>(result.events_processed);
    it.layer["sim.events_per_s"] =
        static_cast<double>(result.events_processed) /
        std::max(1e-9, it.layer["sim.drain_s"]);
    finish_layers(paldia, it);
  }

 private:
  ThreadPool& pool_;
  std::uint64_t seed_;
  std::unique_ptr<hw::Catalog> catalog_;
  std::unique_ptr<exp::FleetSim> sim_;
  exp::Scenario scenario_;
};

/// `azure-grid` (fig03: 12 vision models x 5 main schemes x 3 reps) and
/// `azure-report` (fig04: ResNet 50 and VGG 19 x 5 main schemes x 3 reps,
/// with the report, rollup and alert pipeline on) on the Azure trace.
class AzureWorkload final : public Workload {
 public:
  AzureWorkload(ThreadPool& pool, std::uint64_t seed, bool report,
                std::filesystem::path out_dir)
      : pool_(pool), seed_(seed), report_(report), out_dir_(std::move(out_dir)) {}

  std::vector<std::pair<std::string, double>> setup() override {
    runner_.reset();
    scenarios_.clear();
    std::vector<std::pair<std::string, double>> rows;
    auto t = Clock::now();
    const hw::Catalog& catalog = hw::Catalog::instance();
    rows.emplace_back("hw.catalog_s", since(t));
    t = Clock::now();
    runner_ = std::make_unique<exp::Runner>(models::Zoo::instance(), catalog, &pool_);
    rows.emplace_back("exp.init_s", since(t));
    t = Clock::now();
    const std::vector<models::ModelId> models =
        report_ ? std::vector<models::ModelId>{models::ModelId::kResNet50,
                                               models::ModelId::kVgg19}
                : models::Zoo::instance().vision_models();
    for (const auto model : models) {
      scenarios_.push_back(exp::azure_scenario(model, kAzureReps));
      scenarios_.back().base_seed = seed_;
    }
    rows.emplace_back("trace.gen_s", since(t));
    return rows;
  }

  double generated_arrivals() const override {
    double total = 0.0;
    for (const auto& s : scenarios_) {
      total += static_cast<double>(s.workloads[0].trace.total_requests());
    }
    return total;
  }

  void run(bool traced, Tally& tally, Iteration& it) override {
    const std::string tag = traced ? "traced" : "plain";
    std::unique_ptr<obs::RollupWriter> rollups;
    std::unique_ptr<obs::AlertWriter> alerts;
    const std::string rollup_path = (out_dir_ / (tag + "-rollups.jsonl")).string();
    const std::string alert_path = (out_dir_ / (tag + "-alerts.jsonl")).string();
    const std::string report_path = (out_dir_ / (tag + "-report.json")).string();
    if (report_) {
      rollups = std::make_unique<obs::RollupWriter>(rollup_path);
      alerts = std::make_unique<obs::AlertWriter>(alert_path);
    }
    std::vector<obs::AnalysisReport> reports;
    std::vector<std::string> labels;
    std::vector<obs::HealthReport> inline_health;
    std::vector<double> cell_s;
    double run_s = 0.0, extract_s = 0.0, analyze_s = 0.0, write_s = 0.0;
    double checks_s = 0.0;
    std::uint64_t events = 0, dropped = 0;
    double sweeps_pool = 0.0, sweeps_evaluated = 0.0, switches = 0.0;
    PaldiaTotals paldia;

    for (const auto& scenario : scenarios_) {
      const auto& model_trace = scenario.workloads[0].trace;
      const double trace_arrivals = static_cast<double>(model_trace.total_requests());
      for (const auto scheme : exp::main_schemes()) {
        const std::string cell = std::string(models::model_id_name(
                                     scenario.workloads[0].model)) +
                                 "/" + exp::scheme_name(scheme);
        tally.attempt(cell);
        obs::RunTrace trace;
        trace.capture_events = report_;
        trace.collect_rollups = report_;
        trace.collect_health = report_;
        trace.profile = traced;
        const bool observed = report_ || traced;
        auto t = Clock::now();
        const exp::RunResult result = observed
                                          ? runner_->run(scenario, scheme, trace)
                                          : runner_->run(scenario, scheme);
        cell_s.push_back(since(t));
        run_s += cell_s.back();
        it.arrivals += trace_arrivals * scenario.repetitions;

        if (report_) {
          // The bench drivers' --rollup-out / --alerts-out / --report-out
          // path (bench_common.hpp RunObserver::export_trace).
          const std::string label = scenario.name + "-" + cell;
          t = Clock::now();
          rollups->write(trace, label);
          alerts->write(trace, label);
          write_s += since(t);
          t = Clock::now();
          obs::RunData data = obs::extract_run_data(trace, label);
          extract_s += since(t);
          t = Clock::now();
          obs::AnalysisReport report = obs::analyze_with_zoo(data);
          report.profile = obs::summarize_profile(trace);
          report.health = obs::summarize_health(trace);
          analyze_s += since(t);
          labels.push_back(label);
          inline_health.push_back(report.health);
          reports.push_back(std::move(report));
        }

        t = Clock::now();
        tally.check(result.combined.requests == model_trace.total_requests(),
                    cell, "completed + unserved != arrivals");
        tally.check(causes_sum_to_violations(result.combined), cell,
                    "violations_by_cause does not sum to slo_violations");
        Digest digest;
        digest.row(result.combined);
        for (const auto& row : result.per_workload) {
          tally.check(causes_sum_to_violations(row), cell,
                      row.workload + ": violations_by_cause does not sum");
          digest.row(row);
        }
        it.digests[cell] = digest.value();
        if (scheme == exp::SchemeId::kPaldia) {
          if (!cells_printed_) {
            std::printf("  cell %s: attainment %.6f, P99 %.3f ms, cost $%.4f\n",
                        cell.c_str(),
                        (trace_arrivals - result.combined.slo_violations) / trace_arrivals,
                        result.combined.p99_latency_ms, result.combined.cost);
          }
          paldia.add(result.combined, trace_arrivals);
          double cell_switches = 0.0;
          for (const auto& rep : trace.reps) {
            for (const obs::DecisionRecord& d : rep->decisions()) {
              cell_switches += d.switch_begun ? 1.0 : 0.0;
              if (!d.has_sweep) continue;
              sweeps_pool += d.pool_size;
              sweeps_evaluated += d.evaluated_candidates;
            }
          }
          switches += cell_switches / std::max(1, scenario.repetitions);
        }
        for (const auto& rep : trace.reps) {
          events += rep->events().size();
          dropped += rep->dropped_events();
        }
        checks_s += since(t);
        if (traced) analyze_s += add_profile(trace, it.layer);
      }
    }
    it.wall_rows.emplace_back(report_ ? "obs.capture_run_s" : "exp.cells_s", run_s);

    double read_s = 0.0;
    double bytes = 0.0;
    if (report_) {
      auto t = Clock::now();
      std::string error;
      const bool written = obs::write_report_json_file(report_path, reports, &error);
      rollups.reset();  // flush and close the streams
      alerts.reset();
      write_s += since(t);
      for (const auto& path : {rollup_path, alert_path, report_path}) {
        bytes += static_cast<double>(std::filesystem::file_size(path));
      }
      // Offline rebuilds: paldia-analyze --rollup and --alerts.
      t = Clock::now();
      std::vector<obs::AnalysisReport> from_rollups, from_alerts;
      const bool rollups_ok =
          obs::analyze_rollup_stream(slurp(rollup_path), &from_rollups, &error);
      const bool alerts_ok =
          rollups_ok && obs::analyze_alert_stream(slurp(alert_path), &from_alerts, &error);
      read_s = since(t);
      t = Clock::now();
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const std::string cell = labels[i].substr(scenarios_[0].name.size() + 1);
        tally.check(written && rollups_ok && alerts_ok, cell,
                    "report write or offline read failed: " + error);
        if (rollups_ok && i < from_rollups.size()) {
          check_rollup(reports[i], from_rollups[i], tally, cell);
        } else {
          tally.check(false, cell, "missing rollup rebuild");
        }
        if (alerts_ok && i < from_alerts.size()) {
          tally.check(from_alerts[i].label == labels[i] &&
                          health_json(inline_health[i]) ==
                              health_json(from_alerts[i].health),
                      cell, "offline alert rebuild != summarize_health");
        } else {
          tally.check(false, cell, "missing alert rebuild");
        }
      }
      checks_s += since(t);
      it.wall_rows.emplace_back("obs.extract_s", extract_s);
      it.wall_rows.emplace_back("obs.analyze_s", analyze_s);
      it.wall_rows.emplace_back("obs.write_s", write_s);
      it.wall_rows.emplace_back("obs.read_s", read_s);
    } else if (traced) {
      it.wall_rows.emplace_back("obs.analyze_s", analyze_s);
    }
    it.wall_rows.emplace_back("bench.checks_s", checks_s);
    it.headline = paldia.headline();
    cells_printed_ = true;
    if (!traced) return;

    auto& l = it.layer;
    l["exp.cell_p50_s"] = median(cell_s);
    l["exp.cell_max_s"] = *std::max_element(cell_s.begin(), cell_s.end());
    l["core.sweep_evaluated_share"] = sweeps_pool > 0.0 ? sweeps_evaluated / sweeps_pool : 0.0;
    l["core.hw_switches"] = switches;
    if (report_) l["obs.capture_run_s"] = run_s;
    l["obs.extract_s"] = extract_s;
    l["obs.analyze_s"] = analyze_s;
    l["obs.write_s"] = write_s;
    l["obs.read_s"] = read_s;
    l["obs.bytes_written"] = bytes;
    l["obs.events_dropped_share"] =
        events + dropped > 0
            ? static_cast<double>(dropped) / static_cast<double>(events + dropped)
            : 0.0;
    finish_layers(paldia, it);
  }

 private:
  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

  /// The health section rendered the way write_report_json emits it.
  static std::string health_json(const obs::HealthReport& health) {
    obs::AnalysisReport only;
    only.health = health;
    std::ostringstream out;
    obs::write_report_json(out, {only});
    return out.str();
  }

  /// The rollup-only rebuild reproduces the inline compliance and
  /// attribution (the CI fig04 "rollup-only attribution exact" check).
  static void check_rollup(const obs::AnalysisReport& inline_report,
                           const obs::AnalysisReport& offline, Tally& tally,
                           const std::string& cell) {
    tally.check(offline.label == inline_report.label &&
                    offline.total.completed == inline_report.total.completed &&
                    offline.total.violations == inline_report.total.violations &&
                    offline.unserved == inline_report.unserved &&
                    offline.compliance == inline_report.compliance &&
                    offline.total.causes == inline_report.total.causes,
                cell, "offline rollup rebuild != inline compliance/attribution");
  }

  ThreadPool& pool_;
  std::uint64_t seed_;
  bool report_;
  std::filesystem::path out_dir_;
  std::unique_ptr<exp::Runner> runner_;
  std::vector<exp::Scenario> scenarios_;
  bool cells_printed_ = false;
};

// ---------------------------------------------------------------------------
// fig12 probe: the real-trace cells, the five main schemes, one repetition
// each, serially and without a pool.

int probe_fig12(const std::string& which) {
  exp::Scenario scenario;
  scenario.repetitions = 1;
  if (which == "fig12-wikipedia") {
    scenario.name = "wikipedia";
    scenario.workloads.push_back(exp::WorkloadSpec{
        models::ModelId::kResNet50, trace::make_wiki_trace(trace::WikiOptions{})});
  } else if (which == "fig12-twitter") {
    scenario.name = "twitter";
    trace::TwitterOptions twitter;
    twitter.duration_ms = minutes(30);  // fig12's default (compressed) length
    scenario.workloads.push_back(exp::WorkloadSpec{
        models::ModelId::kDpn92, trace::make_twitter_trace(twitter)});
  } else {
    std::fprintf(stderr, "unknown probe '%s'\n", which.c_str());
    return 2;
  }
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance());
  for (const auto scheme : exp::main_schemes()) {
    const auto result = runner.run(scenario, scheme);
    std::printf("probe cell %s/%s completed: attainment %.4f\n",
                scenario.name.c_str(), exp::scheme_name(scheme).c_str(),
                result.combined.slo_compliance);
    std::fflush(stdout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::optional<std::uint64_t> workload_seed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string probe;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--workload-seed") {
      args.workload_seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--probe") {
      args.probe = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

void print_rows(const char* title, const std::vector<std::pair<std::string, double>>& rows,
                double wall_s) {
  std::printf("%s (wall %.4f s)\n", title, wall_s);
  double named = 0.0;
  for (const auto& [name, s] : rows) {
    std::printf("  %-28s %10.4f s  %6.2f%%\n", name.c_str(), s, 100.0 * s / wall_s);
    named += s;
  }
  std::printf("  %-28s %10.4f s  %6.2f%%\n", "unattributed_s", wall_s - named,
              100.0 * (wall_s - named) / wall_s);
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (!args.probe.empty()) return probe_fig12(args.probe);

  const bool fleet = args.workload == "fleet";
  if (!fleet && args.workload != "azure-grid" && args.workload != "azure-report") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::uint64_t seed =
      args.workload_seed.value_or(fleet ? kFleetDefaultSeed : kAzureDefaultSeed);
  std::filesystem::create_directories(args.out_dir);

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(std::min<unsigned>(hardware, kMaxPoolThreads));
  std::unique_ptr<Workload> workload;
  if (fleet) {
    workload = std::make_unique<FleetWorkload>(pool, seed);
  } else {
    workload = std::make_unique<AzureWorkload>(pool, seed, args.workload == "azure-report",
                                               args.out_dir);
  }
  std::printf("workload %s, run seed %" PRIu64 ", workload seed %" PRIu64
              ", %zu pool threads, %s\n",
              args.workload.c_str(), args.seed, seed, pool.thread_count(),
              args.trace ? "traced" : "untraced");

  // Set-up: timed kSetupSamples times; the last set-up stays for the runs.
  std::vector<double> setups;
  std::vector<std::pair<std::string, double>> setup_rows;
  std::map<std::string, double> setup_span_sums;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t = Clock::now();
    setup_rows = workload->setup();
    setups.push_back(since(t));
    for (const auto& [name, s] : setup_rows) setup_span_sums[name] += s;
  }

  // Run phase: whole iterations (with --trace 1, untraced/traced pairs) for
  // --seconds: the next one starts only if it should end in time, and the
  // first always runs.
  Tally tally;
  std::vector<Iteration> plain, traced;
  const auto start = Clock::now();
  double pass_s = 0.0;
  while (plain.empty() || since(start) + pass_s <= args.seconds) {
    const auto pass = Clock::now();
    for (const bool with_trace : {false, true}) {
      if (with_trace && !args.trace) continue;
      Iteration it;
      const auto t = Clock::now();
      const double cpu = process_cpu_s();
      workload->run(with_trace, tally, it);
      it.run_s = since(t);
      if (with_trace) {
        it.layer["common.pool_busy_share"] =
            (process_cpu_s() - cpu) /
            (it.run_s * static_cast<double>(pool.thread_count()));
      }
      // Determinism: every iteration, traced or not, gives the rows of the
      // first untraced one.
      const auto& reference = plain.empty() ? it.digests : plain.front().digests;
      for (const auto& [cell, digest] : it.digests) {
        const auto found = reference.find(cell);
        tally.check(found != reference.end() && found->second == digest, cell,
                    "simulated rows differ from the first untraced iteration");
      }
      tally.end_iteration();
      (with_trace ? traced : plain).push_back(std::move(it));
    }
    pass_s = since(pass);
  }

  auto rates = [](const std::vector<Iteration>& set) {
    std::vector<double> values;
    for (const auto& it : set) values.push_back(it.arrivals / it.run_s);
    return values;
  };
  const double plain_rate = median(rates(plain));
  const Headline& headline = plain.front().headline;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::printf("setup_s samples:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\nrun iterations: %zu untraced", plain.size());
  for (const auto& it : plain) std::printf(" %.3fs", it.run_s);
  if (args.trace) {
    std::printf(", %zu traced", traced.size());
    for (const auto& it : traced) std::printf(" %.3fs", it.run_s);
  }
  std::printf("\nPaldia: attainment %.6f, P99 %.3f ms, cost $%.4f\n",
              headline.attainment, headline.p99_ms, headline.cost_usd);

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (!args.trace) {
    metrics["sim_requests_per_s"] = {plain_rate, "req/s"};
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MiB"};
    metrics["paldia_slo_attainment"] = {headline.attainment, "fraction"};
    // Simulated quantities: deterministic for a workload seed.
    metrics["paldia_p99_ms"] = {headline.p99_ms, "sim_ms"};
    metrics["paldia_cost_usd"] = {headline.cost_usd, "sim_USD"};
  } else {
    // Per-layer values: element-wise medians over the traced iterations,
    // the set-up rows from the set-up that the runs used.
    std::map<std::string, std::vector<double>> samples;
    for (const auto& it : traced) {
      for (const auto& [name, value] : it.layer) samples[name].push_back(value);
      samples["exp.run_s"].push_back(it.run_s);
    }
    for (const auto& [name, values] : samples) metrics[name] = {median(values), ""};
    // Set-up spans: means over the set-ups (each is well under a millisecond
    // on some workloads, too short for a single sample).
    for (const auto& [name, sum] : setup_span_sums) {
      metrics[name] = {sum / kSetupSamples, ""};
    }
    metrics["trace.arrivals"] = {workload->generated_arrivals(), ""};
    metrics["obs.profile_overhead_x"] = {median(rates(traced)) / plain_rate, ""};

    // Every second of one traced iteration (set-up included) in a named row.
    const Iteration& last = traced.back();
    std::vector<std::pair<std::string, double>> rows = setup_rows;
    rows.insert(rows.end(), last.wall_rows.begin(), last.wall_rows.end());
    const double wall = setups.back() + last.run_s;
    print_rows("time attribution, last traced iteration", rows, wall);
    double named = 0.0;
    for (const auto& row : rows) named += row.second;
    metrics["unattributed_s"] = {wall - named, ""};
    for (const LayerMetric& layer : kLayerMetrics) {
      auto& entry = metrics[layer.name];  // 0 where the layer did not report
      entry.second = layer.unit;
    }
    if (metrics.size() != std::size(kLayerMetrics)) {
      std::fprintf(stderr, "per-layer metrics out of sync with kLayerMetrics\n");
      return 1;
    }
    std::vector<std::pair<std::string, double>> drain = {
        {"core.dispatch_tick_s", last.layer.at("core.dispatch_tick_s")},
        {"core.selection_sweep_s", last.layer.at("core.selection_sweep_s")},
        {"core.monitor_self_s", last.layer.at("core.monitor_self_s")}};
    print_rows("simulation drain, summed over repetitions/endpoints (self-profiler)",
               drain, last.layer.at("sim.drain_s"));
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              tally.failed() == 0 ? "true" : "false", tally.attempted(), tally.failed());
  bool first = true;
  for (const auto& [name, entry] : metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), json_number(entry.first).c_str(), entry.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
