// Prediction-vs-observation calibration of the two analytical models the
// scheduler leans on (so Eq. 1's validity is measured, not assumed):
//
//  (a) the per-decision T_max estimate — each monitor tick's winning
//      candidate predicts the worst-case batch latency on the chosen node;
//      we pair it with the largest observed batch submit->completion time
//      among batches submitted on that node during the following interval
//      [t_i, t_{i+1}), and report MAPE plus coverage of the "< SLO"
//      guarantee (fraction of predicted-feasible intervals whose observed
//      maximum actually stayed under the SLO);
//
//  (b) the EWMA demand forecast — predicted_rps at tick t_i targets demand
//      one prediction horizon ahead, so it is paired with the observed
//      trailing rate at the first tick >= t_i + horizon.
//
// The pairing and summary math live in free functions shared with the
// offline analyzer (obs/report.cpp), so `paldia-analyze` reproduces the
// same MAPE/coverage numbers from exported decision logs and batch events.
// One CalibrationTracker per repetition; memory is bounded by the decision
// count (batch observations fold into their interval in place).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.hpp"

namespace paldia::obs {

/// One monitor tick's predictions plus the observation that answers them.
struct CalibrationInterval {
  TimeMs t_ms = 0.0;
  int node = -1;  // hw::NodeType finally chosen at the tick
  DurationMs predicted_tmax_ms = 0.0;
  int best_y = 0;               // spatial split behind the prediction
  bool predicted_feasible = false;
  double predicted_rps = 0.0;   // horizon forecast, summed over workloads
  double observed_rps = 0.0;    // trailing observed rate at the tick
  DurationMs observed_max_e2e_ms = 0.0;  // max batch submit->end in the interval
  bool observed = false;        // >= 1 batch landed on the chosen node
};

struct NodeCalibration {
  int node = -1;
  std::string label;  // node name; set by the report (obs/report.hpp)
  int intervals = 0;  // observed intervals with this node chosen
  double mape = 0.0;  // mean |observed - predicted| / predicted
  int feasible_intervals = 0;
  double coverage = 1.0;  // feasible intervals with observed max <= SLO
  DurationMs mean_predicted_ms = 0.0;
  DurationMs mean_observed_ms = 0.0;
};

struct YSplitCalibration {
  int best_y = 0;
  int intervals = 0;
  double mape = 0.0;
};

struct RateCalibration {
  int pairs = 0;
  double mape = 0.0;
  double mean_predicted_rps = 0.0;
  double mean_observed_rps = 0.0;
};

struct CalibrationSummary {
  int intervals_total = 0;     // ticks that carried a T_max prediction
  int intervals_observed = 0;  // ... answered by at least one batch
  double tmax_mape = 0.0;
  double tmax_coverage = 1.0;  // across all feasible observed intervals
  std::vector<NodeCalibration> per_node;       // node ascending
  std::vector<YSplitCalibration> per_y_split;  // best_y ascending
  RateCalibration rate;
};

/// Index of the interval whose [t_i, t_{i+1}) contains `t` (the last one is
/// open-ended), or -1 when `t` precedes every interval. `intervals` must be
/// sorted by t_ms (they are appended in tick order).
int interval_containing(const std::vector<CalibrationInterval>& intervals,
                        TimeMs t_ms);

/// Shared summary math over one interval sequence per repetition. Rate
/// pairing never crosses repetition boundaries.
CalibrationSummary summarize_calibration(
    const std::vector<std::vector<CalibrationInterval>>& runs, DurationMs slo_ms,
    DurationMs rate_horizon_ms);

class CalibrationTracker {
 public:
  struct Config {
    DurationMs slo_ms = 200.0;
    /// Matches the framework's prediction horizon: predicted_rps at t is a
    /// forecast for t + horizon.
    DurationMs rate_horizon_ms = 7000.0;
  };

  CalibrationTracker() = default;
  explicit CalibrationTracker(Config config) : config_(config) {}

  /// One monitor tick's predictions (the final candidate's numbers).
  void on_decision(TimeMs t_ms, int node, DurationMs predicted_tmax_ms, int best_y,
                   bool feasible, double predicted_rps, double observed_rps);

  /// One completed batch: folds into the interval containing its submit
  /// time when the node matches that interval's choice.
  void observe_batch(int node, TimeMs submit_ms, TimeMs end_ms);

  CalibrationSummary finalize() const {
    return summarize_calibration({intervals_}, config_.slo_ms,
                                 config_.rate_horizon_ms);
  }

  const std::vector<CalibrationInterval>& intervals() const { return intervals_; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  std::vector<CalibrationInterval> intervals_;
};

}  // namespace paldia::obs
