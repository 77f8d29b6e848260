// Online SLO health engine (active observability tier 3).
//
// Everything the telemetry layer built so far — violation counters,
// attribution, rollups — is post-hoc: the numbers exist, but only a human
// reading a report after the run notices that an SLO was burning. This
// engine closes that loop. It watches the exact streams the rollup
// aggregator already sees (completions with attribution verdicts, unserved
// counts, monitor-tick gauges) and raises alerts *while the run happens*:
//
//   burn_rate      SRE-style multi-window error-budget burn. The budget is
//                  1 - slo_target; burn = windowed violation fraction /
//                  budget. An alert needs BOTH a fast (default 1 min) and a
//                  slow (default 10 min) trailing window above the burn
//                  threshold, so blips don't page but sustained burn does.
//   latency_cusum  One-sided CUSUM over the per-tick latency p99 against an
//                  EWMA baseline: S+ = max(0, S+ + z - k), alert at S+ >= h.
//                  Catches slow drifts a single-threshold check misses.
//   queue_zscore   EWMA z-score over monitor-tick queue-depth / in-flight
//                  gauges; alerts on sustained positive deviations (queues
//                  growing), never on draining.
//
// Detectors run per (model, node) key plus a cluster-wide key (-1, -1) that
// also absorbs unserved requests and the in-flight gauge. Each (key,
// detector) pair owns a lifecycle state machine with hysteresis:
//
//   idle -> pending   first breaching evaluation (open_ms stamped)
//   pending -> firing after pending_ticks consecutive breaches (fire_ms)
//   pending -> idle   a single clear evaluation (dropped silently — never
//                     exported, which is what keeps the false-positive rate
//                     honest)
//   firing -> resolved after resolve_ticks consecutive clears (resolve_ms);
//                     the finished AlertRecord is appended to alerts()
//
// Determinism contract: one engine per repetition, driven only from the
// single-threaded simulation loop in simulated time; keys live in a
// std::map so every iteration is sorted. Alert streams are therefore
// byte-identical across --threads, like every other export.
//
// Hot-path discipline matches the Tracer/RollupAggregator: the framework
// holds a HealthEngine* that is nullptr when health is disabled, so the
// disabled cost is a single branch (BM_HealthDisabledHook).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "src/common/units.hpp"
#include "src/obs/sketch.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {

struct HealthConfig {
  /// Compliance goal; the error budget is 1 - slo_target. Must be in (0,1).
  double slo_target = 0.999;
  /// Fast / slow trailing burn-rate windows. Both must be > 0 and the fast
  /// window strictly shorter than the slow one (validated at construction —
  /// the silent-fixup era ended with RollupConfig's).
  DurationMs fast_window_ms = 60'000.0;
  DurationMs slow_window_ms = 600'000.0;
  /// Burn multiple both windows must reach to breach. 14.4 is the classic
  /// SRE fast-page number: the budget would be gone in 1/14.4 of the SLO
  /// period, and stray single violations in a healthy run stay far below it.
  double burn_threshold = 14.4;
  /// A window with fewer completions than this never breaches (warmup gate:
  /// one early violation out of three requests is not a 33% burn signal).
  std::uint64_t min_window_samples = 20;
  /// Hysteresis: consecutive breaching evaluations before pending -> firing,
  /// and consecutive clear evaluations before firing -> resolved.
  int pending_ticks = 2;
  int resolve_ticks = 3;
  /// CUSUM slack and decision threshold, in baseline-sigma units.
  double cusum_k = 0.5;
  double cusum_h = 8.0;
  /// EWMA smoothing for the latency/gauge baselines, and the gauge z-score
  /// threshold.
  double ewma_alpha = 0.2;
  double z_threshold = 6.0;
  /// Baseline samples a CUSUM/z-score detector needs before it arms.
  int warmup_ticks = 8;
};

/// Detector identity, stable across exports.
enum class HealthDetector : std::uint8_t {
  kBurnRate = 0,
  kLatencyCusum,
  kQueueZScore,
};
inline constexpr int kHealthDetectorCount = 3;
const char* health_detector_name(HealthDetector detector);

/// One finished (or end-of-run truncated) incident.
struct AlertRecord {
  std::int16_t model = -1;  // models::ModelId, -1 = cluster-wide
  std::int16_t node = -1;   // hw::NodeType, -1 = cluster-wide
  HealthDetector detector = HealthDetector::kBurnRate;
  TimeMs open_ms = 0.0;     // first breaching evaluation (pending)
  TimeMs fire_ms = 0.0;     // pending -> firing transition
  TimeMs resolve_ms = 0.0;  // firing -> resolved (or the run end)
  bool resolved_at_end = false;
  /// Max detector statistic seen while the alert was open (burn multiple,
  /// CUSUM S+, or z-score, per the detector).
  double peak_severity = 0.0;
  std::uint64_t ticks_breached = 0;
  /// Attribution cause that moved the most on this key while the alert was
  /// open; falls back to the cumulative argmax, then kExecution.
  telemetry::ViolationCause blame = telemetry::ViolationCause::kExecution;
  /// Ground truth on this key over (open - one tick, resolve]: the interval
  /// whose completions triggered the opening breach ends *at* open_ms, so
  /// the incident window starts one evaluation earlier to contain it.
  /// violations == 0 marks the alert as a false positive in the report.
  std::uint64_t violations = 0;
  std::uint64_t completed = 0;
};

class HealthEngine {
 public:
  /// Throws std::invalid_argument on out-of-range config (window widths,
  /// slo_target, hysteresis counts, detector parameters).
  explicit HealthEngine(HealthConfig config = {});

  /// One completed request; `cause` is engaged exactly when it violated its
  /// SLO (the attribution verdict, same contract as RollupAggregator).
  void observe_completion(TimeMs end_ms, int model, int node,
                          DurationMs latency_ms,
                          const std::optional<telemetry::ViolationCause>& cause);

  /// Requests still pending at the drain cap: cluster-wide violations with
  /// cause kUnserved. finalize() runs a last evaluation, so drain-phase
  /// bursts are still detectable.
  void observe_unserved(TimeMs now, int model, std::uint64_t count);

  /// Monitor-tick gauges (same call sites as the rollup aggregator).
  void observe_queue_depth(TimeMs now, int model, int node, double depth);
  void observe_in_flight(TimeMs now, int node, double batches);

  /// One detector evaluation pass; call on every monitor tick.
  void evaluate(TimeMs now);

  /// End of run: a final evaluation, then every still-firing alert is
  /// closed with resolve_ms = end and resolved_at_end = true. Pending
  /// alerts that never fired are dropped.
  void finalize(TimeMs end_ms);

  const HealthConfig& config() const { return config_; }
  /// Resolved incidents in resolution order (deterministic: appends happen
  /// in evaluation order over the sorted key map).
  const std::vector<AlertRecord>& alerts() const { return alerts_; }

  // --- Ground truth for the health report ---------------------------------
  std::uint64_t completions() const { return completions_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t evaluations() const { return evaluations_; }
  /// Simulated time of the first violating completion (or unserved batch);
  /// -1 when the run was fully compliant.
  TimeMs first_violation_ms() const { return first_violation_ms_; }

 private:
  struct TickSample {
    TimeMs t_ms = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    telemetry::ViolationCauseCounts causes{};
  };

  struct DetectorState {
    enum class Phase : std::uint8_t { kIdle, kPending, kFiring };
    Phase phase = Phase::kIdle;
    int breach_streak = 0;
    int clear_streak = 0;
    TimeMs open_ms = 0.0;
    TimeMs fire_ms = 0.0;
    double peak_severity = 0.0;
    std::uint64_t ticks_breached = 0;
    // Cumulative-counter snapshots from the tick *before* open (so the
    // interval that produced the opening breach is inside the incident
    // window), for the alert's ground truth and blame delta.
    std::uint64_t open_requests = 0;
    std::uint64_t open_violations = 0;
    telemetry::ViolationCauseCounts open_causes{};
  };

  struct Key {
    std::int16_t model = -1;
    std::int16_t node = -1;
    bool operator<(const Key& other) const {
      if (model != other.model) return model < other.model;
      return node < other.node;
    }
  };

  struct KeyState {
    std::uint64_t requests = 0;  // completions (+ unserved on the cluster key)
    std::uint64_t violations = 0;
    telemetry::ViolationCauseCounts causes{};
    std::deque<TickSample> ticks;  // cumulative counters, one per evaluation
    QuantileSketch tick_latency;   // cleared after every evaluation
    double latency_mean = 0.0;
    double latency_var = 0.0;
    int latency_samples = 0;
    double cusum = 0.0;
    double gauge = 0.0;
    bool gauge_fresh = false;  // a gauge arrived since the last evaluation
    double gauge_mean = 0.0;
    double gauge_var = 0.0;
    int gauge_samples = 0;
    std::array<DetectorState, kHealthDetectorCount> detectors{};
  };

  KeyState& state(int model, int node);
  void touch(KeyState& cluster, KeyState& keyed, TimeMs now,
             DurationMs latency_ms,
             const std::optional<telemetry::ViolationCause>& cause);
  void evaluate_key(const Key& key, KeyState& state, TimeMs now);
  void step_lifecycle(const Key& key, KeyState& state, HealthDetector detector,
                      TimeMs now, bool has_signal, bool breach,
                      double severity);
  void close_alert(const Key& key, KeyState& state, HealthDetector detector,
                   TimeMs resolve_ms, bool at_end);
  telemetry::ViolationCause blame_hint(const KeyState& state,
                                       const DetectorState& detector) const;

  HealthConfig config_;
  std::map<Key, KeyState> keys_;
  std::vector<AlertRecord> alerts_;
  std::uint64_t completions_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t evaluations_ = 0;
  TimeMs first_violation_ms_ = -1.0;
};

}  // namespace paldia::obs
