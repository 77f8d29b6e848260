// Windowed rollup aggregation (fleet-scale telemetry tier 2).
//
// The full trace answers "what happened to request 84117"; the rollup
// stream answers "how was resnet on the A10G doing between minute 4 and 5"
// in fixed memory. Every completion — sampled into the trace or not — folds
// into a per-(window, model, node) cell holding completion/violation counts,
// the per-cause violation breakdown, a streaming latency sketch (the same
// log-linear QuantileSketch attribution uses), and gauge accumulators for
// queue depth and in-flight batches sampled on monitor ticks.
//
// Memory is bounded by windows x (models+1) x (nodes+1) regardless of
// request count or sample rate. The report's attribution section is one
// fold over these cells (AttributionFold, obs/report.hpp): --report-out
// folds the aggregators, `paldia-analyze --rollup` the exported rows, with
// byte-identical results and no full trace needed.
//
// Determinism: cells live in a std::map keyed (window, model, node), so
// export iteration order is sorted and independent of completion order;
// all values derive from simulated time and counts, never wall clock.
//
// Hot-path discipline matches the Tracer: the framework holds a
// RollupAggregator* that is nullptr when rollups are disabled (single
// branch); the enabled path is a one-entry cell cache in front of a map
// lookup (completions cluster heavily within a window/model/node).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "src/common/units.hpp"
#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"
#include "src/obs/sketch.hpp"
#include "src/telemetry/slo_tracker.hpp"

namespace paldia::obs {

struct RollupConfig {
  /// Window width. Completions at t land in window floor(t / window_ms).
  /// Must be positive; the aggregator's constructor throws otherwise.
  DurationMs window_ms = 60'000.0;
};

/// Cell key. model/node are plain ints (models::ModelId / hw::NodeType);
/// -1 marks cluster-wide rows: unserved requests carry node = -1 (they
/// never reached a node), in-flight gauge samples carry model = -1.
struct RollupKey {
  std::int32_t window = 0;
  std::int16_t model = -1;
  std::int16_t node = -1;

  bool operator<(const RollupKey& other) const {
    if (window != other.window) return window < other.window;
    if (model != other.model) return model < other.model;
    return node < other.node;
  }
  bool operator==(const RollupKey& other) const {
    return window == other.window && model == other.model && node == other.node;
  }
};

struct RollupCell {
  std::uint64_t completed = 0;   // completions observed in the window
  std::uint64_t violations = 0;  // of which SLO-violating
  std::uint64_t unserved = 0;    // never-completed requests (node = -1 rows)
  telemetry::ViolationCauseCounts causes{};
  QuantileSketch latency;
  double queue_depth_sum = 0.0;
  std::uint64_t queue_depth_samples = 0;
  double in_flight_sum = 0.0;
  std::uint64_t in_flight_samples = 0;
};

class RollupAggregator {
 public:
  explicit RollupAggregator(RollupConfig config = {});

  /// One completed request. `cause` is engaged exactly when the request
  /// violated its SLO (the attribution engine's verdict, so the report's
  /// violation/cause counts match the RunMetrics row).
  void observe_completion(TimeMs end_ms, int model, int node,
                          DurationMs latency_ms,
                          const std::optional<telemetry::ViolationCause>& cause);

  /// Requests still pending at the drain cap. Aggregated under node = -1
  /// with cause kUnserved, mirroring AttributionEngine::record_unserved.
  void observe_unserved(TimeMs now, int model, std::uint64_t count);

  /// Monitor-tick gauges: per-model gateway queue depth on the active node,
  /// and cluster-wide in-flight batches (model = -1).
  void observe_queue_depth(TimeMs now, int model, int node, double depth);
  void observe_in_flight(TimeMs now, int node, double batches);

  const RollupConfig& config() const { return config_; }
  const std::map<RollupKey, RollupCell>& cells() const { return cells_; }
  /// Total observe_completion calls (every completion, sampled or not).
  std::uint64_t completions() const { return completions_; }

  std::int32_t window_of(TimeMs t_ms) const;

 private:
  RollupCell& cell(std::int32_t window, int model, int node);

  RollupConfig config_;
  std::map<RollupKey, RollupCell> cells_;
  std::uint64_t completions_ = 0;
  // One-entry lookup cache: consecutive completions overwhelmingly hit the
  // same (window, model, node) cell. Invalidated on map growth only by
  // being re-pointed (map nodes are stable, so stale is impossible).
  RollupKey last_key_{-1, -1, -1};
  RollupCell* last_cell_ = nullptr;
};

}  // namespace paldia::obs
