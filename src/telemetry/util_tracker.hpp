// Node utilization (Fig. 8): utilization = device non-idle time as a
// fraction of the time the node type was *held* by the scheme. Sampled so
// hold intervals and busy intervals line up. One accumulator per node type
// of the cluster's catalog, sized at construction.
#pragma once

#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::telemetry {

class UtilTracker {
 public:
  UtilTracker(sim::Simulator& simulator, const cluster::Cluster& cluster,
              DurationMs sample_period_ms = 500.0);

  void arm(TimeMs end_ms);

  /// Busy fraction of the node type over the time it was held; 0 when the
  /// type was never held or is not in the cluster's catalog.
  double utilization(hw::NodeType type) const;

  /// Aggregate over all GPU (resp. CPU) node types, weighted by held time.
  double gpu_utilization() const;
  double cpu_utilization() const;

 private:
  void sample();

  sim::Simulator* simulator_;
  const cluster::Cluster* cluster_;
  DurationMs period_ms_;
  TimeMs end_ms_ = 0.0;
  TimeMs last_sample_ms_ = 0.0;
  // Per node type, sized from the cluster's catalog.
  std::vector<DurationMs> busy_while_held_ms_;
  std::vector<DurationMs> held_ms_;
  std::vector<DurationMs> last_busy_ms_;
};

}  // namespace paldia::telemetry
