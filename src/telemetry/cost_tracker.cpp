#include "src/telemetry/cost_tracker.hpp"

namespace paldia::telemetry {

std::vector<CostBreakdownEntry> CostTracker::breakdown() const {
  std::vector<CostBreakdownEntry> entries;
  for (int i = 0; i < static_cast<int>(cluster_->catalog().size()); ++i) {
    const auto type = hw::NodeType(i);
    const DurationMs held = cluster_->held_time_ms(type);
    if (held <= 0.0) continue;
    entries.push_back(CostBreakdownEntry{
        type, held,
        cluster_->catalog().spec(type).price_per_hour * (held / kMsPerHour)});
  }
  return entries;
}

}  // namespace paldia::telemetry
