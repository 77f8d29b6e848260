#include "src/obs/profiler.hpp"

namespace paldia::obs {

std::string_view profile_phase_name(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kSerialDrain: return "serial_drain";
    case ProfilePhase::kSelectionSweep: return "selection_sweep";
    case ProfilePhase::kDispatchTick: return "dispatch_tick";
    case ProfilePhase::kMonitorTick: return "monitor_tick";
    case ProfilePhase::kExportFlush: return "export_flush";
  }
  return "unknown";
}

void Profiler::merge(const Profiler& other) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    phases_[i].calls += other.phases_[i].calls;
    phases_[i].total_ns += other.phases_[i].total_ns;
    if (other.phases_[i].max_ns > phases_[i].max_ns) {
      phases_[i].max_ns = other.phases_[i].max_ns;
    }
  }
}

bool Profiler::empty() const {
  for (const PhaseStats& stats : phases_) {
    if (stats.calls != 0) return false;
  }
  return true;
}

}  // namespace paldia::obs
