// The selection-only cost/attainment frontier (the large-catalog stress for
// Algorithm 1). A generated device catalog (hw/catalog_gen.hpp) is driven
// by 100+ model endpoints, each with a deterministic random-walk demand
// schedule, through HardwareSelection::choose directly — no Framework and
// no simulator, just the selection sweep over the whole catalog. (The
// simulated multi-gateway fleet is core::Fleet / exp::FleetSim.)
//
// Two outputs matter:
//   * a cost-vs-SLO frontier (fig. 5 style): sweep slo_headroom and report
//     fleet $/hour against SLO attainment at each point;
//   * sweep-work accounting: how many of the pool's candidates the pruned
//     walk actually evaluated, versus the exhaustive linear reference.
//
// Determinism contract: the demand schedule and every choice are pure
// functions of (FrontierConfig, catalog) — choice_digest hashes the exact
// HardwareChoice stream, and the pruned and linear modes must produce the
// same digest (the fleet-scale face of the linear-sweep reference mode;
// fleet_frontier checks it on every run).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/scheduler_policy.hpp"
#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"

namespace paldia::exp {

struct FrontierConfig {
  int endpoints = 120;        // model endpoints (node groups) in the fleet
  int ticks = 40;             // monitor ticks simulated per endpoint
  std::uint64_t seed = 2026;  // demand random-walk seed
  double slo_headroom = 0.85; // HardwareSelectionConfig::slo_headroom
  bool prune = true;          // false = exhaustive linear reference
};

/// One endpoint's demand at one tick: the co-resident models' snapshots.
struct FrontierDemand {
  std::vector<core::DemandSnapshot> models;
};

/// The full fleet demand schedule: schedule[endpoint][tick]. A pure function
/// of (config.seed, endpoints, ticks) — independent of headroom and prune
/// mode, so frontier points and prune modes see identical inputs.
std::vector<std::vector<FrontierDemand>> build_frontier_schedule(
    const FrontierConfig& config, const models::Zoo& zoo);

struct FrontierResult {
  int endpoints = 0;
  int ticks = 0;
  int catalog_size = 0;
  long long choices = 0;        // endpoints * ticks
  long long feasible = 0;       // choices whose T_max met the headroomed SLO
  long long cpu_choices = 0;    // choices that landed on a CPU node
  long long pool_candidates = 0;  // summed capable-pool sizes
  long long evaluated = 0;        // summed candidates actually evaluated
  double fleet_cost_per_hour = 0.0;  // sum of chosen prices, averaged over ticks
  double slo_attainment = 0.0;       // feasible / choices
  double micros_per_choice = 0.0;    // wall-clock, excluded from the digest
  std::uint64_t choice_digest = 0;   // FNV-1a over the exact choice stream
};

/// Run the fleet scenario over a prebuilt schedule. `catalog` is typically
/// generated (hw::generate_catalog) but any catalog works; `profile` must be
/// built over the same catalog.
FrontierResult run_frontier(const FrontierConfig& config,
                            const std::vector<std::vector<FrontierDemand>>& schedule,
                            const models::Zoo& zoo, const hw::Catalog& catalog,
                            const models::ProfileTable& profile,
                            ThreadPool* pool = nullptr);

/// Convenience: build the schedule internally and run.
FrontierResult run_frontier(const FrontierConfig& config, const models::Zoo& zoo,
                            const hw::Catalog& catalog,
                            const models::ProfileTable& profile,
                            ThreadPool* pool = nullptr);

}  // namespace paldia::exp
