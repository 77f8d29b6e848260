// Fleet-scale selection scenario (exp/frontier.hpp): a generated catalog
// driven by 100+ endpoints through HardwareSelection directly.
#include "src/exp/frontier.hpp"

#include <gtest/gtest.h>

#include "src/hw/catalog_gen.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"

namespace paldia::exp {
namespace {

TEST(Fleet, ScheduleIsDeterministicAndPruneAgnostic) {
  const auto& zoo = models::Zoo::instance();
  FrontierConfig config;
  config.endpoints = 16;
  config.ticks = 8;
  const auto a = build_frontier_schedule(config, zoo);
  config.prune = false;  // prune mode must not touch the demand stream
  config.slo_headroom = 0.70;
  const auto b = build_frontier_schedule(config, zoo);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].size(), b[e].size());
    for (std::size_t t = 0; t < a[e].size(); ++t) {
      ASSERT_EQ(a[e][t].models.size(), b[e][t].models.size());
      for (std::size_t m = 0; m < a[e][t].models.size(); ++m) {
        EXPECT_EQ(a[e][t].models[m].model, b[e][t].models[m].model);
        EXPECT_DOUBLE_EQ(a[e][t].models[m].observed_rps,
                         b[e][t].models[m].observed_rps);
        EXPECT_DOUBLE_EQ(a[e][t].models[m].predicted_rps,
                         b[e][t].models[m].predicted_rps);
        EXPECT_EQ(a[e][t].models[m].backlog, b[e][t].models[m].backlog);
      }
    }
  }
}

TEST(Fleet, PrunedAndLinearDigestsMatchOnLargeCatalog) {
  const auto& zoo = models::Zoo::instance();
  hw::CatalogGenConfig gen;
  gen.node_count = 64;
  const hw::Catalog catalog = hw::generate_catalog(gen);
  const models::ProfileTable profile(catalog);

  FrontierConfig config;
  config.endpoints = 100;  // the issue's fleet floor
  config.ticks = 6;
  const auto schedule = build_frontier_schedule(config, zoo);

  FrontierConfig linear = config;
  linear.prune = false;
  const auto pruned = run_frontier(config, schedule, zoo, catalog, profile);
  const auto exhaustive = run_frontier(linear, schedule, zoo, catalog, profile);

  EXPECT_EQ(pruned.choices, 600);
  EXPECT_EQ(pruned.choices, exhaustive.choices);
  EXPECT_EQ(pruned.feasible, exhaustive.feasible);
  EXPECT_EQ(pruned.cpu_choices, exhaustive.cpu_choices);
  EXPECT_EQ(pruned.choice_digest, exhaustive.choice_digest);
  EXPECT_DOUBLE_EQ(pruned.fleet_cost_per_hour, exhaustive.fleet_cost_per_hour);
  // The replayed work accounting is prune-agnostic by design.
  EXPECT_EQ(pruned.pool_candidates, exhaustive.pool_candidates);
  EXPECT_EQ(pruned.evaluated, exhaustive.evaluated);
  // And the pruned walk must actually save work at this catalog size.
  EXPECT_LT(pruned.evaluated, pruned.pool_candidates / 2)
      << "pruning saved less than half the sweep work on a 64-type catalog";
  EXPECT_EQ(pruned.catalog_size, 64);
  EXPECT_GT(pruned.slo_attainment, 0.0);
  EXPECT_GT(pruned.fleet_cost_per_hour, 0.0);
}

TEST(Fleet, HeadroomSweepTradesCostForAttainment) {
  const auto& zoo = models::Zoo::instance();
  hw::CatalogGenConfig gen;
  gen.node_count = 32;
  gen.seed = 11;
  const hw::Catalog catalog = hw::generate_catalog(gen);
  const models::ProfileTable profile(catalog);

  FrontierConfig config;
  config.endpoints = 40;
  config.ticks = 6;
  const auto schedule = build_frontier_schedule(config, zoo);

  FrontierConfig lax = config, strict = config;
  lax.slo_headroom = 0.95;   // largest budget: most candidates feasible
  strict.slo_headroom = 0.70;  // tightest budget
  const auto lax_result = run_frontier(lax, schedule, zoo, catalog, profile);
  const auto strict_result = run_frontier(strict, schedule, zoo, catalog, profile);
  // A tighter budget can only reduce the feasible count.
  EXPECT_LE(strict_result.feasible, lax_result.feasible);
}

}  // namespace
}  // namespace paldia::exp
