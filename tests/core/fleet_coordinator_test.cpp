// Unit tests for the core::Fleet coordinator: catalog slicing (a partition of
// every node), the deterministic splitmix64 request router, thread-count
// independence, and workload splitting (request conservation across
// per-endpoint sub-traces). The end-to-end fleet byte-identity contract lives
// in the integration suite.
#include "src/core/fleet.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/exp/scheme_factory.hpp"
#include "src/hw/catalog_gen.hpp"
#include "src/models/zoo.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/generators.hpp"

namespace paldia::core {
namespace {

hw::Catalog generated(int nodes) {
  return hw::generate_catalog({.node_count = nodes, .seed = 7});
}

Fleet::PolicyFactory paldia_factory(const models::Zoo& zoo,
                                    ThreadPool* pool = nullptr) {
  return [&zoo, pool](int, const hw::Catalog& slice,
                      const models::ProfileTable& profile) {
    exp::SchemeFactory factory(zoo, slice, profile, pool);
    return factory.make(exp::SchemeId::kPaldia);
  };
}

TEST(SliceCatalog, SlicesAreDisjointSortedAndBounded) {
  const hw::Catalog catalog = generated(64);
  const auto slices = slice_catalog(catalog, 7);
  ASSERT_EQ(slices.size(), 7u);
  std::set<int> seen;
  for (const auto& slice : slices) {
    ASSERT_FALSE(slice.empty());
    for (std::size_t i = 0; i < slice.size(); ++i) {
      EXPECT_GE(slice[i], 0);
      EXPECT_LT(slice[i], static_cast<int>(catalog.size()));
      if (i > 0) EXPECT_LT(slice[i - 1], slice[i]);  // sorted, no dupes
      EXPECT_TRUE(seen.insert(slice[i]).second) << "node dealt twice";
    }
  }
  EXPECT_EQ(seen.size(), catalog.size()) << "slices must partition the catalog";
}

TEST(SliceCatalog, Gen64OverFourEndpointsDealsEveryGpu) {
  // fleet_sim --catalog=gen:64 --endpoints=4: 25 CPUs and 39 GPUs. Every
  // node, GPUs included, lands in exactly one slice.
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 64});
  int gpus = 0;
  for (int i = 0; i < static_cast<int>(catalog.size()); ++i) {
    gpus += catalog.spec(hw::NodeType(i)).is_gpu() ? 1 : 0;
  }
  ASSERT_EQ(gpus, 39);
  std::set<int> seen;
  int gpus_dealt = 0;
  for (const auto& slice : slice_catalog(catalog, 4)) {
    for (const int node : slice) {
      EXPECT_TRUE(seen.insert(node).second) << "node dealt twice";
      gpus_dealt += catalog.spec(hw::NodeType(node)).is_gpu() ? 1 : 0;
    }
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(gpus_dealt, gpus);
}

TEST(SliceCatalog, EverySliceGetsACpuNode) {
  // CPUs are dealt before GPUs, so as long as the catalog has one CPU per
  // endpoint, every slice can start on a CPU node (the Fleet ctor starts
  // each endpoint on its slice's cheapest node).
  const hw::Catalog catalog = generated(64);
  int cpu_nodes = 0;
  for (int i = 0; i < static_cast<int>(catalog.size()); ++i) {
    if (!catalog.spec(hw::NodeType(i)).is_gpu()) ++cpu_nodes;
  }
  for (const int endpoints : {1, 2, 4, 8, 16}) {
    if (endpoints > cpu_nodes) continue;
    const auto slices = slice_catalog(catalog, endpoints);
    for (const auto& slice : slices) {
      bool has_cpu = false;
      for (const int node : slice) {
        has_cpu |= !catalog.spec(hw::NodeType(node)).is_gpu();
      }
      EXPECT_TRUE(has_cpu) << "slice without a CPU node at endpoints="
                           << endpoints;
    }
  }
}

TEST(FleetRoute, DeterministicInRangeAndRoughlyBalanced) {
  constexpr int kEndpoints = 8;
  constexpr std::uint64_t kSeed = 0x9a1d1a;
  std::vector<int> hits(kEndpoints, 0);
  for (std::uint64_t k = 0; k < 80000; ++k) {
    const int target = Fleet::route(kSeed, k, kEndpoints);
    ASSERT_GE(target, 0);
    ASSERT_LT(target, kEndpoints);
    ASSERT_EQ(target, Fleet::route(kSeed, k, kEndpoints));  // pure function
    ++hits[static_cast<std::size_t>(target)];
  }
  for (const int count : hits) {
    EXPECT_GT(count, 9000);   // mean 10000 per endpoint
    EXPECT_LT(count, 11000);
  }
  // Different seeds route differently (the seed actually participates).
  int diffs = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    diffs += Fleet::route(1, k, kEndpoints) != Fleet::route(2, k, kEndpoints);
  }
  EXPECT_GT(diffs, 500);
}

TEST(Fleet, EndpointSlicesAreIndependentOfThreadCount) {
  const hw::Catalog catalog = generated(32);
  ThreadPool pool(4);
  std::vector<std::vector<int>> reference;
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
    sim::Simulator simulator;
    FleetConfig config;
    config.endpoints = 8;
    Fleet fleet(simulator, Rng(17), models::Zoo::instance(), catalog, config,
                paldia_factory(models::Zoo::instance(), threads));
    ASSERT_EQ(fleet.endpoint_count(), 8);
    std::vector<std::vector<int>> slices;
    for (int e = 0; e < fleet.endpoint_count(); ++e) {
      EXPECT_EQ(fleet.slice(e).size(), fleet.slice_nodes(e).size());
      slices.push_back(fleet.slice_nodes(e));
    }
    if (reference.empty()) {
      reference = slices;
    } else {
      EXPECT_EQ(reference, slices);
    }
  }
}

TEST(Fleet, AddWorkloadConservesRequestsAcrossEndpoints) {
  sim::Simulator simulator;
  const hw::Catalog catalog = generated(32);
  FleetConfig config;
  config.endpoints = 6;
  Fleet fleet(simulator, Rng(17), models::Zoo::instance(), catalog, config,
              paldia_factory(models::Zoo::instance()));
  trace::PoissonOptions poisson;
  poisson.duration_ms = 60'000.0;
  poisson.mean_rps = 200.0;
  poisson.seed = 9;
  const trace::Trace global = trace::make_poisson_trace(poisson);
  fleet.add_workload(models::ModelId::kResNet50, global);
  EXPECT_EQ(fleet.total_requests(), global.total_requests());
  std::uint64_t sum = 0;
  int endpoints_with_traffic = 0;
  for (int e = 0; e < fleet.endpoint_count(); ++e) {
    sum += fleet.endpoint_requests(e);
    endpoints_with_traffic += fleet.endpoint_requests(e) > 0 ? 1 : 0;
  }
  EXPECT_EQ(sum, global.total_requests());
  // ~12k arrivals over 6 endpoints: the router must spread the load.
  EXPECT_EQ(endpoints_with_traffic, fleet.endpoint_count());
}

TEST(Fleet, Gen64OverFourEndpointsConservesRoutedArrivals) {
  // Every routed arrival is completed or counted unserved at the drain cap
  // (the framework records unserved requests as missed completions).
  sim::Simulator simulator;
  const hw::Catalog catalog = hw::generate_catalog({.node_count = 64});
  FleetConfig config;  // default route seed: fleet_sim's scenario seed
  config.endpoints = 4;
  Fleet fleet(simulator, Rng(config.route_seed).fork("fleet"),
              models::Zoo::instance(), catalog, config,
              paldia_factory(models::Zoo::instance()));
  trace::PoissonOptions poisson;
  poisson.duration_ms = 60'000.0;
  poisson.mean_rps = 20000.0 / 60.0;
  poisson.seed = 4;
  fleet.add_workload(models::ModelId::kResNet50, trace::make_poisson_trace(poisson));
  fleet.run();
  std::uint64_t accounted = 0;
  for (int e = 0; e < fleet.endpoint_count(); ++e) {
    accounted += fleet.framework(e).slo(models::ModelId::kResNet50).total();
  }
  EXPECT_GT(fleet.total_requests(), 19000u);
  EXPECT_EQ(accounted, fleet.total_requests());
}

TEST(Fleet, WorkloadSplitIsIndependentOfThreadCount) {
  // The routing split happens before any event runs, and the pool only
  // parallelizes Algorithm 1's sweeps, so neither the per-endpoint request
  // counts nor the run itself may depend on the thread count.
  const hw::Catalog catalog = generated(32);
  trace::PoissonOptions poisson;
  poisson.duration_ms = 30'000.0;
  poisson.mean_rps = 150.0;
  poisson.seed = 11;
  const trace::Trace global = trace::make_poisson_trace(poisson);
  ThreadPool pool(4);
  std::vector<std::uint64_t> reference;
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
    sim::Simulator simulator;
    FleetConfig config;
    config.endpoints = 5;
    Fleet fleet(simulator, Rng(17), models::Zoo::instance(), catalog, config,
                paldia_factory(models::Zoo::instance(), threads));
    fleet.add_workload(models::ModelId::kMobileNet, global);
    std::vector<std::uint64_t> split;
    for (int e = 0; e < fleet.endpoint_count(); ++e) {
      split.push_back(fleet.endpoint_requests(e));
    }
    split.push_back(static_cast<std::uint64_t>(fleet.run()));
    split.push_back(simulator.events_processed());
    if (reference.empty()) {
      reference = split;
    } else {
      EXPECT_EQ(reference, split);
    }
  }
}

}  // namespace
}  // namespace paldia::core
