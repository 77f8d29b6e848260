#include "src/cluster/cluster.hpp"

#include <gtest/gtest.h>

namespace paldia::cluster {
namespace {

TEST(Cluster, AcquireAfterProcurementDelay) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(1));
  TimeMs ready_at = -1.0;
  cluster.acquire(hw::NodeType::kG3s_xlarge,
                  [&](Node&) { ready_at = simulator.now(); });
  EXPECT_FALSE(cluster.held(hw::NodeType::kG3s_xlarge));
  simulator.run_to_completion();
  EXPECT_EQ(ready_at, ClusterConfig{}.provisioner.procurement_delay_ms);
  EXPECT_TRUE(cluster.held(hw::NodeType::kG3s_xlarge));
}

TEST(Cluster, AcquireImmediatelySkipsProcurement) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(2));
  cluster.acquire_immediately(hw::NodeType::kC6i_2xlarge);
  EXPECT_TRUE(cluster.held(hw::NodeType::kC6i_2xlarge));
}

TEST(Cluster, AcquireWhileHeldIsImmediate) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(3));
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);
  bool called = false;
  cluster.acquire(hw::NodeType::kG3s_xlarge, [&](Node&) { called = true; });
  EXPECT_TRUE(called);
}

TEST(Cluster, ConcurrentAcquiresShareOneProcurement) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(4));
  int callbacks = 0;
  cluster.acquire(hw::NodeType::kP3_2xlarge, [&](Node&) { ++callbacks; });
  cluster.acquire(hw::NodeType::kP3_2xlarge, [&](Node&) { ++callbacks; });
  simulator.run_to_completion();
  EXPECT_EQ(callbacks, 2);
}

TEST(Cluster, CostAccumulatesWithHeldTime) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(5));
  cluster.acquire_immediately(hw::NodeType::kP3_2xlarge);  // $3.06/h
  simulator.run_until(hours(1) );
  EXPECT_NEAR(cluster.total_cost(), 3.06, 1e-6);
  cluster.release(hw::NodeType::kP3_2xlarge);
  simulator.run_until(hours(2));
  EXPECT_NEAR(cluster.total_cost(), 3.06, 1e-6);  // stopped accruing
}

TEST(Cluster, WeightedCostAcrossNodeTypes) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(6));
  cluster.acquire_immediately(hw::NodeType::kC6i_2xlarge);  // $0.34/h
  simulator.run_until(hours(1));
  cluster.release(hw::NodeType::kC6i_2xlarge);
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);  // $0.75/h
  simulator.run_until(hours(1.5));
  EXPECT_NEAR(cluster.total_cost(), 0.34 + 0.75 * 0.5, 1e-6);
}

TEST(Cluster, HeldTypesListsCurrentHolds) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(7));
  EXPECT_TRUE(cluster.held_types().empty());
  cluster.acquire_immediately(hw::NodeType::kM4_xlarge);
  cluster.acquire_immediately(hw::NodeType::kP2_xlarge);
  const auto held = cluster.held_types();
  EXPECT_EQ(held.size(), 2u);
}

TEST(Cluster, ReleaseIdempotent) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(8));
  cluster.acquire_immediately(hw::NodeType::kM4_xlarge);
  cluster.release(hw::NodeType::kM4_xlarge);
  cluster.release(hw::NodeType::kM4_xlarge);
  EXPECT_FALSE(cluster.held(hw::NodeType::kM4_xlarge));
}

TEST(Cluster, ReacquireAccumulatesHeldTime) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(9));
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);
  simulator.run_until(minutes(10));
  cluster.release(hw::NodeType::kG3s_xlarge);
  simulator.run_until(minutes(20));
  cluster.acquire_immediately(hw::NodeType::kG3s_xlarge);
  simulator.run_until(minutes(25));
  EXPECT_NEAR(cluster.held_time_ms(hw::NodeType::kG3s_xlarge), minutes(15), 1.0);
}

TEST(Cluster, FailAndRecoverNode) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(10));
  cluster.fail_node(hw::NodeType::kG3s_xlarge);
  EXPECT_FALSE(cluster.node(hw::NodeType::kG3s_xlarge).is_up());
  cluster.recover_node(hw::NodeType::kG3s_xlarge);
  EXPECT_TRUE(cluster.node(hw::NodeType::kG3s_xlarge).is_up());
}

TEST(Cluster, ColdStartRollup) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(11));
  cluster.node(hw::NodeType::kG3s_xlarge).spawn_container(models::ModelId::kResNet50);
  cluster.node(hw::NodeType::kC6i_2xlarge).spawn_container(models::ModelId::kResNet50);
  EXPECT_EQ(cluster.total_cold_starts(), 2u);
}

TEST(Cluster, OneNodePerTableIIType) {
  sim::Simulator simulator;
  Cluster cluster(simulator, Rng(12));
  for (int i = 0; i < static_cast<int>(cluster.catalog().size()); ++i) {
    EXPECT_EQ(cluster.node(hw::NodeType(i)).type(), hw::NodeType(i));
  }
}

}  // namespace
}  // namespace paldia::cluster
