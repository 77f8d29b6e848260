#include "src/hw/catalog.hpp"

#include <gtest/gtest.h>

namespace paldia::hw {
namespace {

TEST(Catalog, HasAllSixTableIINodes) {
  const Catalog& catalog = Catalog::instance();
  EXPECT_EQ(catalog.size(), 6u);
  EXPECT_EQ(catalog.all().size(), 6u);
  EXPECT_EQ(catalog.spec(NodeType::kP3_2xlarge).instance, "p3.2xlarge");
  EXPECT_EQ(catalog.spec(NodeType::kM4_xlarge).instance, "m4.xlarge");
}

TEST(Catalog, TableIIPrices) {
  const Catalog& catalog = Catalog::instance();
  EXPECT_DOUBLE_EQ(catalog.spec(NodeType::kP3_2xlarge).price_per_hour, 3.06);
  EXPECT_DOUBLE_EQ(catalog.spec(NodeType::kP2_xlarge).price_per_hour, 0.90);
  EXPECT_DOUBLE_EQ(catalog.spec(NodeType::kG3s_xlarge).price_per_hour, 0.75);
  EXPECT_DOUBLE_EQ(catalog.spec(NodeType::kC6i_4xlarge).price_per_hour, 0.68);
  EXPECT_DOUBLE_EQ(catalog.spec(NodeType::kC6i_2xlarge).price_per_hour, 0.34);
  EXPECT_DOUBLE_EQ(catalog.spec(NodeType::kM4_xlarge).price_per_hour, 0.20);
}

TEST(Catalog, GpuNodesHaveGpuSpecs) {
  const Catalog& catalog = Catalog::instance();
  for (const auto& spec : catalog.all()) {
    EXPECT_EQ(spec.is_gpu(), spec.gpu.has_value());
  }
  EXPECT_EQ(catalog.spec(NodeType::kP3_2xlarge).gpu->name, "V100");
  EXPECT_EQ(catalog.spec(NodeType::kP2_xlarge).gpu->name, "K80");
  EXPECT_EQ(catalog.spec(NodeType::kG3s_xlarge).gpu->name, "M60");
}

TEST(Catalog, ByCostAscendingOrdering) {
  const auto order = Catalog::instance().by_cost_ascending();
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.front(), NodeType::kM4_xlarge);   // $0.20
  EXPECT_EQ(order.back(), NodeType::kP3_2xlarge);   // $3.06
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(Catalog::instance().spec(order[i - 1]).price_per_hour,
              Catalog::instance().spec(order[i]).price_per_hour);
  }
}

TEST(Catalog, GpusByCapability) {
  const auto gpus = Catalog::instance().gpus_by_capability_ascending();
  ASSERT_EQ(gpus.size(), 3u);
  EXPECT_EQ(gpus[0], NodeType::kP2_xlarge);  // K80 weakest
  EXPECT_EQ(gpus[1], NodeType::kG3s_xlarge);
  EXPECT_EQ(gpus[2], NodeType::kP3_2xlarge);
}

TEST(Catalog, MostPerformantGpuIsV100) {
  EXPECT_EQ(Catalog::instance().most_performant_gpu(), NodeType::kP3_2xlarge);
}

TEST(Catalog, V100IsReferenceSpeed) {
  EXPECT_DOUBLE_EQ(Catalog::instance().spec(NodeType::kP3_2xlarge).gpu->speed, 1.0);
}

TEST(Catalog, GpuBandwidthOrderingMatchesDatasheets) {
  const Catalog& catalog = Catalog::instance();
  const double v100 = catalog.spec(NodeType::kP3_2xlarge).gpu->mem_bandwidth_gbps;
  const double k80 = catalog.spec(NodeType::kP2_xlarge).gpu->mem_bandwidth_gbps;
  const double m60 = catalog.spec(NodeType::kG3s_xlarge).gpu->mem_bandwidth_gbps;
  EXPECT_GT(v100, k80);
  EXPECT_GT(k80, m60);
}

TEST(Catalog, DisplayNames) {
  const Catalog& catalog = Catalog::instance();
  EXPECT_EQ(catalog.spec(NodeType::kP3_2xlarge).display_name(), "V100");
  EXPECT_NE(catalog.spec(NodeType::kC6i_4xlarge).display_name().find("IceLake"),
            std::string::npos);
}

TEST(Catalog, CustomCatalogRejectsEmpty) {
  EXPECT_THROW(Catalog(std::vector<NodeSpec>{}), std::invalid_argument);
}

TEST(Catalog, NodeTypeNames) {
  const Catalog& catalog = Catalog::instance();
  EXPECT_EQ(catalog.name(NodeType::kG3s_xlarge), "g3s.xlarge");
  EXPECT_EQ(catalog.name(NodeType::kC6i_2xlarge), "c6i.2xlarge");
}

}  // namespace
}  // namespace paldia::hw
