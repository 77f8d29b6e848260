#include "src/models/profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/hw/catalog_gen.hpp"
#include "src/models/zoo.hpp"

namespace paldia::models {
namespace {

const ModelSpec& resnet50() { return Zoo::instance().spec(ModelId::kResNet50); }
const hw::GpuSpec& v100() {
  return *hw::Catalog::instance().spec(hw::NodeType::kP3_2xlarge).gpu;
}
const hw::GpuSpec& m60() {
  return *hw::Catalog::instance().spec(hw::NodeType::kG3s_xlarge).gpu;
}
const hw::GpuSpec& k80() {
  return *hw::Catalog::instance().spec(hw::NodeType::kP2_xlarge).gpu;
}

TEST(Profile, SoloAtMaxBatchMatchesCalibration) {
  const auto& model = resnet50();
  EXPECT_NEAR(gpu_solo_ms(model, v100(), model.max_batch), model.solo_v100_ms, 1e-9);
}

TEST(Profile, SoloMonotoneInBatchSize) {
  const auto& model = resnet50();
  double previous = 0.0;
  for (int bs = 1; bs <= model.max_batch; ++bs) {
    const double solo = gpu_solo_ms(model, v100(), bs);
    EXPECT_GT(solo, previous);
    previous = solo;
  }
}

TEST(Profile, WimpierGpuIsSlower) {
  const auto& model = resnet50();
  for (int bs : {1, 8, 64}) {
    EXPECT_GT(gpu_solo_ms(model, m60(), bs), gpu_solo_ms(model, v100(), bs));
    EXPECT_GT(gpu_solo_ms(model, k80(), bs), gpu_solo_ms(model, m60(), bs));
  }
}

TEST(Profile, FbrHigherOnLowerBandwidthGpus) {
  const auto& model = resnet50();
  const int bs = model.max_batch;
  EXPECT_GT(gpu_fbr(model, m60(), bs), gpu_fbr(model, v100(), bs));
}

TEST(Profile, FbrCappedWithSoloStretch) {
  const auto& bert = Zoo::instance().spec(ModelId::kBert);
  // BERT's FBR on the M60 would exceed the cap; the solo time must stretch
  // to compensate (bandwidth-bound execution).
  EXPECT_DOUBLE_EQ(gpu_fbr(bert, m60(), bert.max_batch), kMaxFbr);
  const double v100_solo = gpu_solo_ms(bert, v100(), bert.max_batch);
  const double speed_ratio = v100().speed / m60().speed;
  EXPECT_GT(gpu_solo_ms(bert, m60(), bert.max_batch), v100_solo * speed_ratio);
}

TEST(Profile, FbrScalesDownWithSmallBatches) {
  const auto& model = resnet50();
  EXPECT_LT(gpu_fbr(model, v100(), 1), gpu_fbr(model, v100(), model.max_batch));
}

TEST(Profile, CpuSoloLinearInBatch) {
  const auto& model = resnet50();
  const auto& cpu = hw::Catalog::instance().spec(hw::NodeType::kC6i_4xlarge).cpu;
  const double one = cpu_solo_ms(model, cpu, 1);
  const double ten = cpu_solo_ms(model, cpu, 10);
  EXPECT_NEAR(ten - kCpuFixedOverheadMs, (one - kCpuFixedOverheadMs) * 10.0, 1e-6);
}

TEST(Profile, FewerVcpusAreSlower) {
  const auto& model = resnet50();
  const auto& c16 = hw::Catalog::instance().spec(hw::NodeType::kC6i_4xlarge).cpu;
  const auto& c8 = hw::Catalog::instance().spec(hw::NodeType::kC6i_2xlarge).cpu;
  const auto& m4 = hw::Catalog::instance().spec(hw::NodeType::kM4_xlarge).cpu;
  EXPECT_LT(cpu_solo_ms(model, c16, 4), cpu_solo_ms(model, c8, 4));
  EXPECT_LT(cpu_solo_ms(model, c8, 4), cpu_solo_ms(model, m4, 4));
}

TEST(Profile, PaperCpuThroughputCeiling) {
  // Section IV-A: CPU nodes handle "up to ~25 rps for workloads with high
  // FBRs". ResNet 50 on the c6i.4xlarge must peak in that neighbourhood.
  ProfileTable table;
  const Rps cap =
      table.peak_solo_throughput(resnet50(), hw::NodeType::kC6i_4xlarge);
  EXPECT_GT(cap, 20.0);
  EXPECT_LT(cap, 55.0);
}

TEST(ProfileTable, LookupGpuVsCpu) {
  ProfileTable table;
  const auto gpu_entry = table.lookup(resnet50(), hw::NodeType::kP3_2xlarge, 32);
  EXPECT_GT(gpu_entry.fbr, 0.0);
  const auto cpu_entry = table.lookup(resnet50(), hw::NodeType::kC6i_2xlarge, 2);
  EXPECT_EQ(cpu_entry.fbr, 0.0);
  EXPECT_GT(cpu_entry.solo_ms, 0.0);
}

TEST(ProfileTable, MaxBatchWithinBudget) {
  ProfileTable table;
  const auto& model = resnet50();
  const int fit = table.max_batch_within(model, hw::NodeType::kG3s_xlarge, 200.0);
  ASSERT_GT(fit, 0);
  EXPECT_LE(table.lookup(model, hw::NodeType::kG3s_xlarge, fit).solo_ms, 200.0);
  if (fit < model.max_batch) {
    EXPECT_GT(table.lookup(model, hw::NodeType::kG3s_xlarge, fit + 1).solo_ms, 200.0);
  }
}

TEST(ProfileTable, MaxBatchZeroWhenNothingFits) {
  ProfileTable table;
  const auto& bert = Zoo::instance().spec(ModelId::kBert);
  EXPECT_EQ(table.max_batch_within(bert, hw::NodeType::kM4_xlarge, 200.0), 0);
}

// max_batch_within is a binary search; the reference is the plain scan it
// replaced: the longest prefix of batch sizes whose solo latency fits.
// Budgets cover every exact solo(bs) value and its neighbouring doubles,
// budgets below solo(1) and above solo(max_batch), for every model on every
// node of the catalog.
void ExpectMaxBatchMatchesLinearScan(const hw::Catalog& catalog) {
  const ProfileTable table(catalog);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t n = 0; n < catalog.size(); ++n) {
    const auto node = static_cast<hw::NodeType>(n);
    for (int m = 0; m < kModelCount; ++m) {
      const ModelSpec& model = Zoo::instance().spec(ModelId(m));
      std::vector<double> solo;  // solo[bs - 1]
      for (int bs = 1; bs <= model.max_batch; ++bs) {
        solo.push_back(table.lookup(model, node, bs).solo_ms);
      }
      std::vector<double> budgets = {-1.0, 0.0, solo.front() / 2.0, solo.back() * 2.0,
                                     inf};
      for (const double value : solo) {
        budgets.push_back(value);
        budgets.push_back(std::nextafter(value, -inf));
        budgets.push_back(std::nextafter(value, inf));
      }
      for (const double budget : budgets) {
        int linear = 0;
        while (linear < model.max_batch && solo[linear] <= budget) ++linear;
        ASSERT_EQ(table.max_batch_within(model, node, budget), linear)
            << model.name << " on " << catalog.name(node) << ", budget " << budget;
      }
    }
  }
}

TEST(ProfileTable, MaxBatchWithinMatchesLinearScanTableII) {
  ExpectMaxBatchMatchesLinearScan(hw::Catalog::instance());
}

TEST(ProfileTable, MaxBatchWithinMatchesLinearScanGeneratedCatalog) {
  const auto config = hw::parse_catalog_spec("gen:256");
  ASSERT_TRUE(config.has_value());
  ExpectMaxBatchMatchesLinearScan(hw::generate_catalog(*config));
}

TEST(ProfileTable, BatchExecutionLatencyInPaperBand) {
  // Section V: batch sizes are selected so batch latency stays in
  // ~50-200 ms. Every vision model's max batch on the V100 must fit the
  // band (language models sit near the top on their serving hardware).
  ProfileTable table;
  for (ModelId id : Zoo::instance().vision_models()) {
    const auto& model = Zoo::instance().spec(id);
    const auto entry = table.lookup(model, hw::NodeType::kP3_2xlarge, model.max_batch);
    EXPECT_GE(entry.solo_ms, 15.0) << model.name;
    EXPECT_LE(entry.solo_ms, 200.0) << model.name;
  }
}

// Parameterized sweep: the analytic envelope must be internally consistent
// for every (model, GPU) pair.
class ProfileSweep
    : public ::testing::TestWithParam<std::tuple<int, hw::NodeType>> {};

TEST_P(ProfileSweep, EnvelopeInvariants) {
  const auto [model_index, node] = GetParam();
  const auto& model = Zoo::instance().spec(ModelId(model_index));
  ProfileTable table;
  double previous_solo = 0.0;
  for (int bs = 1; bs <= model.max_batch; bs *= 2) {
    const auto entry = table.lookup(model, node, bs);
    EXPECT_GT(entry.solo_ms, previous_solo);
    previous_solo = entry.solo_ms;
    if (hw::Catalog::instance().spec(node).is_gpu()) {
      EXPECT_GT(entry.fbr, 0.0);
      EXPECT_LE(entry.fbr, kMaxFbr);
    }
    // Per-request efficiency improves with batching.
    if (bs > 1) {
      EXPECT_LT(entry.solo_ms / bs, table.lookup(model, node, 1).solo_ms);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllNodes, ProfileSweep,
    ::testing::Combine(::testing::Range(0, models::kModelCount),
                       ::testing::Values(hw::NodeType::kP3_2xlarge,
                                         hw::NodeType::kP2_xlarge,
                                         hw::NodeType::kG3s_xlarge,
                                         hw::NodeType::kC6i_4xlarge)));

}  // namespace
}  // namespace paldia::models
