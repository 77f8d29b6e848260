// Reference modes: three exact optimisations — the Eq. 1 sweep memoization
// (TmaxCache), the pruned Algorithm 1 candidate sweep and the request-path
// arena — change how much work runs or where buffers live, never a result.
// Each test reruns the fig04 cells (ResNet 50 and VGG 19 on the Azure
// trace, one repetition, the five main schemes) with one optimisation
// bypassed through its own setting, and compares every export with the
// default run byte for byte: metrics rows, decision log and report JSON
// whole, each Chrome trace by length plus a 64-bit digest. The traces add
// up to a few hundred MB, so they stream through a hashing buffer and are
// never held in memory.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/exp/runner.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/export.hpp"
#include "src/obs/report.hpp"

namespace paldia::exp {
namespace {

/// Output buffer that keeps only the length and a 64-bit FNV-1a digest of
/// what passes through it.
class DigestBuf final : public std::streambuf {
 public:
  DigestBuf() { setp(buffer_.data(), buffer_.data() + buffer_.size()); }

  std::uint64_t length() { drain(); return length_; }
  std::uint64_t digest() { drain(); return digest_; }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    for (const char* p = pbase(); p != pptr(); ++p) {
      digest_ = (digest_ ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
    }
    length_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  std::array<char, 1 << 16> buffer_{};
  std::uint64_t length_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

struct TraceDigest {
  std::uint64_t length = 0;
  std::uint64_t digest = 0;
  bool operator==(const TraceDigest&) const = default;
};

/// Every export of one fig04 sweep, plus the counters that show the
/// optimisations actually ran.
struct Fig04Exports {
  std::string metrics;
  std::string decisions;
  std::string report;
  std::vector<TraceDigest> traces;  // one per (model, scheme) cell
  double tmax_cache_hits = 0.0;
  long long pruned_candidates = 0;
};

Fig04Exports run_fig04(const SchemeFactoryOptions& options, bool request_pool) {
  ThreadPool pool(2);
  Runner runner(models::Zoo::instance(), hw::Catalog::instance(), &pool, options);
  Fig04Exports exports;
  std::ostringstream metrics;
  std::ostringstream decisions;
  obs::MetricsWriter metrics_writer(metrics, obs::ExportFormat::kJsonl);
  obs::DecisionLogWriter decision_writer(decisions, obs::ExportFormat::kJsonl);
  std::vector<obs::AnalysisReport> reports;
  for (const auto model : {models::ModelId::kResNet50, models::ModelId::kVgg19}) {
    Scenario scenario = azure_scenario(model, 1);
    scenario.framework.request_pool = request_pool;
    for (const SchemeId scheme : main_schemes()) {
      obs::RunTrace trace;
      trace.collect_rollups = true;  // the report's attribution folds them
      const RunResult result = runner.run(scenario, scheme, trace);
      const std::string label = scenario.name + " / " + scheme_name(scheme);
      metrics_writer.write(result.combined, "fig04");
      decision_writer.write(trace, scheme_name(scheme), scenario.name);

      DigestBuf digest;
      std::ostream chrome(&digest);
      obs::write_chrome_trace(chrome, trace, label);
      exports.traces.push_back({digest.length(), digest.digest()});

      reports.push_back(
          obs::analyze_with_zoo(obs::extract_run_data(trace, label)));
      exports.tmax_cache_hits += result.combined.tmax_cache_hits;
      for (const auto& rep : trace.reps) {
        for (const obs::DecisionRecord& record : rep->decisions()) {
          exports.pruned_candidates += record.pruned_candidates;
        }
      }
    }
  }
  std::ostringstream report;
  obs::write_report_json(report, reports);
  exports.metrics = metrics.str();
  exports.decisions = decisions.str();
  exports.report = report.str();
  return exports;
}

void expect_identical(const Fig04Exports& reference) {
  const Fig04Exports optimised = run_fig04({}, /*request_pool=*/true);
  // Guards against a vacuous pass: the default run really hits the cache
  // and really prunes candidates.
  ASSERT_GT(optimised.tmax_cache_hits, 0.0);
  ASSERT_GT(optimised.pruned_candidates, 0);
  ASSERT_EQ(optimised.traces.size(), 10u);
  ASSERT_GT(optimised.traces.front().length, 0u);
  // Whole-string compares without gtest's diff: the logs run to megabytes.
  EXPECT_TRUE(optimised.metrics == reference.metrics) << "metrics rows differ";
  EXPECT_TRUE(optimised.decisions == reference.decisions) << "decision logs differ";
  EXPECT_TRUE(optimised.report == reference.report) << "reports differ";
  ASSERT_EQ(optimised.traces.size(), reference.traces.size());
  for (std::size_t cell = 0; cell < optimised.traces.size(); ++cell) {
    EXPECT_EQ(optimised.traces[cell], reference.traces[cell]) << "cell " << cell;
  }
}

TEST(ReferenceModes, TmaxCacheBypassExportsByteIdentical) {
  SchemeFactoryOptions bypass;
  bypass.paldia.tmax_cache = false;
  expect_identical(run_fig04(bypass, /*request_pool=*/true));
}

TEST(ReferenceModes, LinearSweepExportsByteIdentical) {
  SchemeFactoryOptions linear;
  linear.paldia.selection.prune = false;
  expect_identical(run_fig04(linear, /*request_pool=*/true));
}

TEST(ReferenceModes, RequestArenaBypassExportsByteIdentical) {
  expect_identical(run_fig04({}, /*request_pool=*/false));
}

}  // namespace
}  // namespace paldia::exp
