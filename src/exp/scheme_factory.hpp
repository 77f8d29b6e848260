// Builds the evaluated schemes (Section V) as SchedulerPolicy objects.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/common/thread_pool.hpp"
#include "src/core/paldia_policy.hpp"
#include "src/core/scheduler_policy.hpp"
#include "src/exp/scenario.hpp"

namespace paldia::exp {

enum class SchemeId {
  kPaldia,
  kInflessLlamaCost,   // INFless/Llama ($)
  kInflessLlamaPerf,   // INFless/Llama (P)
  kMoleculeCost,       // Molecule (beta) ($)
  kMoleculePerf,       // Molecule (beta) (P)
  kOracle,
  kOfflineHybrid,      // Fig. 1: fixed M60, offline-swept split
  kMpsOnlyPerf,        // Fig. 1: MPS Only (P) — pinned V100, all spatial
  kMpsOnlyCost,        // Fig. 1: MPS Only ($) — pinned M60, all spatial
  kTimeSharedPerf,     // Fig. 1: Time Shared Only (P)
  kTimeSharedCost,     // Fig. 1: Time Shared Only ($)
};

std::string scheme_name(SchemeId id);

/// The paper's five main-evaluation schemes in figure order.
std::vector<SchemeId> main_schemes();

/// What the factory needs to build a scheme — nothing else. Serving-loop
/// settings live on Scenario::framework (core::FrameworkConfig) and
/// observation settings on obs::RunTrace.
struct SchemeFactoryOptions {
  /// Split for Offline Hybrid (determined by the offline sweep).
  double offline_spatial_fraction = 0.5;
  /// Paldia's configuration, passed through unchanged. Oracle reads its
  /// tmax_beta, tmax_cache and selection from here too.
  core::PaldiaPolicyConfig paldia;
};

class SchemeFactory {
 public:
  SchemeFactory(const models::Zoo& zoo, const hw::Catalog& catalog,
                const models::ProfileTable& profile, ThreadPool* pool = nullptr,
                SchemeFactoryOptions options = {});

  std::unique_ptr<core::SchedulerPolicy> make(SchemeId id) const;

  /// Starting node for the scheme (P variants start on the V100; the rest
  /// on the cheapest CPU node, converging via their selection policy).
  hw::NodeType initial_node(SchemeId id) const;

  const SchemeFactoryOptions& options() const { return options_; }

 private:
  const models::Zoo* zoo_;
  const hw::Catalog* catalog_;
  const models::ProfileTable* profile_;
  ThreadPool* pool_;
  SchemeFactoryOptions options_;
};

}  // namespace paldia::exp
