// Memoization of the Algorithm 1 y-sweep (Eq. 1, Section III).
//
// Every monitor tick re-runs HardwareSelection's candidate sweep, and every
// dispatch round re-runs plan_dispatch's split sweep — both bottom out in
// YOptimizer::best_split over a WorkloadPoint that is a pure function of
// (model, node, N, SLO budget, probe count): batch size derives from N and
// the model's max_batch, and Solo/FBR/compute come from the immutable
// profile table. TmaxModel is deterministic math, so caching the sweep
// result is exact, not approximate — cached and recomputed decisions are
// bit-identical, and ReferenceModes.TmaxCacheBypassExportsByteIdentical
// (cache on vs PaldiaPolicyConfig::tmax_cache = false over the fig04 cells)
// verifies exactly that.
//
// Keying and invalidation: the key is (model, node, N, SLO quantized to a
// 1/1024 ms grid, max_probes). There is no invalidation rule because there
// is nothing to invalidate — the profile table and model/catalog specs are
// immutable for the lifetime of the owning policy, and each policy instance
// (one per repetition) owns its own cache, so entries can never go stale.
// The stored value keeps only (y, t_max); feasibility is recomputed against
// the caller's *unquantized* SLO at lookup time, so grid rounding can never
// flip a feasibility verdict.
//
// Bypass mode (TmaxCache(true)): lookups and insertions still happen and
// hits/misses are counted identically, but the returned decision is always
// freshly recomputed. This keeps every exported byte (including the
// hit/miss counter stream) identical between modes, which is what makes the
// byte-identity check meaningful rather than vacuous.
//
// Thread safety: HardwareSelection::choose evaluates candidate nodes in a
// parallel_for, so concurrent lookups happen — a mutex guards the map.
// Concurrent callers always probe *different* keys (the node is in the
// key), so hit/miss totals stay deterministic regardless of thread count.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/perfmodel/y_optimizer.hpp"

namespace paldia::perfmodel {

struct TmaxCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class TmaxCache {
 public:
  /// bypass = true: count and populate as usual but always recompute (the
  /// reference mode; see the file comment).
  explicit TmaxCache(bool bypass = false) : bypass_(bypass) {}
  TmaxCache(const TmaxCache&) = delete;
  TmaxCache& operator=(const TmaxCache&) = delete;

  /// Cache key. model/node are the raw enum values (kept as integers so
  /// this header needs neither models/ nor hw/); slo_q is the SLO budget
  /// quantized to the 1/1024 ms grid via quantize_slo().
  struct Key {
    std::int16_t model = -1;
    std::int16_t node = -1;
    std::int32_t n_requests = 0;
    std::int64_t slo_q = 0;
    std::int32_t max_probes = 0;

    bool operator==(const Key& other) const {
      return model == other.model && node == other.node &&
             n_requests == other.n_requests && slo_q == other.slo_q &&
             max_probes == other.max_probes;
    }
  };

  static std::int64_t quantize_slo(DurationMs slo_ms);

  /// best_split through the cache: returns the memoized (y, t_max) when the
  /// key is present, computing and inserting it otherwise. Feasibility is
  /// always re-derived from point.slo_ms, never stored.
  SharingDecision best_split(const YOptimizer& optimizer, const Key& key,
                             const WorkloadPoint& point, int max_probes);

  TmaxCacheStats stats() const;
  std::size_t size() const;
  bool bypass() const { return bypass_; }

 private:
  struct Value {
    int y = 0;
    DurationMs t_max_ms = 0.0;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, Value, KeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  const bool bypass_;
};

}  // namespace paldia::perfmodel
