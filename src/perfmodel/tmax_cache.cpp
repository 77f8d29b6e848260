#include "src/perfmodel/tmax_cache.hpp"

#include <cassert>
#include <cmath>

namespace paldia::perfmodel {

std::int64_t TmaxCache::quantize_slo(DurationMs slo_ms) {
  // 1/1024 ms grid: exact for every SLO the zoo defines (integral ms times
  // the 0.85 headroom factor), fine enough that two budgets landing in the
  // same cell are indistinguishable for the sweep (t_max does not depend on
  // the SLO at all; only the candidate set could, through optimal_range).
  return static_cast<std::int64_t>(std::llround(slo_ms * 1024.0));
}

std::size_t TmaxCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the packed fields; the key is small enough that quality
  // beyond "spread the low bits" does not matter.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(key.model)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(key.node)) << 16);
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.n_requests)));
  mix(static_cast<std::uint64_t>(key.slo_q));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.max_probes)));
  return static_cast<std::size_t>(hash);
}

SharingDecision TmaxCache::best_split(const YOptimizer& optimizer, const Key& key,
                                      const WorkloadPoint& point, int max_probes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      if (!bypass_) {
        SharingDecision decision;
        decision.y = it->second.y;
        decision.t_max_ms = it->second.t_max_ms;
        decision.feasible = decision.t_max_ms <= point.slo_ms;
        return decision;
      }
    } else {
      ++misses_;
    }
  }
  // Miss (or bypass): compute outside the lock — concurrent callers always
  // probe different keys (see file comment), so nobody duplicates this work.
  const SharingDecision decision = optimizer.best_split(point, max_probes);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, Value{decision.y, decision.t_max_ms});
  if (!inserted) {
    // Bypass hit re-verifies the memoized value against the recomputation —
    // the bit-identity contract, also checked end to end by
    // ReferenceModes.TmaxCacheBypassExportsByteIdentical.
    assert(it->second.y == decision.y && it->second.t_max_ms == decision.t_max_ms);
    (void)it;
  }
  return decision;
}

TmaxCacheStats TmaxCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return TmaxCacheStats{hits_, misses_};
}

std::size_t TmaxCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace paldia::perfmodel
