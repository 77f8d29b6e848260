// Bounded-memory streaming quantile sketch for per-model / per-node latency
// distributions in the attribution engine, the rollup cells and the report.
//
// The attribution engine keeps one sketch per model plus the total, and the
// report and every rollup window one per model and per node of the run's
// catalogs, so the memory bound matters more than ultimate precision. We reuse the log-linear
// Histogram (0.25 ms linear buckets below 512 ms, exponential above): its
// error is < 0.5 ms in the region a 200 ms SLO cares about, and merge() lets
// the per-rep sketches fold into one run-level distribution deterministically
// (bucket counts are order-independent).
#pragma once

#include <cstdint>

#include "src/common/histogram.hpp"

namespace paldia::obs {

/// Streaming percentile summary: (p50, p95, p99) extracted in one bucket
/// scan, plus count/mean/max passthroughs.
struct SketchSummary {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class QuantileSketch {
 public:
  void insert(double value_ms) { histogram_.add(value_ms); }
  /// Weighted insert — used to rebuild a sketch from a serialized
  /// Histogram::nonzero_buckets() stream (rollup ingestion).
  void add(double value_ms, std::uint64_t count) { histogram_.add(value_ms, count); }
  void merge(const QuantileSketch& other) { histogram_.merge(other.histogram_); }
  void clear() { histogram_.clear(); }

  std::uint64_t count() const { return histogram_.count(); }
  bool empty() const { return histogram_.count() == 0; }

  /// p50/p95/p99 + count/mean/max in a single pass over the buckets.
  SketchSummary summary() const;

  /// Fraction of inserted samples <= threshold (sketch-side SLO compliance).
  double fraction_at_or_below(double threshold_ms) const {
    return histogram_.fraction_at_or_below(threshold_ms);
  }

  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
};

}  // namespace paldia::obs
