#include "src/models/profile.hpp"

#include <algorithm>
#include <cmath>

namespace paldia::models {

namespace {

double batch_scale(const ModelSpec& model, int bs) {
  const double frac = std::clamp(static_cast<double>(bs) / model.max_batch, 0.0, 1.0);
  return model.fixed_fraction + (1.0 - model.fixed_fraction) * frac;
}

double fbr_scale(const ModelSpec& model, int bs) {
  const double frac = std::clamp(static_cast<double>(bs) / model.max_batch, 0.0, 1.0);
  return 0.6 + 0.4 * frac;
}

double raw_fbr(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  return model.fbr_v100 * (gpu.speed * kV100Bandwidth / gpu.mem_bandwidth_gbps) *
         fbr_scale(model, bs);
}

}  // namespace

DurationMs gpu_solo_ms(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  bs = std::clamp(bs, 1, model.max_batch);
  double solo = model.solo_v100_ms * (1.0 / gpu.speed) * batch_scale(model, bs);
  const double fbr = raw_fbr(model, gpu, bs);
  if (fbr > kMaxFbr) {
    // Bandwidth-bound even in isolation: execution stretches until the
    // demanded traffic fits in the device's bandwidth.
    solo *= fbr / kMaxFbr;
  }
  return solo;
}

double gpu_fbr(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  bs = std::clamp(bs, 1, model.max_batch);
  return std::min(kMaxFbr, raw_fbr(model, gpu, bs));
}

double gpu_compute(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  bs = std::clamp(bs, 1, model.max_batch);
  const double frac = static_cast<double>(bs) / model.max_batch;
  const double scale = 0.3 + 0.7 * frac;
  return std::min(kMaxCompute, model.compute_v100 * (1.0 / gpu.speed) * scale);
}

DurationMs cpu_solo_ms(const ModelSpec& model, const hw::CpuSpec& cpu, int bs) {
  bs = std::max(bs, 1);
  const double core_penalty =
      std::pow(kCpuRefVcpus / static_cast<double>(cpu.vcpus), kCpuScalingExponent);
  return kCpuFixedOverheadMs +
         model.cpu_per_item_ms * static_cast<double>(bs) * core_penalty /
             cpu.per_core_speed;
}

ProfileTable::ProfileTable(const hw::Catalog& catalog) : catalog_(&catalog) {}

ProfileEntry ProfileTable::lookup(const ModelSpec& model, hw::NodeType node,
                                  int bs) const {
  const hw::NodeSpec& spec = catalog_->spec(node);
  if (spec.is_gpu()) {
    return ProfileEntry{gpu_solo_ms(model, *spec.gpu, bs),
                        gpu_fbr(model, *spec.gpu, bs),
                        gpu_compute(model, *spec.gpu, bs)};
  }
  return ProfileEntry{cpu_solo_ms(model, spec.cpu, bs), 0.0, 0.0};
}

int ProfileTable::max_batch_within(const ModelSpec& model, hw::NodeType node,
                                   DurationMs budget_ms) const {
  // Isolated latency is monotone non-decreasing in batch size on every GPU
  // and CPU spec: each factor of gpu_solo_ms / cpu_solo_ms is, and IEEE
  // rounding preserves the order. The largest fitting batch is therefore a
  // binary search. The baselines and the CPU latency model ask on every
  // dispatch tick, so only the solo latency is evaluated, not the full
  // lookup.
  const hw::NodeSpec& spec = catalog_->spec(node);
  const auto solo_ms = [&](int bs) {
    return spec.is_gpu() ? gpu_solo_ms(model, *spec.gpu, bs)
                         : cpu_solo_ms(model, spec.cpu, bs);
  };
  int lo = 0;  // the answer lies in [lo, hi]; 0 = nothing fits
  int hi = model.max_batch;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (solo_ms(mid) <= budget_ms) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

Rps ProfileTable::peak_solo_throughput(const ModelSpec& model, hw::NodeType node) const {
  Rps best = 0.0;
  for (int bs = 1; bs <= model.max_batch; bs *= 2) {
    const auto entry = lookup(model, node, bs);
    best = std::max(best, static_cast<double>(bs) / (entry.solo_ms / kMsPerSecond));
  }
  const auto entry = lookup(model, node, model.max_batch);
  best = std::max(best,
                  static_cast<double>(model.max_batch) / (entry.solo_ms / kMsPerSecond));
  return best;
}

}  // namespace paldia::models
