// Hardware descriptions of worker-node types (the default catalog holds the
// six of the paper's cluster, Table II), plus the per-device parameters the
// simulated devices and the performance model consume.
//
// GPU compute capability is expressed as `speed` relative to the V100
// (solo batch time on GPU g = solo time on V100 * v100.speed / g.speed) and
// memory bandwidth in GB/s, which sets each model's Fractional Bandwidth
// Requirement (FBR) on that GPU. The numbers are calibrated from public
// datasheets: V100 900 GB/s / 15.7 TFLOPS, M60 160 GB/s (per die), K80
// 240 GB/s (per die) — exactness is irrelevant, only the ordering and rough
// ratios drive the scheduling decisions (see DESIGN.md section 2).
#pragma once

#include <optional>
#include <string>

#include "src/common/units.hpp"

namespace paldia::hw {

enum class DeviceKind { kCpu, kGpu };

/// GPU microarchitecture parameters that matter to the simulation.
struct GpuSpec {
  std::string name;              // e.g. "V100"
  double speed = 1.0;            // compute throughput relative to V100
  double mem_bandwidth_gbps = 0; // global memory bandwidth
  Bytes memory = 0;              // device memory
  int sm_count = 0;              // streaming multiprocessors (MPS partitions)
  Watts idle_power = 0;
  Watts peak_power = 0;
};

/// CPU parameters (host processors double as inference devices on CPU-only
/// nodes, via the ML framework's batched CPU mode).
struct CpuSpec {
  std::string name;       // e.g. "Intel IceLake"
  int vcpus = 0;
  double per_core_speed = 1.0;  // single-thread throughput relative to IceLake
  Watts idle_power = 0;
  Watts peak_power = 0;
};

/// One node (instance) type. The default catalog holds the six Table II
/// rows; generated catalogs (catalog_gen.hpp) add fleet-scale variety.
struct NodeSpec {
  std::string instance;  // AWS instance name, e.g. "p3.2xlarge"
  DeviceKind kind = DeviceKind::kCpu;
  Dollars price_per_hour = 0;
  CpuSpec cpu;                   // host CPU (always present)
  std::optional<GpuSpec> gpu;    // present iff kind == kGpu
  std::string family;            // architecture family, e.g. "nvidia-volta"

  /// Display name used in figures: the primary compute device.
  std::string display_name() const;

  bool is_gpu() const { return kind == DeviceKind::kGpu; }
};

/// Stable identifier of a node type: an index into the owning Catalog, not a
/// closed enumeration. The named constants are the indices of the six
/// Table II rows in the *default* catalog; other catalogs are addressed via
/// make_node_type(). How many node types exist and what they are called is
/// the catalog's to say (Catalog::size(), Catalog::name()); per-node storage
/// is sized from it.
enum class NodeType : int {
  kP3_2xlarge = 0,   // NVIDIA V100
  kP2_xlarge = 1,    // NVIDIA K80
  kG3s_xlarge = 2,   // NVIDIA M60
  kC6i_4xlarge = 3,  // IceLake 16 vCPU
  kC6i_2xlarge = 4,  // IceLake 8 vCPU
  kM4_xlarge = 5,    // Broadwell 2 vCPU
};

constexpr NodeType make_node_type(int index) { return static_cast<NodeType>(index); }
constexpr int node_index(NodeType type) { return static_cast<int>(type); }

}  // namespace paldia::hw
