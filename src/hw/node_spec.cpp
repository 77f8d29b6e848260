#include "src/hw/node_spec.hpp"

namespace paldia::hw {

std::string NodeSpec::display_name() const {
  if (gpu.has_value()) return gpu->name;
  return cpu.name + " x" + std::to_string(cpu.vcpus);
}

}  // namespace paldia::hw
