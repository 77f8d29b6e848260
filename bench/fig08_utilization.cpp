// Figure 8 — compute node utilization (non-idle time) of all schemes for
// VGG 19, Azure trace.
//
// Expected shape (paper): INFless/Llama ($) highest GPU utilization (~99%),
// Molecule ($) ~90%, Paldia between them (~94%); the (P) schemes far lower
// (their V100 is underutilized); CPU utilization ~72% for the schemes that
// serve low traffic on CPU nodes.
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 8: node utilization (VGG 19, Azure trace)",
      "GPU util: INFless ($) ~99% > Paldia ~94% > Molecule ($) ~90% >> (P) "
      "schemes; CPU util ~72% for cost-effective schemes.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options));
  bench::RunObserver observer(options, "fig08");
  auto scenario = exp::azure_scenario(models::ModelId::kVgg19, options.repetitions);

  Table table({"Scheme", "GPU node util", "CPU node util"});
  for (const auto scheme : exp::main_schemes()) {
    const auto metrics = observer.run(runner, scenario, scheme).combined;
    const bool uses_cpu = metrics.cpu_utilization > 0.0;
    table.add_row({metrics.scheme, Table::percent(metrics.gpu_utilization),
                   uses_cpu ? Table::percent(metrics.cpu_utilization)
                            : std::string("n/a")});
  }
  table.print(std::cout);
  return 0;
}
