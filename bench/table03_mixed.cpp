// Table III — mixed workloads: 'regular' CPU-bound serverless co-residents
// (SeBS file compression, dynamic HTML generation, image thumbnailing)
// contend with inference serving on every node's host CPU.
//
// Expected shape (paper): cost-effective schemes lose up to ~10 points of
// compliance (direct CPU contention when serving on CPU nodes); Paldia
// holds ~95%; the (P) schemes are barely affected (99.99%) but cost 6.9x.
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Table III: interference from 'regular' serverless co-residents",
      "Molecule(P)/INFless(P) 99.99%, Molecule($) 76.44%, INFless($) 75.83%, "
      "Paldia 94.78%.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options));
  bench::RunObserver observer(options, "table03");
  auto scenario = exp::azure_scenario(models::ModelId::kResNet50,
                                      options.repetitions);
  scenario.coresidents = cluster::sebs_coresidents();

  Table table({"Scheme", "SLO compliance (mixed)", "SLO compliance (clean)",
               "Degradation"});
  auto clean_scenario = exp::azure_scenario(models::ModelId::kResNet50,
                                            options.repetitions);
  for (const auto scheme : exp::main_schemes()) {
    const auto mixed = observer.run(runner, scenario, scheme).combined;
    const auto clean = observer.run(runner, clean_scenario, scheme).combined;
    table.add_row({mixed.scheme, Table::percent(mixed.slo_compliance),
                   Table::percent(clean.slo_compliance),
                   Table::percent(clean.slo_compliance - mixed.slo_compliance)});
  }
  table.print(std::cout);
  return 0;
}
