// Figure 7 — (a) goodput during the periods of highest request traffic for
// DenseNet 121 and (b) normalized average power consumption for Simplified
// DLA, Azure trace.
//
// Expected shape (paper): Paldia within ~5% of the ideal goodput while
// INFless/Llama ($) and Molecule ($) serve only 27% / 34% of the incoming
// surge within the SLO; Paldia consumes ~45% less power than the (P)
// schemes and only ~4% more than the ($) schemes.
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 7: goodput during surges (DenseNet 121) and power (Simplified DLA)",
      "Paldia within ~5% of ideal goodput (vs 27%/34% for the $ schemes); "
      "~45% less power than the (P) schemes.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options));
  bench::RunObserver observer(options, "fig07");

  {
    auto scenario = exp::azure_scenario(models::ModelId::kDenseNet121,
                                        options.repetitions);
    std::cout << "--- (a) Goodput during the busiest window, DenseNet 121 ---\n";
    Table table({"Scheme", "Offered (rps)", "Goodput (rps)", "Fraction of ideal"});
    for (const auto scheme : exp::main_schemes()) {
      const auto metrics = observer.run(runner, scenario, scheme).combined;
      const double fraction =
          metrics.offered_rps > 0 ? metrics.goodput_rps / metrics.offered_rps : 0.0;
      table.add_row({metrics.scheme, Table::num(metrics.offered_rps, 1),
                     Table::num(metrics.goodput_rps, 1), Table::percent(fraction)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  {
    auto scenario = exp::azure_scenario(models::ModelId::kSimplifiedDla,
                                        options.repetitions);
    std::cout << "--- (b) Average power, Simplified DLA ---\n";
    const auto rows = bench::run_schemes(runner, scenario, exp::main_schemes(),
                                         observer, /*keep_cdf=*/false,
                                         &bench::shared_pool(options));
    double max_power = 0.0;
    for (const auto& row : rows) max_power = std::max(max_power, row.average_power);
    Table table({"Scheme", "Avg power (W)", "Normalized"});
    for (const auto& row : rows) {
      table.add_row({row.scheme, Table::num(row.average_power, 1),
                     Table::num(row.average_power / max_power, 3)});
    }
    table.print(std::cout);
  }
  return 0;
}
