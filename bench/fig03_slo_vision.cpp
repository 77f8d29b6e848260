// Figure 3 — SLO compliance of all schemes for all 12 vision models under
// the Azure serverless trace (peak 225 rps for high-FBR models, 450 rps
// for the rest; SLO 200 ms).
//
// Expected shape (paper): Paldia within ~0.8% of the (P) schemes
// (99.99% avg) and up to ~13.3% above the ($) schemes; INFless/Llama ($)
// suffers interference (e.g. 89.43% on ResNet 50), Molecule ($) queueing
// (e.g. 95.11% on VGG 19).
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 3: SLO compliance, all vision models x all schemes (Azure trace)",
      "Paldia ~99.5%+, within 0.8% of the (P) schemes; up to 13.3% above the "
      "($) schemes.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options));
  bench::RunObserver observer(options, "fig03");
  const auto schemes = exp::main_schemes();

  std::vector<std::string> columns = {"Model"};
  for (const auto scheme : schemes) columns.push_back(exp::scheme_name(scheme));
  Table table(columns);

  std::vector<double> sums(schemes.size(), 0.0);
  const auto vision = models::Zoo::instance().vision_models();
  for (const auto model : vision) {
    auto scenario = exp::azure_scenario(model, options.repetitions);
    std::vector<std::string> row = {std::string(models::model_id_name(model))};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const auto result = observer.run(runner, scenario, schemes[s]);
      row.push_back(Table::percent(result.combined.slo_compliance));
      sums[s] += result.combined.slo_compliance;
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> average = {"AVERAGE"};
  for (double sum : sums) {
    average.push_back(Table::percent(sum / static_cast<double>(vision.size())));
  }
  table.add_row(std::move(average));
  table.print(std::cout);
  return 0;
}
