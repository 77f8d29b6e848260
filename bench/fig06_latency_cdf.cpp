// Figure 6 — CDF of end-to-end latencies for all schemes, SENet 18,
// Azure trace.
//
// Expected shape (paper): Paldia stays within the SLO through P99; the ($)
// schemes cross the SLO around P80 already; the (P) schemes sit far left
// at 6.9x the cost.
#include "bench/bench_common.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 6: end-to-end latency CDF (SENet 18, Azure trace)",
      "Paldia within the 200 ms SLO until P99; ($) schemes exceed it from "
      "~P80; (P) schemes well inside at much higher cost.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options));
  bench::RunObserver observer(options, "fig06");
  auto scenario = exp::azure_scenario(models::ModelId::kSeNet18,
                                      options.repetitions);

  Table table({"Scheme", "P50", "P80", "P90", "P95", "P99", "SLO met at"});
  std::cout << "CDF series (percentile -> ms); full series in CSV below.\n\n";
  std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>> series;
  for (const auto scheme : exp::main_schemes()) {
    const auto result = observer.run(runner, scenario, scheme, /*keep_cdf=*/true);
    const auto& cdf = result.per_workload[0].latency_cdf;
    series.emplace_back(result.combined.scheme, cdf);
    auto value_at = [&](double q) {
      for (const auto& [value, fraction] : cdf) {
        if (fraction >= q) return value;
      }
      return cdf.empty() ? 0.0 : cdf.back().first;
    };
    // Highest percentile still within the SLO.
    double slo_met_at = 0.0;
    for (const auto& [value, fraction] : cdf) {
      if (value <= 200.0) slo_met_at = fraction;
    }
    table.add_row({result.combined.scheme, bench::ms(value_at(0.50)),
                   bench::ms(value_at(0.80)), bench::ms(value_at(0.90)),
                   bench::ms(value_at(0.95)), bench::ms(value_at(0.99)),
                   Table::percent(slo_met_at)});
  }
  table.print(std::cout);

  std::cout << "\nCSV: scheme,latency_ms,cumulative_fraction\n";
  for (const auto& [name, cdf] : series) {
    // Downsample to ~40 points per scheme for readable output.
    const std::size_t stride = std::max<std::size_t>(1, cdf.size() / 40);
    for (std::size_t i = 0; i < cdf.size(); i += stride) {
      std::printf("%s,%.2f,%.5f\n", name.c_str(), cdf[i].first, cdf[i].second);
    }
  }
  return 0;
}
