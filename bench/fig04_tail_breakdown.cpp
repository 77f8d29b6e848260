// Figure 4 — breakdown of tail (P99) latencies for ResNet 50 and VGG 19
// under the Azure trace: min possible time, queueing and interference
// components per scheme.
//
// Expected shape (paper): INFless/Llama ($) tail dominated by interference
// (76% for ResNet 50); Molecule ($) by queueing (up to 84% for VGG 19);
// Paldia's total overhead ~59% below Molecule ($)'s, with tail within the
// SLO; (P) schemes under 100 ms.
#include "bench/bench_common.hpp"
#include "src/exp/summary.hpp"

using namespace paldia;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 4: P99 latency breakdown (ResNet 50, VGG 19; Azure trace)",
      "($) schemes' tails dominated by interference (INFless) or queueing "
      "(Molecule); Paldia's P99 within the 200 ms SLO.");

  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options));
  bench::RunObserver observer(options, "fig04");
  for (const auto model : {models::ModelId::kResNet50, models::ModelId::kVgg19}) {
    auto scenario = exp::azure_scenario(model, options.repetitions);
    std::cout << "--- " << models::model_id_name(model) << " ---\n";
    Table table({"Scheme", "P99", "Min possible", "Queueing", "Interference",
                 "Cold start", "Queue share", "Intf share"});
    exp::RunResult paldia_result;
    for (const auto scheme : exp::main_schemes()) {
      const auto result = observer.run(runner, scenario, scheme);
      const auto& metrics = result.combined;
      const auto& breakdown = metrics.p99_breakdown;
      const double total = std::max(1e-9, breakdown.latency_ms);
      table.add_row({metrics.scheme, bench::ms(metrics.p99_latency_ms),
                     bench::ms(breakdown.solo_ms), bench::ms(breakdown.queue_ms),
                     bench::ms(breakdown.interference_ms),
                     bench::ms(breakdown.cold_start_ms),
                     Table::percent(breakdown.queue_ms / total),
                     Table::percent(breakdown.interference_ms / total)});
      if (scheme == exp::SchemeId::kPaldia) paldia_result = result;
    }
    table.print(std::cout);
    std::cout << "\nPaldia attribution:\n";
    exp::print_compliance_summary(std::cout, paldia_result);
    std::cout << "\n";
  }
  return 0;
}
