// Ablations of Paldia's design choices (Section IV claims):
//  1. Delayed termination + batching cut cold starts "by up to 98%" vs.
//     immediately scaling down.
//  2. The hysteresis wait limit suppresses thrashing without hurting
//     compliance.
//  3. The choose_best_HW 50 ms performance band trades pennies for tail
//     latency.
//  4. The scheduler's beta (superlinear contention) term: beta = 0 (the
//     literal Eq. 1) degenerates to all-spatial scheduling and loses
//     compliance under saturation.
#include "bench/bench_common.hpp"
#include "src/trace/generators.hpp"

using namespace paldia;

namespace {

telemetry::RunMetrics run_paldia(const exp::Scenario& scenario,
                                 const exp::SchemeFactoryOptions& factory_options,
                                 const bench::BenchOptions& options,
                                 bench::RunObserver& observer) {
  exp::Runner runner(models::Zoo::instance(), hw::Catalog::instance(),
                     &bench::shared_pool(options), factory_options);
  return observer.run(runner, scenario, exp::SchemeId::kPaldia).combined;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablations: keep-alive, hysteresis, performance band, scheduler beta",
      "Section IV: delayed termination cuts cold starts by up to 98%; the "
      "beta term is what makes the hybrid split non-trivial.");

  auto scenario = exp::azure_scenario(models::ModelId::kResNet50,
                                      options.repetitions);
  bench::RunObserver observer(options, "ablation_design");

  {
    std::cout << "--- 1. Delayed termination (keep-alive) ---\n";
    Table table({"Keep-alive", "Cold starts", "SLO compliance"});
    for (const DurationMs keep_alive : {0.0, seconds(30), minutes(10)}) {
      exp::Scenario local = scenario;
      local.framework.autoscaler.keep_alive_ms = keep_alive;
      local.framework.autoscaler.min_containers = keep_alive == 0.0 ? 0 : 1;
      const auto metrics = run_paldia(local, {}, options, observer);
      table.add_row({Table::num(keep_alive / 1000.0, 0) + " s",
                     std::to_string(metrics.cold_starts),
                     Table::percent(metrics.slo_compliance)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  {
    std::cout << "--- 2. Scheduler contention coefficient (beta) ---\n";
    exp::Scenario exhaustion;
    exhaustion.name = "exhaustion";
    exhaustion.repetitions = options.repetitions;
    trace::PoissonOptions poisson;
    poisson.mean_rps = 700.0;
    poisson.duration_ms = minutes(4);
    exhaustion.workloads.push_back(exp::WorkloadSpec{
        models::ModelId::kGoogleNet, trace::make_poisson_trace(poisson)});
    exhaustion.framework.initial_node = hw::NodeType::kP3_2xlarge;
    Table table({"beta", "SLO compliance", "P99"});
    for (const double beta : {0.0, 0.1, 0.2, 0.35}) {
      exp::SchemeFactoryOptions factory_options;
      factory_options.paldia.tmax_beta = beta;
      const auto metrics = run_paldia(exhaustion, factory_options, options, observer);
      table.add_row({Table::num(beta, 2), Table::percent(metrics.slo_compliance),
                     bench::ms(metrics.p99_latency_ms)});
    }
    table.print(std::cout);
    std::cout << "(beta = 0 is the literal Eq. 1: monotone in y, so the split "
                 "degenerates to all-spatial)\n\n";
  }

  {
    std::cout << "--- 3. choose_best_HW performance band ---\n";
    Table table({"Band (ms)", "SLO compliance", "Cost"});
    for (const double band : {0.0, 50.0, 200.0}) {
      exp::SchemeFactoryOptions factory_options;
      factory_options.paldia.selection.performance_band_ms = band;
      const auto metrics = run_paldia(scenario, factory_options, options, observer);
      table.add_row({Table::num(band, 0), Table::percent(metrics.slo_compliance),
                     bench::dollars(metrics.cost)});
    }
    table.print(std::cout);
  }
  return 0;
}
