// EXP-9 — retentive work stealing over SCF iterations: the iterative
// kernel repeats the same task list every SCF cycle, so seeding each
// iteration with the previous iteration's final placement amortizes the
// balancing work. Compare per-iteration steals and makespan against
// independent (non-retentive) work stealing.

#include <iostream>

#include "bench_common.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace emc;

  const core::TaskModel model = bench::standard_workload();
  bench::print_header(
      "EXP-9: retentive work stealing across SCF iterations (P = 256)",
      "retention drives steal traffic toward zero across iterations",
      model);

  sim::MachineConfig machine = emc::bench::make_machine(256);
  const auto block = lb::block_assignment(model.task_count(), 256);
  const int iterations = 10;

  const auto retentive =
      sim::simulate_retentive(machine, model.costs, block, iterations);

  // Persistence-based inspector-executor alternative, simulated with a
  // free rebalance so every column replays exactly. The LPT balancer's
  // host wall time on this instance is reported beside it, not mixed in.
  const auto persistence =
      sim::simulate_persistence(machine, model.costs, block, iterations);
  emc::Timer lpt_timer;
  (void)lb::lpt_assignment(model.costs, machine.n_procs);
  const double lpt_seconds = lpt_timer.seconds();

  Table table({"iteration", "retentive_ms", "retentive_steals",
               "plain_ms", "plain_steals", "persistence_ms"});
  table.set_precision(3);
  double retentive_total = 0.0, plain_total = 0.0, persist_total = 0.0;
  for (int i = 0; i < iterations; ++i) {
    // "Plain" restarts from the block distribution every iteration (only
    // the victim-selection seed varies).
    sim::StealOptions options;
    options.seed = 7 + static_cast<std::uint64_t>(i);
    const sim::SimResult plain =
        sim::simulate_work_stealing(machine, model.costs, block, options);
    const auto& ret = retentive[static_cast<std::size_t>(i)];
    const auto& per = persistence[static_cast<std::size_t>(i)];
    retentive_total += ret.makespan;
    plain_total += plain.makespan;
    persist_total += per.makespan;
    table.add_row({static_cast<std::int64_t>(i + 1), ret.makespan * 1e3,
                   ret.steals, plain.makespan * 1e3, plain.steals,
                   per.makespan * 1e3});
  }
  table.print(std::cout, "per-iteration comparison");
  std::cout << "\ncumulative makespan over " << iterations
            << " iterations:\n  retentive stealing " << retentive_total * 1e3
            << " ms\n  plain stealing     " << plain_total * 1e3
            << " ms\n  persistence (LPT)  " << persist_total * 1e3
            << " ms (rebalance simulated free)\n"
            << "host-timed LPT rebalance (not simulated): " << lpt_seconds * 1e3
            << " ms per round\n";
  return 0;
}
