#include "core/experiment.hpp"

#include <stdexcept>
#include <utility>

#include "lb/hypergraph_partition.hpp"
#include "lb/simple.hpp"
#include "util/timer.hpp"

namespace emc::core {

const std::vector<std::string>& balancer_names() {
  static const std::vector<std::string> names{
      "block", "cyclic", "lpt", "semi-matching", "hypergraph"};
  return names;
}

lb::BalanceResult balance_tasks(const TaskModel& model,
                                const std::string& algorithm, int n_procs,
                                const ExperimentConfig& config) {
  lb::BalanceResult r;
  r.algorithm = algorithm;
  emc::Timer timer;

  if (algorithm == "block") {
    r.assignment = lb::block_assignment(model.task_count(), n_procs);
  } else if (algorithm == "cyclic") {
    r.assignment = lb::cyclic_assignment(model.task_count(), n_procs);
  } else if (algorithm == "lpt") {
    r.assignment = lb::lpt_assignment(model.costs, n_procs);
  } else if (algorithm == "semi-matching") {
    const auto instance =
        make_locality_instance(model, n_procs, config.locality_window);
    return lb::semi_matching_balance(instance);
  } else if (algorithm == "hypergraph") {
    const auto hg = make_task_hypergraph(model);
    return lb::hypergraph_balance(hg, n_procs, config.seed);
  } else {
    throw std::invalid_argument("balance_tasks: unknown algorithm '" +
                                algorithm + "'");
  }
  r.balance_seconds = timer.seconds();
  return r;
}

std::vector<ModelRun> run_all_models(const TaskModel& model,
                                     const ExperimentConfig& config) {
  std::vector<ModelRun> runs;
  const int p = config.machine.n_procs;

  auto add_static = [&](const std::string& balancer) {
    lb::BalanceResult b = balance_tasks(model, balancer, p, config);
    ModelRun run;
    run.name = "static-" + balancer;
    run.balance_seconds = b.balance_seconds;
    run.sim = sim::simulate_static(config.machine, model.costs, b.assignment);
    run.assignment = std::move(b.assignment);
    runs.push_back(std::move(run));
  };

  add_static("block");
  add_static("lpt");
  add_static("semi-matching");
  add_static("hypergraph");

  {
    ModelRun run;
    run.name = "counter";
    run.sim =
        sim::simulate_counter(config.machine, model.costs, config.counter_chunk);
    runs.push_back(std::move(run));
  }
  {
    ModelRun run;
    run.name = "work-stealing";
    const auto initial = lb::block_assignment(model.task_count(), p);
    run.sim = sim::simulate_work_stealing(config.machine, model.costs,
                                          initial, config.steal);
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace emc::core
