#pragma once

// High-level experiment drivers shared by benches and examples: run a
// task model under every execution model / balancer combination on the
// simulated cluster and report comparable rows.

#include <string>
#include <vector>

#include "core/task_model.hpp"
#include "sim/machine.hpp"
#include "sim/simulators.hpp"

namespace emc::core {

struct ExperimentConfig {
  sim::MachineConfig machine;
  std::int64_t counter_chunk = 4;
  sim::StealOptions steal;
  int locality_window = 1;   ///< semi-matching eligibility radius
  std::uint64_t seed = 1;
};

/// Produces a static assignment of the model's tasks with the named
/// balancer: "block", "cyclic", "lpt", "semi-matching", or "hypergraph".
/// Throws std::invalid_argument for unknown names.
lb::BalanceResult balance_tasks(const TaskModel& model,
                                const std::string& algorithm, int n_procs,
                                const ExperimentConfig& config = {});

/// Names of all balancers balance_tasks accepts.
const std::vector<std::string>& balancer_names();

struct ModelRun {
  std::string name;              ///< execution-model label
  sim::SimResult sim;
  double balance_seconds = 0.0;  ///< inspector/balancer cost, if any
  lb::Assignment assignment;     ///< static models' task map; empty if dynamic
};

/// Runs the standard execution-model lineup on the simulated machine:
/// static-block, static-lpt, static-semimatch, static-hypergraph,
/// counter(chunk), work-stealing (seeded from block).
std::vector<ModelRun> run_all_models(const TaskModel& model,
                                     const ExperimentConfig& config);

}  // namespace emc::core
