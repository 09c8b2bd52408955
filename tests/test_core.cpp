// Core task-model and experiment-framework tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "lb/partition.hpp"

namespace {

using namespace emc::core;

TEST(TaskModelTest, BuildsForNamedMolecules) {
  const TaskModel model = build_task_model("water");
  const auto ns = static_cast<std::size_t>(model.shell_count());
  EXPECT_EQ(ns, 5u);
  EXPECT_EQ(model.task_count(), ns * (ns + 1) / 2);
  EXPECT_EQ(model.costs.size(), model.task_count());
  EXPECT_GT(model.total_cost(), 0.0);
}

TEST(TaskModelTest, ShellAtomMapIsConsistent) {
  const TaskModel model = build_task_model("water2");
  ASSERT_EQ(model.shell_atom.size(),
            static_cast<std::size_t>(model.basis.shell_count()));
  for (std::size_t s = 0; s < model.shell_atom.size(); ++s) {
    EXPECT_EQ(model.shell_atom[s], model.basis.shells()[s].atom_index);
    EXPECT_GE(model.shell_atom[s], 0);
    EXPECT_LT(model.shell_atom[s],
              static_cast<int>(model.molecule.size()));
  }
}

TEST(TaskModelTest, AnalyticCostsAreHeterogeneous) {
  const TaskModel model = build_task_model("water2");
  const double min = *std::min_element(model.costs.begin(),
                                       model.costs.end());
  const double max = *std::max_element(model.costs.begin(),
                                       model.costs.end());
  EXPECT_GT(max, 10.0 * min);
}

TEST(TaskModelTest, MeasuredCostsArePositive) {
  TaskModelOptions options;
  options.measure_costs = true;
  const TaskModel model = build_task_model("water", options);
  for (double c : model.costs) {
    EXPECT_GT(c, 0.0);
  }
}

TEST(TaskModelTest, MeasuredAndAnalyticCostsCorrelate) {
  TaskModelOptions measured_opts;
  measured_opts.measure_costs = true;
  const TaskModel measured = build_task_model("water2", measured_opts);
  const TaskModel analytic = build_task_model("water2");
  ASSERT_EQ(measured.costs.size(), analytic.costs.size());

  // Spearman-free check: Pearson correlation of the two cost vectors
  // should be strongly positive — the analytic model is a usable proxy.
  const auto n = static_cast<double>(measured.costs.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < measured.costs.size(); ++i) {
    ma += measured.costs[i];
    mb += analytic.costs[i];
  }
  ma /= n;
  mb /= n;
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < measured.costs.size(); ++i) {
    const double xa = measured.costs[i] - ma;
    const double xb = analytic.costs[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  const double r = num / std::sqrt(da * db);
  EXPECT_GT(r, 0.7);
}

TEST(ShellOwnerTest, BlockDistributionProperties) {
  const int n_shells = 37, n_procs = 8;
  int prev = 0;
  std::set<int> owners;
  for (int s = 0; s < n_shells; ++s) {
    const int o = shell_owner(s, n_shells, n_procs);
    EXPECT_GE(o, prev);  // monotone
    EXPECT_GE(o, 0);
    EXPECT_LT(o, n_procs);
    owners.insert(o);
    prev = o;
  }
  EXPECT_EQ(owners.size(), static_cast<std::size_t>(n_procs));
  EXPECT_THROW(shell_owner(-1, n_shells, n_procs), std::out_of_range);
  EXPECT_THROW(shell_owner(n_shells, n_shells, n_procs), std::out_of_range);
}

TEST(LocalityInstanceTest, EligibilityIncludesOwners) {
  const TaskModel model = build_task_model("water2");
  const int n_procs = 6;
  const auto g = make_locality_instance(model, n_procs, /*window=*/1);
  g.validate();
  ASSERT_EQ(g.task_count(), model.task_count());
  EXPECT_EQ(g.weights, model.costs);

  const int ns = model.shell_count();
  for (std::size_t t = 0; t < model.task_count(); ++t) {
    const int oi = shell_owner(model.tasks[t].si, ns, n_procs);
    const int oj = shell_owner(model.tasks[t].sj, ns, n_procs);
    EXPECT_NE(std::find(g.eligible[t].begin(), g.eligible[t].end(), oi),
              g.eligible[t].end());
    EXPECT_NE(std::find(g.eligible[t].begin(), g.eligible[t].end(), oj),
              g.eligible[t].end());
    // Window 1 on two shells: at most 6 distinct procs.
    EXPECT_LE(g.eligible[t].size(), 6u);
  }
}

TEST(LocalityInstanceTest, HugeWindowIsComplete) {
  const TaskModel model = build_task_model("water");
  const int n_procs = 4;
  const auto g = make_locality_instance(model, n_procs, n_procs);
  for (const auto& e : g.eligible) {
    EXPECT_EQ(e.size(), static_cast<std::size_t>(n_procs));
  }
}

TEST(TaskHypergraphTest, StructureMatchesBraPairs) {
  const TaskModel model = build_task_model("water");
  const auto h = make_task_hypergraph(model);
  EXPECT_EQ(h.vertex_count(),
            static_cast<emc::graph::VertexId>(model.task_count()));
  // Nets = shells (every shell appears in >= 2 bra pairs here).
  EXPECT_EQ(h.net_count(), model.shell_count());
  // Vertex weights are the task costs.
  for (std::size_t t = 0; t < model.task_count(); ++t) {
    EXPECT_DOUBLE_EQ(h.vertex_weight(static_cast<emc::graph::VertexId>(t)),
                     model.costs[t]);
  }
  // Task (i,j) must be pinned by <= 2 nets.
  for (std::size_t t = 0; t < model.task_count(); ++t) {
    const auto nets = h.nets_of(static_cast<emc::graph::VertexId>(t));
    EXPECT_GE(nets.size(), 1u);
    EXPECT_LE(nets.size(), 2u);
  }
}

TEST(BalanceTasksTest, AllAlgorithmsProduceValidAssignments) {
  const TaskModel model = build_task_model("water2");
  const int n_procs = 8;
  for (const std::string& algo : balancer_names()) {
    const auto r = balance_tasks(model, algo, n_procs);
    EXPECT_EQ(r.algorithm, algo);
    EXPECT_EQ(r.assignment.size(), model.task_count()) << algo;
    emc::lb::validate_assignment(r.assignment, n_procs);
  }
  EXPECT_THROW(balance_tasks(model, "magic", n_procs),
               std::invalid_argument);
}

TEST(BalanceTasksTest, SmartBalancersBeatBlock) {
  const TaskModel model = build_task_model("water3");
  const int n_procs = 8;
  const double block_ms = emc::lb::makespan(
      model.costs, balance_tasks(model, "block", n_procs).assignment,
      n_procs);
  for (const char* algo : {"lpt", "semi-matching", "hypergraph"}) {
    const double ms = emc::lb::makespan(
        model.costs, balance_tasks(model, algo, n_procs).assignment,
        n_procs);
    EXPECT_LT(ms, block_ms) << algo;
  }
}

TEST(RunAllModelsTest, ProducesFullLineup) {
  const TaskModel model = build_task_model("water2");
  ExperimentConfig config;
  config.machine.n_procs = 16;
  const auto runs = run_all_models(model, config);
  ASSERT_EQ(runs.size(), 6u);

  std::set<std::string> names;
  for (const auto& run : runs) {
    names.insert(run.name);
    // Everything executed: total tasks = task count.
    std::int64_t total = 0;
    for (auto t : run.sim.tasks_executed) total += t;
    EXPECT_EQ(total, static_cast<std::int64_t>(model.task_count()))
        << run.name;
    EXPECT_GT(run.sim.makespan, 0.0) << run.name;
  }
  EXPECT_TRUE(names.count("static-block"));
  EXPECT_TRUE(names.count("work-stealing"));
  EXPECT_TRUE(names.count("counter"));
}

TEST(RunAllModelsTest, StaticRunsKeepTheirBalancerAssignment) {
  const TaskModel model = build_task_model("water2");
  ExperimentConfig config;
  config.machine.n_procs = 16;
  for (const auto& run : run_all_models(model, config)) {
    if (run.name.rfind("static-", 0) != 0) {
      EXPECT_TRUE(run.assignment.empty()) << run.name;
      continue;
    }
    const std::string algo = run.name.substr(7);
    EXPECT_EQ(run.assignment, balance_tasks(model, algo, 16, config).assignment)
        << run.name;
  }
}

TEST(RunAllModelsTest, DynamicModelsBeatStaticBlock) {
  // The abstract's headline: work stealing substantially outperforms
  // naive static scheduling on the heterogeneous Fock task set.
  const TaskModel model = build_task_model("water3");
  ExperimentConfig config;
  config.machine.n_procs = 32;
  const auto runs = run_all_models(model, config);

  double static_block = 0.0, stealing = 0.0;
  for (const auto& run : runs) {
    if (run.name == "static-block") static_block = run.sim.makespan;
    if (run.name == "work-stealing") stealing = run.sim.makespan;
  }
  ASSERT_GT(static_block, 0.0);
  ASSERT_GT(stealing, 0.0);
  EXPECT_LT(stealing, static_block);
}

}  // namespace
