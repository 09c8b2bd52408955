// bench_paper [--smoke] [--report=PATH] [EXP...] — the paper's EXP-1..10
// (DESIGN.md) as one table of specs over the water27 workload, built once.
// EXP-2/3/4/5 share one per-P sweep, so each (balancer, P) partition runs
// once. EXP selects experiments (`2`, `EXP-2b`; default all). --smoke runs
// the gated ones, EXP-2/4/5 at P in {16, 64}. Gates (exit 1 on violation):
// EXP-2 static-block/stealing makespan >= 1.5; EXP-4 semi-matching
// imbalance <= 1.05 x hypergraph's; EXP-5 hypergraph/semi-matching balance
// time >= 100; EXP-6 both minima strictly inside the grain sweep; EXP-7
// static degradation non-decreasing in noise and >= stealing's. The report
// (default BENCH_paper.json) keeps simulated times under exactly gated keys
// (`makespan_s`), host-timed ones under noisy keys (`_ms`, `wall_ratio`).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "graph/hypergraph.hpp"
#include "lb/partition.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;
using I = std::int64_t;

const std::vector<int> kSmokeProcs{16, 64};

struct Gate {
  std::string name;
  int procs = 0;
  double value = 0.0;
  std::string rule;
  bool ok = false;
  bool host_timed = false;  ///< reported as `wall_ratio`, a noisy key
};

/// One P of the shared sweep: the six-model lineup (static runs keep
/// their balancer's assignment) plus the cyclic balancer EXP-4 lists.
struct SweepPoint {
  std::vector<core::ModelRun> runs;
  core::ModelRun cyclic;

  const core::ModelRun& run(const std::string& name) const {
    for (const auto& r : runs) {
      if (r.name == name) return r;
    }
    throw std::logic_error("no model run " + name);
  }
  /// The static run of balancer `algo` (a core::balancer_names() entry).
  const core::ModelRun& balanced(const std::string& algo) const {
    return algo == "cyclic" ? cyclic : run("static-" + algo);
  }
};

struct Context {
  bool smoke = false;
  core::TaskModel model = bench::standard_workload();
  std::map<int, SweepPoint> sweep;
  std::vector<Gate> gates;
  util::JsonWriter* json = nullptr;

  SweepPoint point(int p) const {
    core::ExperimentConfig config;
    config.machine.n_procs = p;
    lb::BalanceResult cyclic = core::balance_tasks(model, "cyclic", p, config);
    return {core::run_all_models(model, config),
            {"static-cyclic", {}, cyclic.balance_seconds,
             std::move(cyclic.assignment)}};
  }

  const SweepPoint& at(int p) {
    // Under --smoke the two sweep points partition concurrently, so
    // their ~1.3 s hypergraph calls overlap.
    if (smoke && sweep.empty() && p == kSmokeProcs[0]) {
      auto second = std::async(std::launch::async,
                               [this] { return point(kSmokeProcs[1]); });
      sweep.emplace(kSmokeProcs[0], point(kSmokeProcs[0]));
      sweep.emplace(kSmokeProcs[1], second.get());
    }
    if (!sweep.count(p)) sweep.emplace(p, point(p));
    return sweep.at(p);
  }

  /// Appends one report cell (a JSON object) to the experiment's array.
  void cell(std::initializer_list<std::pair<const char*, Cell>> fields) {
    json->begin_object();
    for (const auto& [key, value] : fields) {
      std::visit([&, key = key](const auto& v) { json->field(key, v); },
                 value);
    }
    json->end_object();
  }
};

struct Spec {
  const char* id;  ///< selector: "1", "2b", ...
  const char* title;
  const char* claim;
  bool gated;       ///< runs under --smoke
  bool own_header;  ///< body prints its header (else: water27's)
  void (*body)(Context&, const Spec&);
};

void exp1(Context& ctx, const Spec& spec) {
  Table table({"workload", "tasks", "min_cost", "p50", "p90", "p99",
               "max_cost", "max/min", "cv"});
  table.set_precision(3);
  const std::vector<std::string> workloads{"water4", "water8", "water16",
                                           "alkane8", "alkane16"};
  core::TaskModel last;
  for (const std::string& name : workloads) {
    last = bench::standard_workload(name);
    const Summary s = summarize(last.costs);
    table.add_row({name, static_cast<I>(last.task_count()), s.min * 1e6,
                   s.p50 * 1e6, s.p90 * 1e6, s.p99 * 1e6, s.max * 1e6,
                   s.min > 0.0 ? s.max / s.min : 0.0, s.cv()});
    ctx.cell({{"workload", name}, {"tasks", static_cast<I>(last.task_count())},
              {"min_cost_s", s.min}, {"p50_cost_s", s.p50},
              {"max_cost_s", s.max}, {"cv", s.cv()}});
  }
  bench::print_header(spec.title, spec.claim, last);
  std::cout << "(costs in simulated microseconds)\n";
  table.print(std::cout, "task cost distributions");

  // Log10-cost histogram for the largest workload.
  std::vector<double> logs;
  for (double c : last.costs) {
    if (c > 0.0) logs.push_back(std::log10(c));
  }
  const Summary ls = summarize(logs);
  Histogram h(ls.min, ls.max + 1e-9, 12);
  h.add_all(logs);
  std::cout << "\nlog10(task cost) histogram, " << workloads.back() << ":\n"
            << h.render(48);
}

void exp2(Context& ctx, const Spec&) {
  const double serial = ctx.model.total_cost();
  Table table({"procs", "model", "makespan_ms", "speedup", "efficiency",
               "vs_static_block"});
  table.set_precision(3);
  Table summary({"procs", "static_block_ms", "work_stealing_ms",
                 "improvement_pct"});
  summary.set_precision(1);
  const std::vector<int> full{16, 32, 64, 128, 256, 512, 1024};
  for (int p : ctx.smoke ? kSmokeProcs : full) {
    const SweepPoint& point = ctx.at(p);
    const double block = point.run("static-block").sim.makespan;
    const double stealing = point.run("work-stealing").sim.makespan;
    for (const auto& run : point.runs) {
      const double makespan = run.sim.makespan;
      table.add_row({I{p}, run.name, makespan * 1e3, serial / makespan,
                     serial / makespan / p, block / makespan});
      ctx.cell({{"procs", I{p}}, {"model", run.name}, {"makespan_s", makespan},
                {"utilization", run.sim.utilization()}});
    }
    summary.add_row({I{p}, block * 1e3, stealing * 1e3,
                     (block / stealing - 1.0) * 100.0});
    ctx.gates.push_back({"EXP-2 static-block/work-stealing makespan", p,
                         block / stealing, ">= 1.5", block / stealing >= 1.5});
  }
  table.print(std::cout, "per-model results");
  std::cout << "\n";
  summary.print(std::cout,
                "work stealing vs static-block (paper: ~50% improvement)");
}

void exp2b(Context& ctx, const Spec& spec) {
  std::cout << "##############################################\n"
            << "# " << spec.title << "\n# claim: " << spec.claim << "\n"
            << "##############################################\n";
  Table table({"procs", "waters", "tasks", "work_s", "static_lpt_ms",
               "counter_ms", "stealing_ms", "stealing_efficiency"});
  table.set_precision(3);
  for (int p : {16, 32, 64, 128, 256}) {
    const int waters = p / 8;
    const core::TaskModel model =
        core::build_task_model("water" + std::to_string(waters));
    const sim::MachineConfig machine = bench::make_machine(p);
    const auto lpt = lb::lpt_assignment(model.costs, p);
    const auto block = lb::block_assignment(model.task_count(), p);
    const double st = sim::simulate_static(machine, model.costs, lpt).makespan;
    const double cn = sim::simulate_counter(machine, model.costs, 2).makespan;
    const double ws =
        sim::simulate_work_stealing(machine, model.costs, block).makespan;
    const double ideal = model.total_cost() / static_cast<double>(p);
    const I tasks = static_cast<I>(model.task_count());
    table.add_row({I{p}, I{waters}, tasks, model.total_cost(), st * 1e3,
                   cn * 1e3, ws * 1e3, ideal / ws});
    ctx.cell({{"procs", I{p}}, {"tasks", tasks}, {"static_lpt_makespan_s", st},
              {"counter_makespan_s", cn}, {"stealing_makespan_s", ws}});
  }
  table.print(std::cout, "weak scaling (efficiency = ideal/actual)");
}

void exp3(Context& ctx, const Spec&) {
  const SweepPoint& point = ctx.at(256);
  Table table({"model", "makespan_ms", "utilization_pct", "steals",
               "failed_steals", "counter_ops", "balance_ms"});
  table.set_precision(2);
  for (const auto& run : point.runs) {
    const sim::SimResult& r = run.sim;
    table.add_row({run.name, r.makespan * 1e3, r.utilization() * 100.0,
                   r.steals, r.steal_attempts - r.steals, r.counter_ops,
                   run.balance_seconds * 1e3});
    ctx.cell({{"model", run.name}, {"makespan_s", r.makespan},
              {"utilization", r.utilization()},
              {"failed_steals", r.steal_attempts - r.steals},
              {"balance_ms", run.balance_seconds * 1e3}});
  }
  table.print(std::cout, "utilization at 256 simulated cores");

  // Utilization-over-time curves (the paper's utilization figures):
  // each row is one time bin; bar length = fraction of cores busy.
  std::cout << "\nutilization timelines (20 bins across each makespan):\n";
  sim::MachineConfig traced = bench::make_machine(256);
  traced.record_trace = true;
  const auto& costs = ctx.model.costs;
  const lb::Assignment& block = point.balanced("block").assignment;
  const std::pair<const char*, sim::SimResult> curves[] = {
      {"static-block", sim::simulate_static(traced, costs, block)},
      {"static-lpt",
       sim::simulate_static(traced, costs, point.balanced("lpt").assignment)},
      {"counter(4)", sim::simulate_counter(traced, costs, 4)},
      {"work-stealing", sim::simulate_work_stealing(traced, costs, block)},
  };
  for (const auto& [name, result] : curves) {
    std::cout << "  " << name << "\n";
    for (double busy : sim::utilization_timeline(result, 256, 20)) {
      const auto bar = static_cast<std::size_t>(busy * 40.0);
      std::cout << "    |" << std::string(bar, '#')
                << std::string(40 - bar, ' ') << "| "
                << static_cast<int>(busy * 100.0) << "%\n";
    }
    // Critical-path anatomy of the same trace: where the proc that ends
    // the run spends its time, and the single worst idle stretch.
    const sim::TraceSummary anatomy =
        sim::summarize_trace(result.trace, 256, result.makespan);
    std::cout << "    critical proc " << anatomy.critical_proc << ": busy "
              << anatomy.critical_busy * 1e3 << " ms, overhead "
              << anatomy.critical_overhead * 1e3 << " ms, idle "
              << anatomy.critical_idle * 1e3 << " ms; longest idle gap "
              << anatomy.longest_idle_gap * 1e3 << " ms on proc "
              << anatomy.longest_idle_proc << "\n";
  }
}

void exp4(Context& ctx, const Spec&) {
  const graph::Hypergraph hg = core::make_task_hypergraph(ctx.model);
  const auto& costs = ctx.model.costs;
  Table table({"procs", "balancer", "imbalance", "makespan_ms", "hg_cut",
               "balance_ms"});
  table.set_precision(3);
  const std::vector<int> full{16, 64, 256, 1024};
  for (int p : ctx.smoke ? kSmokeProcs : full) {
    const SweepPoint& point = ctx.at(p);
    for (const std::string& algo : core::balancer_names()) {
      const lb::Assignment& a = point.balanced(algo).assignment;
      const double imb = lb::imbalance(costs, a, p);
      const double load = lb::makespan(costs, a, p);
      const double cut = hg.connectivity_cut(a, p);
      const double ms = point.balanced(algo).balance_seconds * 1e3;
      table.add_row({I{p}, algo, imb, load * 1e3, cut, ms});
      ctx.cell({{"procs", I{p}}, {"model", algo}, {"imbalance", imb},
                {"load_makespan_s", load}, {"hg_cut", cut},
                {"balance_ms", ms}});
    }
    const double ratio =
        lb::imbalance(costs, point.balanced("semi-matching").assignment, p) /
        lb::imbalance(costs, point.balanced("hypergraph").assignment, p);
    ctx.gates.push_back({"EXP-4 semi-matching/hypergraph imbalance", p, ratio,
                         "<= 1.05", ratio <= 1.05});
  }
  table.print(std::cout, "balancer quality (imbalance = max/mean load)");
}

// Smoke reuses the shared sweep's balance times; full mode times LPT,
// semi-matching and hypergraph at 256 parts on three workloads.
void exp5(Context& ctx, const Spec&) {
  auto cost_gate = [&](const std::string& workload, int p, double hyper,
                       double semi) {
    ctx.gates.push_back(
        {"EXP-5 hypergraph/semi-matching balance time, " + workload, p,
         hyper / semi, ">= 100", hyper / semi >= 100.0, /*host_timed=*/true});
  };
  if (ctx.smoke) {
    for (int p : kSmokeProcs) {
      const SweepPoint& point = ctx.at(p);
      cost_gate("water27", p, point.balanced("hypergraph").balance_seconds,
                point.balanced("semi-matching").balance_seconds);
    }
    return;
  }
  Table table({"workload", "tasks", "lpt_ms", "semi_matching_ms",
               "hypergraph_ms", "hypergraph/semi"});
  table.set_precision(3);
  for (const std::string name : {"water8", "water16", "water27"}) {
    const core::TaskModel model =
        name == "water27" ? ctx.model : bench::standard_workload(name);
    auto median_ms = [&](const char* algo) {  // of 3 runs at 256 parts
      std::vector<double> s;
      for (int rep = 0; rep < 3; ++rep) {
        s.push_back(core::balance_tasks(model, algo, 256).balance_seconds);
      }
      return summarize(s).p50 * 1e3;
    };
    const double lpt = median_ms("lpt"), semi = median_ms("semi-matching"),
                 hyper = median_ms("hypergraph");
    const I tasks = static_cast<I>(model.task_count());
    table.add_row({name, tasks, lpt, semi, hyper, hyper / semi});
    ctx.cell({{"workload", name}, {"tasks", tasks}, {"lpt_balance_ms", lpt},
              {"semi_matching_balance_ms", semi},
              {"hypergraph_balance_ms", hyper}});
    cost_gate(name, 256, hyper, semi);
  }
  table.print(std::cout, "balancer wall time at 256 parts (median of 3)");
}

/// Re-grains a cost vector: factor > 0 splits each task into `factor`
/// equal units; factor < 0 agglomerates |factor| consecutive tasks.
std::vector<double> regrain(const std::vector<double>& costs, int factor) {
  std::vector<double> out;
  if (factor >= 1) {
    for (double c : costs) out.insert(out.end(), factor, c / factor);
    return out;
  }
  const auto g = static_cast<std::size_t>(-factor);
  for (std::size_t i = 0; i < costs.size(); i += g) {
    out.push_back(std::accumulate(costs.begin() + i,
                                  costs.begin() + std::min(costs.size(), i + g),
                                  0.0));
  }
  return out;
}

/// Gates a U-curve: the minimum of `ys` lies strictly inside the sweep.
void u_curve_gate(Context& ctx, const std::string& column,
                  const std::vector<double>& ys) {
  const auto argmin = std::min_element(ys.begin(), ys.end()) - ys.begin();
  const auto last = static_cast<std::ptrdiff_t>(ys.size()) - 1;
  ctx.gates.push_back({"EXP-6 " + column + " minimum grain index", 0,
                       static_cast<double>(argmin),
                       "strictly inside [0, " + std::to_string(last) + "]",
                       argmin > 0 && argmin < last});
}

void exp6(Context& ctx, const Spec&) {
  sim::MachineConfig machine = bench::make_machine(256);
  // Per-unit costs of a GA-class runtime: task dispatch + the one-sided
  // gets/accumulates every work unit performs.
  machine.task_overhead = 2.0e-6;
  machine.counter_service = 0.3e-6;

  Table table({"grain", "units", "units_per_proc", "mean_unit_us",
               "counter_ms", "stealing_ms"});
  table.set_precision(3);
  std::vector<double> counter_curve, stealing_curve;
  // factor: negative = agglomerate, positive = split.
  for (int factor : {-512, -128, -32, -8, -2, 1, 4, 16, 64, 256}) {
    const auto costs = regrain(ctx.model.costs, factor);
    const auto n = costs.size();
    const double counter = sim::simulate_counter(machine, costs, 1).makespan;
    const double steal =
        sim::simulate_work_stealing(machine, costs,
                                    lb::block_assignment(n, machine.n_procs))
            .makespan;
    const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
    const std::string label = factor >= 1
                                  ? "split x" + std::to_string(factor)
                                  : "merge x" + std::to_string(-factor);
    table.add_row({label, static_cast<I>(n),
                   static_cast<double>(n) / machine.n_procs,
                   total / static_cast<double>(n) * 1e6, counter * 1e3,
                   steal * 1e3});
    ctx.cell({{"case", label}, {"units", static_cast<I>(n)},
              {"counter_makespan_s", counter}, {"stealing_makespan_s", steal}});
    counter_curve.push_back(counter);
    stealing_curve.push_back(steal);
  }
  table.print(std::cout,
              "granularity sweep (expect U-curves in both columns)");
  std::cout << "\nlower bound (perfect balance, zero overhead): "
            << ctx.model.total_cost() / machine.n_procs * 1e3 << " ms\n";
  u_curve_gate(ctx, "counter", counter_curve);
  u_curve_gate(ctx, "stealing", stealing_curve);
}

void exp7(Context& ctx, const Spec&) {
  const auto& costs = ctx.model.costs;
  const auto lpt = lb::lpt_assignment(costs, 256);
  Table table({"noise_pct", "static_lpt_ms", "counter_ms", "stealing_ms",
               "static_degradation", "stealing_degradation"});
  table.set_precision(3);
  double static_base = 0.0, steal_base = 0.0;
  std::vector<double> static_deg, steal_deg;
  for (double noise : {0.0, 0.05, 0.10, 0.20, 0.30, 0.40}) {
    sim::MachineConfig machine = bench::make_machine(256);
    machine.noise_amplitude = noise;
    const double st = sim::simulate_static(machine, costs, lpt).makespan;
    const double cn = sim::simulate_counter(machine, costs, 4).makespan;
    const double ws =
        sim::simulate_work_stealing(machine, costs, lpt).makespan;
    if (noise == 0.0) {
      static_base = st;
      steal_base = ws;
    }
    static_deg.push_back(st / static_base);
    steal_deg.push_back(ws / steal_base);
    table.add_row({noise * 100.0, st * 1e3, cn * 1e3, ws * 1e3,
                   static_deg.back(), steal_deg.back()});
    ctx.cell({{"intensity", noise}, {"static_lpt_makespan_s", st},
              {"counter_makespan_s", cn}, {"stealing_makespan_s", ws}});
  }
  table.print(std::cout, "makespan vs core-speed noise amplitude");
  double min_static_step = static_deg[1] - static_deg[0];
  double max_excess = steal_deg[0] - static_deg[0];
  for (std::size_t i = 1; i < static_deg.size(); ++i) {
    min_static_step =
        std::min(min_static_step, static_deg[i] - static_deg[i - 1]);
    max_excess = std::max(max_excess, steal_deg[i] - static_deg[i]);
  }
  ctx.gates.push_back({"EXP-7 smallest step of static degradation", 0,
                       min_static_step, ">= 0", min_static_step >= 0.0});
  ctx.gates.push_back({"EXP-7 largest stealing-minus-static degradation", 0,
                       max_excess, "<= 0", max_excess <= 0.0});
}

void exp8(Context& ctx, const Spec&) {
  const auto& costs = ctx.model.costs;
  Table steal_table({"procs", "steals", "failed", "fail_rate_pct",
                     "steal_wait_ms", "makespan_ms"});
  steal_table.set_precision(3);
  Table counter_table({"procs", "counter_ops", "avg_wait_us",
                       "total_wait_ms", "makespan_ms"});
  counter_table.set_precision(3);
  for (int p : {16, 32, 64, 128, 256, 512, 1024}) {
    const sim::MachineConfig machine = bench::make_machine(p);
    const sim::SimResult ws = sim::simulate_work_stealing(
        machine, costs, lb::block_assignment(costs.size(), p));
    const I failed = ws.steal_attempts - ws.steals;
    const double fail_rate = ws.steal_attempts > 0
        ? static_cast<double>(failed) / ws.steal_attempts * 100.0 : 0.0;
    steal_table.add_row({I{p}, ws.steals, failed, fail_rate,
                         ws.steal_wait * 1e3, ws.makespan * 1e3});
    const sim::SimResult cn = sim::simulate_counter(machine, costs, 4);
    counter_table.add_row(
        {I{p}, cn.counter_ops,
         cn.counter_wait / static_cast<double>(cn.counter_ops) * 1e6,
         cn.counter_wait * 1e3, cn.makespan * 1e3});
    ctx.cell({{"procs", I{p}}, {"steals", ws.steals}, {"failed_steals", failed},
              {"steal_wait_s", ws.steal_wait}, {"counter_ops", cn.counter_ops},
              {"counter_wait_s", cn.counter_wait}});
  }
  steal_table.print(std::cout, "work-stealing overhead anatomy");
  std::cout << "\n";
  counter_table.print(std::cout, "dynamic-counter overhead anatomy");

  // Steal provenance at a representative scale: where stolen work comes
  // from (on-node vs off-node), plus the critical-path anatomy — both
  // derived from the typed trace of the same run.
  sim::MachineConfig traced = bench::make_machine(64);
  traced.record_trace = true;
  const sim::SimResult ws64 = sim::simulate_work_stealing(
      traced, costs, lb::block_assignment(costs.size(), 64));
  const auto provenance = sim::steal_provenance(ws64.trace, 64);
  I on_node = 0, off_node = 0;
  for (int thief = 0; thief < 64; ++thief) {
    for (int victim = 0; victim < 64; ++victim) {
      (traced.node_of(thief) == traced.node_of(victim) ? on_node : off_node) +=
          provenance[static_cast<std::size_t>(thief * 64 + victim)];
    }
  }
  ctx.cell({{"name", "steal provenance"}, {"procs", I{64}},
            {"on_node_steals", on_node}, {"off_node_steals", off_node}});
  const sim::TraceSummary anatomy =
      sim::summarize_trace(ws64.trace, 64, ws64.makespan);
  std::cout << "\nsteal provenance at P = 64 (uniform victims): "
            << on_node << " on-node, " << off_node << " off-node\n"
            << "critical proc " << anatomy.critical_proc << ": busy "
            << anatomy.critical_busy * 1e3 << " ms, overhead "
            << anatomy.critical_overhead * 1e3 << " ms, idle "
            << anatomy.critical_idle * 1e3 << " ms; longest idle gap "
            << anatomy.longest_idle_gap * 1e3 << " ms on proc "
            << anatomy.longest_idle_proc << "\n";
}

void exp9(Context& ctx, const Spec&) {
  const auto& costs = ctx.model.costs;
  const sim::MachineConfig machine = bench::make_machine(256);
  const auto block = lb::block_assignment(costs.size(), 256);
  constexpr int kIterations = 10;
  const auto retentive =
      sim::simulate_retentive(machine, costs, block, kIterations);
  // Persistence-based inspector-executor alternative, simulated with a
  // free rebalance so every column replays exactly. The LPT balancer's
  // host wall time on this instance is reported beside it, not mixed in.
  const auto persistence =
      sim::simulate_persistence(machine, costs, block, kIterations);
  emc::Timer lpt_timer;
  (void)lb::lpt_assignment(costs, machine.n_procs);
  const double lpt_seconds = lpt_timer.seconds();

  Table table({"iteration", "retentive_ms", "retentive_steals", "plain_ms",
               "plain_steals", "persistence_ms"});
  table.set_precision(3);
  double retentive_total = 0.0, plain_total = 0.0, persist_total = 0.0;
  for (int i = 0; i < kIterations; ++i) {
    // "Plain" restarts from the block distribution every iteration (only
    // the victim-selection seed varies).
    sim::StealOptions options;
    options.seed = 7 + static_cast<std::uint64_t>(i);
    const sim::SimResult plain =
        sim::simulate_work_stealing(machine, costs, block, options);
    const auto& ret = retentive[static_cast<std::size_t>(i)];
    const auto& per = persistence[static_cast<std::size_t>(i)];
    retentive_total += ret.makespan;
    plain_total += plain.makespan;
    persist_total += per.makespan;
    table.add_row({I{i + 1}, ret.makespan * 1e3, ret.steals,
                   plain.makespan * 1e3, plain.steals, per.makespan * 1e3});
    ctx.cell({{"retentive_makespan_s", ret.makespan},
              {"retentive_steals", ret.steals},
              {"plain_makespan_s", plain.makespan},
              {"plain_steals", plain.steals},
              {"persistence_makespan_s", per.makespan}});
  }
  ctx.cell({{"lpt_rebalance_ms", lpt_seconds * 1e3}});
  table.print(std::cout, "per-iteration comparison");
  std::cout << "\ncumulative makespan over " << kIterations
            << " iterations:\n  retentive stealing " << retentive_total * 1e3
            << " ms\n  plain stealing     " << plain_total * 1e3
            << " ms\n  persistence (LPT)  " << persist_total * 1e3
            << " ms (rebalance simulated free)\n"
            << "host-timed LPT rebalance (not simulated): " << lpt_seconds * 1e3
            << " ms per round\n";
}

void exp10(Context& ctx, const Spec&) {
  const auto& costs = ctx.model.costs;
  const sim::MachineConfig machine = bench::make_machine(256);
  Table table({"policy", "makespan_ms", "utilization_pct", "counter_ops",
               "steals", "steal_or_counter_wait_ms"});
  table.set_precision(2);
  auto add = [&](const std::string& name, const sim::SimResult& r) {
    table.add_row({name, r.makespan * 1e3, r.utilization() * 100.0,
                   r.counter_ops, r.steals,
                   (r.counter_wait + r.steal_wait) * 1e3});
    ctx.cell({{"name", name}, {"makespan_s", r.makespan},
              {"counter_ops", r.counter_ops}, {"steals", r.steals},
              {"wait_s", r.counter_wait + r.steal_wait}});
  };
  // Counter chunk policies.
  for (auto [name, policy] :
       {std::pair<const char*, sim::ChunkPolicy>{"counter fixed(4)",
                                                 sim::ChunkPolicy::kFixed},
        {"counter guided", sim::ChunkPolicy::kGuided},
        {"counter trapezoid", sim::ChunkPolicy::kTrapezoid}}) {
    sim::CounterOptions options;
    options.chunk = policy == sim::ChunkPolicy::kFixed ? 4 : 1;
    options.policy = policy;
    add(name, sim::simulate_counter(machine, costs, options));
  }
  // Hierarchical counter.
  add("hierarchical 256/2",
      sim::simulate_hierarchical_counter(machine, costs, 256, 2));
  add("hierarchical 64/1",
      sim::simulate_hierarchical_counter(machine, costs, 64, 1));
  // Hybrid static+dynamic (LPT prefix, counter tail).
  const auto lpt = lb::lpt_assignment(costs, machine.n_procs);
  for (int pct : {10, 30, 50}) {
    add("hybrid lpt+" + std::to_string(pct) + "%",
        sim::simulate_hybrid(machine, costs, lpt, pct / 100.0, 2));
  }
  // Victim policies for work stealing (block initial placement).
  const auto block = lb::block_assignment(costs.size(), machine.n_procs);
  for (auto [name, victim] :
       {std::pair<const char*, sim::VictimPolicy>{"steal uniform",
                                                  sim::VictimPolicy::kUniform},
        {"steal node-first", sim::VictimPolicy::kNodeFirst},
        {"steal ring", sim::VictimPolicy::kRing}}) {
    sim::StealOptions options;
    options.victim = victim;
    add(name, sim::simulate_work_stealing(machine, costs, block, options));
  }
  table.print(std::cout, "policy ablation");
  std::cout << "\nlower bound (perfect balance, zero overhead): "
            << ctx.model.total_cost() / machine.n_procs * 1e3 << " ms\n";
}

// {id, title, claim, gated, own_header, body}
const Spec kSpecs[] = {
    {"1", "EXP-1: Fock-build task-cost heterogeneity",
     "SCF tasks are highly irregular, motivating dynamic load balancing",
     false, true, exp1},
    {"2", "EXP-2: execution models vs core count",
     "~50% improvement from work stealing over static scheduling", true,
     false, exp2},
    {"2b", "EXP-2b: weak scaling (1 water per 8 cores)",
     "dynamic models hold efficiency as the system and\n"
     "#        machine grow together",
     false, true, exp2b},
    {"3", "EXP-3: utilization per execution model (P = 256)",
     "execution-model choice drives system utilization", false, false, exp3},
    {"4", "EXP-4: balancer quality across core counts",
     "semi-matching comparable to hypergraph partitioning", true, false,
     exp4},
    {"5", "EXP-5: balancer runtime cost (P = 256)",
     "hypergraph partitioning is expensive; semi-matching is cheap", true,
     false, exp5},
    {"6", "EXP-6: work-unit granularity vs runtime overheads (P = 256)",
     "too-coarse pays imbalance, too-fine pays per-unit overheads", true,
     false, exp6},
    {"7", "EXP-7: resilience to per-core performance noise (P = 256)",
     "static degrades with noise amplitude; work stealing absorbs it", true,
     false, exp7},
    {"8", "EXP-8: overhead anatomy vs core count",
     "steal traffic and counter contention grow with P", false, false, exp8},
    {"9", "EXP-9: retentive work stealing across SCF iterations (P = 256)",
     "retention drives steal traffic toward zero across iterations", false,
     false, exp9},
    {"10", "EXP-10: scheduling-policy ablation (P = 256)",
     "execution-model design choices trade overhead against imbalance",
     false, false, exp10},
};

int run(bool smoke, const std::string& report_path,
        const std::vector<const Spec*>& specs) {
  Context ctx;
  ctx.smoke = smoke;
  std::ofstream out(report_path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << report_path << "\n";
    return 1;
  }
  util::JsonWriter json(out);
  ctx.json = &json;
  json.begin_object();
  bench::write_manifest(json, "bench_paper", smoke ? "smoke" : "full", 1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) std::cout << "\n";
    json.begin_array(std::string("EXP-") + specs[i]->id);
    if (!specs[i]->own_header) {
      bench::print_header(specs[i]->title, specs[i]->claim, ctx.model);
    }
    specs[i]->body(ctx, *specs[i]);
    json.end_array();
  }
  // Gate verdicts go to stdout under --smoke; full-mode stdout holds
  // only the experiment tables.
  std::ostream& log = smoke ? std::cout : std::cerr;
  bool all_ok = true;
  json.begin_array("gates");
  for (const Gate& g : ctx.gates) {
    log << "gate " << g.name
        << (g.procs > 0 ? " P=" + std::to_string(g.procs) : "") << ": "
        << g.value << " " << g.rule << " -> " << (g.ok ? "ok" : "FAIL")
        << "\n";
    ctx.cell({{"name", g.name}, {"procs", I{g.procs}},
              {g.host_timed ? "wall_ratio" : "value", g.value},
              {"rule", g.rule}, {"verdict", g.ok ? "ok" : "FAIL"}});
    all_ok = all_ok && g.ok;
  }
  json.end_array();
  bench::write_run_footer(json);
  json.end_object();
  out.close();

  // Validate the artifact with the strict parser (rejects NaN/Inf) and
  // check the manifest envelope.
  std::ifstream in(report_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bad = bench::manifest_error(util::parse_json(buf.str()));
  if (!bad.empty()) {
    std::cerr << "FAIL: report manifest invalid: " << bad << "\n";
    return 1;
  }
  log << "gates " << (all_ok ? "ok" : "FAILED") << "; wrote " << report_path
      << " (validated)\n";
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string report_path = "BENCH_paper.json";
  std::vector<const Spec*> specs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto spec = std::find_if(
        std::begin(kSpecs), std::end(kSpecs), [&](const Spec& s) {
          return arg == s.id || arg == std::string("EXP-") + s.id;
        });
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (spec != std::end(kSpecs)) {
      specs.push_back(spec);
    } else {
      std::cerr << "unknown argument " << arg
                << " (experiments: 1 2 2b 3 4 5 6 7 8 9 10)\n";
      return 2;
    }
  }
  if (specs.empty()) {
    for (const Spec& s : kSpecs) {
      if (s.gated || !smoke) specs.push_back(&s);
    }
  }
  try {
    return run(smoke, report_path, specs);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
