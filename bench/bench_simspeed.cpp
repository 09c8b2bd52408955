// Simulator-throughput driver: how fast is the simulator itself, and
// does the calendar-queue event core actually buy the P >= 10k regime?
//
// Every other bench asks what the *simulated machine* does; this one
// measures the simulator as a program — events per wall-clock second
// and peak RSS while replaying synthetic million-task workloads at up
// to P = 100k simulated procs. Two axes are swept:
//
//   scheduler:  heap (per-proc tournament tree, O(log P)) vs calendar
//               (Brown's calendar queue, amortized O(1))
//   congestion: per-message (exact link booking) vs flow (aggregate
//               utilization approximation), on a crossbar fabric
//
// The workload is synthetic — task costs drawn uniformly from
// [0.5, 1.5) x a mean cost via the seeded Rng — because this bench
// stresses the event core, not the chemistry; the cost *distribution*
// is irrelevant to simulator throughput and a synthetic vector scales
// to millions of tasks instantly.
//
// Self-checks (exit nonzero on violation; the ctest smoke gate):
//   1. heap and calendar produce bitwise-identical SimResults on every
//      (model, P) cell — the determinism contract of EventQueue;
//   2. a P = 100k, 1M-task work-stealing run completes on the calendar
//      scheduler (the scale target of the event-core rewrite);
//   3. flow-mode congestion is deterministic and lands within
//      [0.1x, 3x] of the per-message makespan on the congestion cell (a
//      sanity envelope, not a precision claim: flow clamps utilization
//      at 95%, so it undercharges a deeply saturated link where exact
//      booking builds an unbounded queue — EXP-12 quantifies the error
//      vs saturation depth).
//
// Full mode additionally sweeps P up to 100k and prints/records the
// calendar-vs-heap events/sec ratio per cell (the >= 5x headline at
// P >= 10k lives in BENCH_simspeed.json, not in a CI assert: wall-clock
// ratios are hostware, smoke only gates correctness).
//
// Flags:
//   --smoke          small sweep + the three gates above (CI)
//   --mean-cost=S    mean synthetic task cost, sim-seconds (default 1e-5)
//   --report=PATH    JSON report (default BENCH_simspeed.json)
//   --seed=N         workload + steal seed (default 1)
//   --profile        enable the scoped-span profiler; prints the span
//                    table and embeds the summary in the report

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lb/simple.hpp"
#include "net/topology.hpp"
#include "sim/simulators.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc;
using namespace emc::sim;

struct Options {
  bool smoke = false;
  bool profile = false;
  double mean_cost = 1.0e-5;
  std::string report_path = "BENCH_simspeed.json";
  std::uint64_t seed = 1;
};

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (parse_flag(arg, "mean-cost", &value)) {
      opt.mean_cost = std::stod(value);
    } else if (parse_flag(arg, "report", &value)) {
      opt.report_path = value;
    } else if (parse_flag(arg, "seed", &value)) {
      opt.seed = std::stoull(value);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

std::vector<double> synthetic_costs(std::int64_t n, double mean,
                                    std::uint64_t seed) {
  std::vector<double> costs(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (double& c : costs) c = rng.uniform(0.5, 1.5) * mean;
  return costs;
}

/// Strict bitwise equality of everything a simulation computes. Double
/// comparisons are intentionally exact: the scheduler knob must not
/// change results at all, not "up to rounding".
bool bitwise_equal(const SimResult& a, const SimResult& b,
                   std::string* why) {
  auto fail = [&](const std::string& field) {
    if (why != nullptr) *why = field;
    return false;
  };
  if (a.makespan != b.makespan) return fail("makespan");
  if (a.busy != b.busy) return fail("busy");
  if (a.tasks_executed != b.tasks_executed) return fail("tasks_executed");
  if (a.steals != b.steals) return fail("steals");
  if (a.steal_attempts != b.steal_attempts) return fail("steal_attempts");
  if (a.counter_ops != b.counter_ops) return fail("counter_ops");
  if (a.counter_wait != b.counter_wait) return fail("counter_wait");
  if (a.steal_wait != b.steal_wait) return fail("steal_wait");
  if (a.op_retries != b.op_retries) return fail("op_retries");
  if (a.net_messages != b.net_messages) return fail("net_messages");
  if (a.net_congested != b.net_congested) return fail("net_congested");
  if (a.net_bytes != b.net_bytes) return fail("net_bytes");
  if (a.net_link_wait != b.net_link_wait) return fail("net_link_wait");
  if (a.events_processed != b.events_processed) {
    return fail("events_processed");
  }
  if (a.trace.size() != b.trace.size()) return fail("trace size");
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const TraceEvent& x = a.trace[i];
    const TraceEvent& y = b.trace[i];
    if (x.type != y.type || x.proc != y.proc || x.peer != y.peer ||
        x.task != y.task || x.start != y.start || x.end != y.end) {
      return fail("trace[" + std::to_string(i) + "]");
    }
  }
  return true;
}

/// One timed simulation.
struct Timed {
  SimResult result;
  double wall_ms = 0.0;

  double events_per_sec() const {
    return wall_ms > 0.0
               ? static_cast<double>(result.events_processed) /
                     (wall_ms * 1e-3)
               : 0.0;
  }
};

template <typename F>
Timed timed_run(F&& run) {
  Timed t;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = run();
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return t;
}

/// One (model, P, tasks) cell of the scheduler sweep.
struct Cell {
  std::string model;
  int procs = 0;
  std::int64_t tasks = 0;
  Timed heap;
  Timed calendar;
  bool identical = false;
  std::string mismatch;

  double speedup() const {
    return heap.wall_ms > 0.0 && calendar.wall_ms > 0.0
               ? heap.wall_ms / calendar.wall_ms
               : 0.0;
  }
};

/// Runs `model` under both schedulers on a fresh machine and checks the
/// results are bitwise identical.
template <typename F>
Cell run_cell(const std::string& model, int procs, std::int64_t tasks,
              std::span<const double> costs, F&& simulate) {
  Cell cell;
  cell.model = model;
  cell.procs = procs;
  cell.tasks = tasks;
  MachineConfig heap_cfg = bench::make_machine(procs);
  heap_cfg.scheduler = SchedulerKind::kBinaryHeap;
  MachineConfig cal_cfg = heap_cfg;
  cal_cfg.scheduler = SchedulerKind::kCalendarQueue;
  cell.heap = timed_run([&] { return simulate(heap_cfg, costs); });
  cell.calendar = timed_run([&] { return simulate(cal_cfg, costs); });
  cell.identical =
      bitwise_equal(cell.heap.result, cell.calendar.result,
                    &cell.mismatch);
  return cell;
}

std::vector<Cell> scheduler_sweep(const Options& opt,
                                  const std::vector<int>& proc_counts,
                                  std::int64_t tasks_per_proc,
                                  std::int64_t max_tasks) {
  std::vector<Cell> cells;
  for (int procs : proc_counts) {
    const std::int64_t tasks =
        std::min<std::int64_t>(max_tasks, tasks_per_proc * procs);
    const std::vector<double> costs =
        synthetic_costs(tasks, opt.mean_cost, opt.seed);
    const lb::Assignment initial =
        lb::block_assignment(costs.size(), procs);

    cells.push_back(run_cell(
        "counter", procs, tasks, costs,
        [&](const MachineConfig& m, std::span<const double> c) {
          return simulate_counter(m, c, /*chunk=*/1);
        }));
    cells.push_back(run_cell(
        "hier_counter", procs, tasks, costs,
        [&](const MachineConfig& m, std::span<const double> c) {
          return simulate_hierarchical_counter(m, c, /*node_chunk=*/64,
                                               /*proc_chunk=*/4);
        }));
    cells.push_back(run_cell(
        "work_stealing", procs, tasks, costs,
        [&](const MachineConfig& m, std::span<const double> c) {
          StealOptions steal;
          steal.seed = opt.seed + 7;
          return simulate_work_stealing(m, c, initial, steal);
        }));
    for (std::size_t i = cells.size() - 3; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      std::cout << "  P=" << cell.procs << " tasks=" << cell.tasks
                << "  " << cell.model << ": heap "
                << cell.heap.wall_ms << " ms, calendar "
                << cell.calendar.wall_ms << " ms ("
                << cell.speedup() << "x, "
                << cell.calendar.events_per_sec() / 1e6
                << " Mev/s), identical="
                << (cell.identical ? "yes" : "NO") << "\n";
    }
  }
  return cells;
}

/// The scale target: P = 100k procs, 1M tasks, work stealing on the
/// calendar scheduler.
struct ScaleRun {
  int procs = 0;
  std::int64_t tasks = 0;
  Timed run;
  std::int64_t peak_rss = 0;
};

ScaleRun scale_run(const Options& opt, int procs, std::int64_t tasks) {
  ScaleRun s;
  s.procs = procs;
  s.tasks = tasks;
  const std::vector<double> costs =
      synthetic_costs(tasks, opt.mean_cost, opt.seed);
  const lb::Assignment initial = lb::block_assignment(costs.size(), procs);
  MachineConfig machine = bench::make_machine(procs);
  machine.scheduler = SchedulerKind::kCalendarQueue;
  StealOptions steal;
  steal.seed = opt.seed + 7;
  s.run = timed_run([&] {
    return simulate_work_stealing(machine, costs, initial, steal);
  });
  s.peak_rss = bench::peak_rss_bytes();
  return s;
}

/// Per-message vs flow congestion on a crossbar fabric (counter model:
/// its fan-in to the counter home is the worst case for endpoint
/// contention, so the two modes genuinely diverge).
struct CongestionRun {
  int procs = 0;
  std::int64_t tasks = 0;
  Timed per_message;
  Timed flow;
  bool deterministic = false;

  double makespan_ratio() const {
    return per_message.result.makespan > 0.0
               ? flow.result.makespan / per_message.result.makespan
               : 0.0;
  }
  double speedup() const {
    return flow.wall_ms > 0.0 ? per_message.wall_ms / flow.wall_ms : 0.0;
  }
};

CongestionRun congestion_run(const Options& opt, int procs,
                             std::int64_t tasks) {
  CongestionRun c;
  c.procs = procs;
  c.tasks = tasks;
  const std::vector<double> costs =
      synthetic_costs(tasks, opt.mean_cost, opt.seed);

  MachineConfig machine = bench::make_machine(procs);
  machine.scheduler = SchedulerKind::kCalendarQueue;
  machine.network.topology = net::TopologyKind::kCrossbar;
  // Size the fabric so control traffic matters: one control message
  // costs ~a tenth of a mean task on its link.
  machine.network.link_bandwidth =
      static_cast<double>(machine.network.control_bytes) /
      (0.1 * opt.mean_cost);

  MachineConfig flow_machine = machine;
  flow_machine.network.congestion = net::CongestionMode::kFlow;

  c.per_message = timed_run(
      [&] { return simulate_counter(machine, costs, /*chunk=*/1); });
  c.flow = timed_run(
      [&] { return simulate_counter(flow_machine, costs, /*chunk=*/1); });
  const SimResult replay = simulate_counter(flow_machine, costs, 1);
  std::string why;
  c.deterministic = bitwise_equal(c.flow.result, replay, &why);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (opt.profile) emc::util::Profiler::global().set_enabled(true);

  std::cout << "##############################################\n"
            << "# bench_simspeed: simulator throughput\n"
            << "# claim: the event core sustains datacenter-scale\n"
            << "#   replays (P = 100k, millions of tasks) and both\n"
            << "#   schedulers replay them bitwise identically\n"
            << "# seed: " << opt.seed << "\n"
            << "##############################################\n";

  // --- Scheduler sweep --------------------------------------------------
  const std::vector<int> proc_counts =
      opt.smoke ? std::vector<int>{256, 4096}
                : std::vector<int>{1024, 4096, 10000, 40000, 100000};
  const std::int64_t tasks_per_proc = opt.smoke ? 16 : 20;
  const std::int64_t max_tasks = opt.smoke ? 100000 : 2000000;
  std::cout << "\nscheduler sweep (heap vs calendar):\n";
  const std::vector<Cell> cells =
      scheduler_sweep(opt, proc_counts, tasks_per_proc, max_tasks);

  bool all_identical = true;
  for (const Cell& cell : cells) {
    if (!cell.identical) {
      all_identical = false;
      std::cerr << "FAIL: " << cell.model << " P=" << cell.procs
                << " heap vs calendar differ in " << cell.mismatch
                << "\n";
    }
  }

  // --- Scale target -----------------------------------------------------
  const int scale_procs = 100000;
  const std::int64_t scale_tasks = 1000000;
  std::cout << "\nscale target (work stealing, calendar):\n";
  const ScaleRun scale = scale_run(opt, scale_procs, scale_tasks);
  std::cout << "  P=" << scale.procs << " tasks=" << scale.tasks << ": "
            << scale.run.wall_ms << " ms wall, "
            << scale.run.result.events_processed << " events ("
            << scale.run.events_per_sec() / 1e6 << " Mev/s), peak RSS "
            << static_cast<double>(scale.peak_rss) / (1024.0 * 1024.0)
            << " MiB\n";
  const bool scale_ok = scale.run.result.makespan > 0.0 &&
                        scale.run.result.events_processed >
                            scale.tasks;

  // --- Congestion modes -------------------------------------------------
  const int cong_procs = opt.smoke ? 512 : 2048;
  const std::int64_t cong_tasks = opt.smoke ? 20000 : 200000;
  std::cout << "\ncongestion modes (crossbar, counter model):\n";
  const CongestionRun cong = congestion_run(opt, cong_procs, cong_tasks);
  std::cout << "  P=" << cong.procs << ": per-message "
            << cong.per_message.wall_ms << " ms, flow "
            << cong.flow.wall_ms << " ms (" << cong.speedup()
            << "x); flow/per-message makespan ratio "
            << cong.makespan_ratio() << ", deterministic="
            << (cong.deterministic ? "yes" : "NO") << "\n";
  const bool cong_ok = cong.deterministic &&
                       cong.makespan_ratio() > 0.1 &&
                       cong.makespan_ratio() < 3.0;
  if (!cong.deterministic) {
    std::cerr << "FAIL: flow-mode congestion is not deterministic\n";
  } else if (!cong_ok) {
    std::cerr << "FAIL: flow/per-message makespan ratio "
              << cong.makespan_ratio() << " outside [0.1, 3]\n";
  }
  if (!scale_ok) {
    std::cerr << "FAIL: P=100k scale run did not complete sanely\n";
  }

  const bool passed = all_identical && scale_ok && cong_ok;

  // --- Report -----------------------------------------------------------
  std::ofstream out(opt.report_path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << opt.report_path << "\n";
    return 1;
  }
  {
    emc::bench::JsonWriter json(out);
    json.begin_object();
    emc::bench::write_manifest(json, "bench_simspeed",
                               opt.smoke ? "smoke" : "full", opt.seed);
    json.field("bench", "bench_simspeed");
    json.field("mode", opt.smoke ? "smoke" : "full");
    json.field("seed", opt.seed);
    json.field("mean_task_cost_s", opt.mean_cost);
    json.begin_array("scheduler_sweep");
    for (const Cell& cell : cells) {
      json.begin_object();
      json.field("model", cell.model);
      json.field("procs", cell.procs);
      json.field("tasks", cell.tasks);
      json.field("heap_wall_ms", cell.heap.wall_ms);
      json.field("calendar_wall_ms", cell.calendar.wall_ms);
      json.field("heap_events_per_sec", cell.heap.events_per_sec());
      json.field("calendar_events_per_sec",
                 cell.calendar.events_per_sec());
      json.field("events", cell.calendar.result.events_processed);
      json.field("calendar_speedup", cell.speedup());
      json.field("bitwise_identical", cell.identical);
      json.end_object();
    }
    json.end_array();
    json.begin_object("scale_run");
    json.field("model", "work_stealing");
    json.field("scheduler", "calendar");
    json.field("procs", scale.procs);
    json.field("tasks", scale.tasks);
    json.field("wall_ms", scale.run.wall_ms);
    json.field("events", scale.run.result.events_processed);
    json.field("events_per_sec", scale.run.events_per_sec());
    json.field("makespan_s", scale.run.result.makespan);
    json.field("steals", scale.run.result.steals);
    json.field("peak_rss_bytes", scale.peak_rss);
    json.end_object();
    json.begin_object("congestion");
    json.field("topology", "crossbar");
    json.field("model", "counter");
    json.field("procs", cong.procs);
    json.field("tasks", cong.tasks);
    json.field("per_message_wall_ms", cong.per_message.wall_ms);
    json.field("flow_wall_ms", cong.flow.wall_ms);
    json.field("per_message_makespan_s",
               cong.per_message.result.makespan);
    json.field("flow_makespan_s", cong.flow.result.makespan);
    json.field("makespan_ratio", cong.makespan_ratio());
    json.field("flow_speedup", cong.speedup());
    json.field("deterministic", cong.deterministic);
    json.end_object();
    json.begin_object("checks");
    json.field("all_bitwise_identical", all_identical);
    json.field("scale_run_ok", scale_ok);
    json.field("congestion_ok", cong_ok);
    json.field("passed", passed);
    json.end_object();
    emc::bench::write_run_footer(json);
    json.end_object();
  }
  out.close();
  std::cout << "\nwrote " << opt.report_path << "\n";

  // Self-check: the artifact must re-parse and carry a valid manifest,
  // or downstream bench_compare runs would reject it.
  {
    std::ifstream in(opt.report_path);
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      const emc::util::JsonValue doc = emc::util::parse_json(buf.str());
      const std::string bad = emc::bench::manifest_error(doc);
      if (!bad.empty()) {
        std::cerr << "FAIL: report manifest invalid: " << bad << "\n";
        return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "FAIL: report is not valid JSON: " << e.what() << "\n";
      return 1;
    }
  }

  if (opt.profile) {
    std::cout << "\nprofiler spans:\n";
    emc::util::Profiler::global().write_text(std::cout);
  }

  if (!passed) return 1;
  std::cout << "PASS\n";
  return 0;
}
