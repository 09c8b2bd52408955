#include "sim/simulators.hpp"

#include <algorithm>
#include <stdexcept>

#include "lb/simple.hpp"
#include "sim/event_queue.hpp"
#include "sim/task_ring.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace emc::sim {

namespace {

/// Proc ids are packed into event keys below this many bits of
/// sequence number (see simulate_work_stealing), capping the simulated
/// machine at 2M procs — an order of magnitude past the 100k target.
constexpr int kProcBits = 21;

/// Appends one typed event. Call sites guard on config.record_trace so
/// tracing is zero-cost when disabled.
void record(SimResult& result, TraceEventType type, int proc, double start,
            double end, std::int64_t task = -1, int peer = -1) {
  TraceEvent ev;
  ev.type = type;
  ev.proc = proc;
  ev.peer = peer;
  ev.task = task;
  ev.start = start;
  ev.end = end;
  result.trace.push_back(ev);
}

void check_inputs(const MachineConfig& config, std::span<const double> costs) {
  if (config.n_procs < 1) {
    throw std::invalid_argument("simulate: n_procs < 1");
  }
  if (config.n_procs >= (1 << kProcBits)) {
    throw std::invalid_argument("simulate: n_procs exceeds 2^21");
  }
  if (config.procs_per_node < 1) {
    throw std::invalid_argument("simulate: procs_per_node < 1");
  }
  for (double c : costs) {
    if (c < 0.0) throw std::invalid_argument("simulate: negative task cost");
  }
}

/// Marks every compiled fault window (and the counter outage, attributed
/// to the counter-home proc 0) in the trace as paired
/// kFaultStart/kFaultEnd instants, so timelines show where the machine
/// was perturbed.
void record_fault_windows(SimResult& result, const MachineConfig& config,
                          const FaultSchedule& faults) {
  if (!config.record_trace || !faults.active()) return;
  for (int p = 0; p < config.n_procs; ++p) {
    const FaultWindow& w = faults.window(p);
    if (!w.exists()) continue;
    record(result, TraceEventType::kFaultStart, p, w.start, w.start);
    record(result, TraceEventType::kFaultEnd, p, w.end, w.end);
  }
  const FaultModel& m = faults.model();
  if (m.outage_start >= 0.0 && m.outage_duration > 0.0) {
    record(result, TraceEventType::kFaultStart, 0, m.outage_start,
           m.outage_start, -1, 0);
    record(result, TraceEventType::kFaultEnd, 0,
           m.outage_start + m.outage_duration,
           m.outage_start + m.outage_duration, -1, 0);
  }
}

/// What every simulated run shares: the machine and task costs, the drawn
/// core speeds, the compiled fault schedule and the result being filled.
/// Callers validate their inputs before constructing one.
struct Run {
  Run(const MachineConfig& machine, std::span<const double> task_costs)
      : config(machine),
        costs(task_costs),
        speeds(draw_core_speeds(machine)),
        faults(machine) {
    const auto n_procs = static_cast<std::size_t>(config.n_procs);
    result.busy.assign(n_procs, 0.0);
    result.tasks_executed.assign(n_procs, 0);
    // Traced runs append at least one event per task; reserving up front
    // avoids the reallocation churn that dominated large traced runs.
    if (config.record_trace) {
      result.trace.reserve(costs.size() + costs.size() / 4 + 64);
    }
    record_fault_windows(result, config, faults);
  }

  const MachineConfig& config;
  std::span<const double> costs;
  std::vector<double> speeds;
  FaultSchedule faults;
  SimResult result;
};

/// Executes task `task` on `proc` starting no earlier than `ready`:
/// dispatch overhead, then the task's cost at the proc's speed replayed
/// through the fault schedule (dilation or lost-work restarts). Accounts
/// busy time as the productive work only, so utilization reflects
/// faults. Returns the finish time.
double run_task(Run& run, int proc, std::int64_t task, double ready) {
  const auto pu = static_cast<std::size_t>(proc);
  const double exec = run.costs[static_cast<std::size_t>(task)] /
                      run.speeds[pu];
  const double start = ready + run.config.task_overhead;
  int restarts = 0;
  double last_restart = start;
  const double done =
      run.faults.finish_time(proc, start, exec, &restarts, &last_restart);
  run.result.busy[pu] += exec;
  ++run.result.tasks_executed[pu];
  if (restarts > 0) {
    run.result.tasks_reexecuted += restarts;
    if (run.config.record_trace) {
      record(run.result, TraceEventType::kTaskReexec, proc, start,
             last_restart, task);
    }
  }
  if (run.config.record_trace) {
    record(run.result, TraceEventType::kTaskExec, proc,
           restarts > 0 ? last_restart : start, done, task);
  }
  return done;
}

/// Runs tasks [0, end) back to back on their assigned procs, every proc
/// starting at time 0, and returns each proc's finish time. This is all
/// of simulate_static and the static prefix of simulate_hybrid.
std::vector<double> run_assigned(Run& run, const lb::Assignment& assignment,
                                 std::size_t end) {
  std::vector<double> finish(static_cast<std::size_t>(run.config.n_procs),
                             0.0);
  for (std::size_t t = 0; t < end; ++t) {
    const auto p = static_cast<std::size_t>(assignment[t]);
    finish[p] = run_task(run, static_cast<int>(p),
                         static_cast<std::int64_t>(t), finish[p]);
    ++run.result.events_processed;
  }
  return finish;
}

/// Data-home proc of a task under the block-stripe distribution the PGAS
/// layer uses: the proc that owns the density/Fock rows the task reads
/// and writes, and therefore the source of its payload transfer when the
/// task runs elsewhere.
int task_home(std::int64_t task, std::int64_t n_tasks, int n_procs) {
  if (n_tasks <= 0) return 0;
  return static_cast<int>(
      std::min<std::int64_t>(n_procs - 1, task * n_procs / n_tasks));
}

/// Copies the network's accumulated congestion stats into the result
/// and, when the machine carries a metrics registry, exports the run's
/// net/* metrics (per-link occupancy, hottest link, ...).
void finish_net(const MachineConfig& config, SimResult& result,
                const net::NetworkModel& network) {
  const net::NetworkModel::Stats& s = network.stats();
  result.net_messages = s.messages;
  result.net_congested = s.congested_messages;
  result.net_bytes = s.bytes;
  result.net_link_wait = s.link_wait;
  if (config.metrics != nullptr) network.write_metrics(*config.metrics);
}

/// Models the data movement behind a dynamically acquired chunk: tasks
/// [first, first + count) grabbed by `proc` at `ready` pull their
/// density/Fock blocks from the chunk's home stripe as one sized message
/// (task_payload_bytes per task). Returns the time the data is local and
/// execution can start. No-op (returns `ready`) for the legacy model,
/// zero payload, or home-local chunks — so the seed cost structure is
/// untouched unless payload modelling is switched on.
double fetch_task_payload(Run& run, net::NetworkModel& network, int proc,
                          std::int64_t first, std::int64_t count,
                          double ready) {
  const MachineConfig& config = run.config;
  if (network.legacy() || config.network.task_payload_bytes == 0 ||
      count <= 0) {
    return ready;
  }
  const auto n_tasks = static_cast<std::int64_t>(run.costs.size());
  const int home = task_home(first, n_tasks, config.n_procs);
  if (home == proc) return ready;
  const std::size_t bytes =
      config.network.task_payload_bytes * static_cast<std::size_t>(count);
  // Request travels proc -> home uncongested (it is control-sized); the
  // data message home -> proc is the one that occupies links.
  const double request = ready + network.base_latency(proc, home);
  double wait = 0.0;
  const double arrival = network.send(home, proc, request, bytes, &wait);
  if (config.record_trace) {
    record(run.result, TraceEventType::kNetTransfer, proc, ready, arrival,
           first, home);
    if (wait > 0.0) {
      record(run.result, TraceEventType::kLinkWait, proc, request,
             request + wait, first, home);
    }
  }
  return arrival;
}

/// Counter-family events. kIssue pops book the proc's request into the
/// network — pops are globally time-ordered, which keeps link occupancy
/// consistent even though request *arrivals* interleave — and push the
/// matching kArrival. Events are keyed (proc << 1) | kind, so the
/// EventQueue's (time, key) order extends the seed's (arrival, proc)
/// ordering exactly: arrivals are served in the seed order and legacy
/// runs stay bitwise identical.
enum class CounterEv : std::uint8_t { kIssue = 0, kArrival = 1 };

std::uint64_t counter_key(int proc, CounterEv kind) {
  return (static_cast<std::uint64_t>(proc) << 1) |
         static_cast<std::uint64_t>(kind);
}
int counter_proc(std::uint64_t key) { return static_cast<int>(key >> 1); }
CounterEv counter_kind(std::uint64_t key) {
  return static_cast<CounterEv>(key & 1);
}

/// Per-proc retry bookkeeping for dropped one-sided ops.
struct RetryState {
  std::vector<std::uint64_t> op_seq;
  std::vector<int> attempt;

  explicit RetryState(int n_procs)
      : op_seq(static_cast<std::size_t>(n_procs), 0),
        attempt(static_cast<std::size_t>(n_procs), 0) {}

  /// Decides whether the round trip issued by `proc` at `issue` is
  /// dropped. On a drop, records the retry (count, trace event whose
  /// span covers the wasted round trip + backoff) and returns the time
  /// the proc reissues; on success resets the attempt streak and
  /// returns a negative sentinel.
  double resolve(Run& run, int proc, double issue, double rtt, int peer) {
    const auto pu = static_cast<std::size_t>(proc);
    if (run.faults.drop_op(proc, op_seq[pu], attempt[pu])) {
      const double retry_at = issue + rtt + run.faults.backoff(attempt[pu]);
      ++attempt[pu];
      ++run.result.op_retries;
      if (run.config.record_trace) {
        record(run.result, TraceEventType::kOpRetry, proc, issue, retry_at,
               -1, peer);
      }
      return retry_at;
    }
    attempt[pu] = 0;
    ++op_seq[pu];
    return -1.0;
  }
};

/// The one check on every counter-family chunk size. A chunk below 1
/// would never advance the counter, so the run would not terminate.
void check_chunk(std::int64_t chunk) {
  if (chunk < 1) throw std::invalid_argument("simulate: chunk < 1");
}

/// What a work source answers a served request with: the time its home
/// sends the reply, the granted task range [first, last) (empty once the
/// work is exhausted), and the link wait the source itself incurred.
struct Grant {
  double reply = 0.0;
  std::int64_t first = 0;
  std::int64_t last = 0;
  double link_wait = 0.0;
};

/// The flat counter: one shared counter at proc 0, served serially in
/// arrival order and held back by a counter-home outage. It deals tasks
/// [first, n_tasks) in chunks sized by the options' policy.
class FlatCounter {
 public:
  FlatCounter(const MachineConfig& config, std::int64_t n_tasks,
              const CounterOptions& options, std::int64_t first)
      : options_(options),
        n_procs_(config.n_procs),
        n_tasks_(n_tasks),
        next_task_(first) {
    check_chunk(options.chunk);
    // Trapezoid self-scheduling parameters (Tzen & Ni): chunks shrink
    // linearly from tss_first_ to the chunk floor across the expected
    // grab count.
    const std::int64_t chunk_floor = options.chunk;
    tss_first_ = std::max<std::int64_t>(
        chunk_floor, n_tasks / (2 * std::max(n_procs_, 1)));
    const std::int64_t tss_grabs = std::max<std::int64_t>(
        1, 2 * n_tasks / std::max<std::int64_t>(1, tss_first_ + chunk_floor));
    tss_step_ = tss_grabs > 1 ? static_cast<double>(tss_first_ - chunk_floor) /
                                    static_cast<double>(tss_grabs - 1)
                              : 0.0;
  }

  int home(int /*proc*/) const { return 0; }

  Grant serve(Run& run, net::NetworkModel& /*network*/, int /*proc*/,
              double arrival) {
    const double start =
        std::max(run.faults.outage_release(arrival), server_free_);
    server_free_ = start + run.config.counter_service;
    ++run.result.counter_ops;
    const std::int64_t first = next_task_;
    if (first < n_tasks_) {
      next_task_ = std::min(n_tasks_, first + next_chunk(n_tasks_ - first));
      ++grab_index_;
    }
    return {server_free_, first, next_task_, 0.0};
  }

 private:
  std::int64_t next_chunk(std::int64_t remaining) const {
    switch (options_.policy) {
      case ChunkPolicy::kFixed:
        return options_.chunk;
      case ChunkPolicy::kGuided:
        return std::max(options_.chunk,
                        (remaining + n_procs_ - 1) / n_procs_);
      case ChunkPolicy::kTrapezoid: {
        const double c = static_cast<double>(tss_first_) -
                         tss_step_ * static_cast<double>(grab_index_);
        return std::max(options_.chunk, static_cast<std::int64_t>(c));
      }
    }
    return options_.chunk;
  }

  CounterOptions options_;
  int n_procs_;
  std::int64_t n_tasks_;
  std::int64_t next_task_;
  std::int64_t tss_first_ = 0;
  double tss_step_ = 0.0;
  std::int64_t grab_index_ = 0;
  double server_free_ = 0.0;
};

/// The two-level counter: each node's leader proxies a range of
/// `node_chunk` tasks refilled from the global counter at proc 0 (a
/// leader -> proc 0 round trip, serialized there and held by an outage),
/// and deals it to its node's procs `proc_chunk` at a time, serialized at
/// the leader.
class NodeProxyCounter {
 public:
  NodeProxyCounter(const MachineConfig& config, std::int64_t n_tasks,
                   std::int64_t node_chunk, std::int64_t proc_chunk)
      : n_tasks_(n_tasks),
        node_chunk_(node_chunk),
        proc_chunk_(proc_chunk),
        procs_per_node_(config.procs_per_node) {
    check_chunk(node_chunk);
    check_chunk(proc_chunk);
    const auto n_nodes = static_cast<std::size_t>(
        (config.n_procs + procs_per_node_ - 1) / procs_per_node_);
    node_next_.assign(n_nodes, 0);
    node_end_.assign(n_nodes, 0);
    node_free_.assign(n_nodes, 0.0);
  }

  int home(int proc) const {
    return proc / procs_per_node_ * procs_per_node_;
  }

  Grant serve(Run& run, net::NetworkModel& network, int proc,
              double arrival) {
    const MachineConfig& config = run.config;
    const std::size_t ctrl = config.network.control_bytes;
    const int leader = home(proc);
    const auto nu = static_cast<std::size_t>(config.node_of(proc));
    double t = std::max(arrival, node_free_[nu]);
    t += config.counter_service;  // node-counter serialization
    ++run.result.counter_ops;
    double refill_wait = 0.0;
    if (node_next_[nu] >= node_end_[nu] && global_next_ < n_tasks_) {
      // Refill from the global counter; an outage at the global home
      // holds the refill until it ends.
      double up_wait = 0.0;
      const double up = network.send(leader, 0, t, ctrl, &up_wait);
      double g = std::max(run.faults.outage_release(up), global_free_);
      g += config.counter_service;
      global_free_ = g;
      ++run.result.counter_ops;
      node_next_[nu] = global_next_;
      global_next_ = std::min(n_tasks_, global_next_ + node_chunk_);
      node_end_[nu] = global_next_;
      double down_wait = 0.0;
      t = network.send(0, leader, g, ctrl, &down_wait);
      refill_wait = up_wait + down_wait;
    }
    node_free_[nu] = std::max(node_free_[nu], t);
    // node_next_ never passes node_end_, so a dry node grants nothing.
    const std::int64_t first = node_next_[nu];
    node_next_[nu] = std::min(node_end_[nu], first + proc_chunk_);
    return {t, first, node_next_[nu], refill_wait};
  }

 private:
  std::int64_t n_tasks_;
  std::int64_t node_chunk_;
  std::int64_t proc_chunk_;
  int procs_per_node_;
  std::vector<std::int64_t> node_next_;  ///< proxied range [next, end)
  std::vector<std::int64_t> node_end_;
  std::vector<double> node_free_;  ///< when each leader is next free
  double global_free_ = 0.0;
  std::int64_t global_next_ = 0;
};

/// The counter-family event loop, shared by every counter model. Each
/// proc issues its first request at `start[p]`. A kIssue books the
/// request to the source's home into the network; at its kArrival the
/// request may be dropped and retried, or the source serves it and the
/// home replies. A proc retires on an empty grant; otherwise it fetches
/// the chunk's payload, runs the tasks and issues again.
template <class Source>
void run_counter(Run& run, Source& source, std::span<const double> start) {
  const MachineConfig& config = run.config;
  SimResult& result = run.result;
  net::NetworkModel network = make_network(config);
  const std::size_t ctrl = config.network.control_bytes;
  RetryState retries(config.n_procs);
  EventQueue events(config.scheduler, config.n_procs);
  std::vector<double> issue_time(static_cast<std::size_t>(config.n_procs),
                                 0.0);
  std::vector<double> issue_wait(issue_time.size(), 0.0);
  double makespan = 0.0;
  for (int p = 0; p < config.n_procs; ++p) {
    const double t = start[static_cast<std::size_t>(p)];
    events.push(p, t, counter_key(p, CounterEv::kIssue));
    makespan = std::max(makespan, t);
  }

  while (!events.empty()) {
    const SimEvent ev = events.pop();
    ++result.events_processed;
    const int p = counter_proc(ev.key);
    const auto pu = static_cast<std::size_t>(p);
    const int home = source.home(p);
    if (counter_kind(ev.key) == CounterEv::kIssue) {
      issue_time[pu] = ev.time;
      const double arrival =
          network.send(p, home, ev.time, ctrl, &issue_wait[pu]);
      events.push(p, arrival, counter_key(p, CounterEv::kArrival));
      continue;
    }
    const double issue = issue_time[pu];
    const double retry_at = retries.resolve(
        run, p, issue, 2.0 * network.base_latency(p, home), home);
    if (retry_at >= 0.0) {
      // Round trip dropped: the proc times out, backs off, reissues.
      events.push(p, retry_at, counter_key(p, CounterEv::kIssue));
      continue;
    }
    const Grant grant = source.serve(run, network, p, ev.time);
    double resp_wait = 0.0;
    const double response =
        network.send(home, p, grant.reply, ctrl, &resp_wait);
    result.counter_wait += response - issue;

    const bool dry = grant.first >= grant.last;
    if (config.record_trace) {
      record(result, TraceEventType::kCounterOp, p, issue, response,
             dry ? -1 : grant.first, home);
      const double waited = issue_wait[pu] + grant.link_wait + resp_wait;
      if (waited > 0.0) {
        record(result, TraceEventType::kLinkWait, p, issue, issue + waited,
               -1, home);
      }
    }
    if (dry) {
      // Proc learns the work is exhausted and retires.
      makespan = std::max(makespan, response);
      events.retire(p);
      continue;
    }
    double t = fetch_task_payload(run, network, p, grant.first,
                                  grant.last - grant.first, response);
    for (std::int64_t i = grant.first; i < grant.last; ++i) {
      t = run_task(run, p, i, t);
    }
    makespan = std::max(makespan, t);
    events.push(p, t, counter_key(p, CounterEv::kIssue));
  }

  result.makespan = makespan;
  finish_net(config, result, network);
}

}  // namespace

SimResult simulate_static(const MachineConfig& config,
                          std::span<const double> costs,
                          const lb::Assignment& assignment) {
  EMC_PROF_SPAN("sim/static");
  check_inputs(config, costs);
  if (assignment.size() != costs.size()) {
    throw std::invalid_argument("simulate_static: assignment size mismatch");
  }
  lb::validate_assignment(assignment, config.n_procs);

  Run run(config, costs);
  const std::vector<double> finish =
      run_assigned(run, assignment, costs.size());
  run.result.makespan = *std::max_element(finish.begin(), finish.end());
  return std::move(run.result);
}

SimResult simulate_counter(const MachineConfig& config,
                           std::span<const double> costs,
                           std::int64_t chunk) {
  CounterOptions options;
  options.chunk = chunk;
  return simulate_counter(config, costs, options);
}

SimResult simulate_counter(const MachineConfig& config,
                           std::span<const double> costs,
                           const CounterOptions& options) {
  EMC_PROF_SPAN("sim/counter");
  check_inputs(config, costs);
  FlatCounter source(config, static_cast<std::int64_t>(costs.size()), options,
                     0);
  Run run(config, costs);
  run_counter(run, source,
              std::vector<double>(static_cast<std::size_t>(config.n_procs)));
  return std::move(run.result);
}

SimResult simulate_hierarchical_counter(const MachineConfig& config,
                                        std::span<const double> costs,
                                        std::int64_t node_chunk,
                                        std::int64_t proc_chunk) {
  EMC_PROF_SPAN("sim/hier_counter");
  check_inputs(config, costs);
  NodeProxyCounter source(config, static_cast<std::int64_t>(costs.size()),
                          node_chunk, proc_chunk);
  Run run(config, costs);
  run_counter(run, source,
              std::vector<double>(static_cast<std::size_t>(config.n_procs)));
  return std::move(run.result);
}

SimResult simulate_hybrid(const MachineConfig& config,
                          std::span<const double> costs,
                          const lb::Assignment& assignment,
                          double dynamic_fraction, std::int64_t chunk) {
  EMC_PROF_SPAN("sim/hybrid");
  check_inputs(config, costs);
  if (assignment.size() != costs.size()) {
    throw std::invalid_argument("simulate_hybrid: assignment mismatch");
  }
  // Written so that NaN fails too.
  if (!(dynamic_fraction >= 0.0 && dynamic_fraction <= 1.0)) {
    throw std::invalid_argument(
        "simulate_hybrid: dynamic_fraction outside [0,1]");
  }
  lb::validate_assignment(assignment, config.n_procs);

  // Split point: the task index after which the remaining *cost* is the
  // requested dynamic fraction of the total.
  double total = 0.0;
  for (double c : costs) total += c;
  std::int64_t split = static_cast<std::int64_t>(costs.size());
  double tail = 0.0;
  while (split > 0 && tail < dynamic_fraction * total) {
    tail += costs[static_cast<std::size_t>(split - 1)];
    --split;
  }

  // The tail is the flat counter with fixed chunks from `split`; procs
  // join it as they finish their static prefix.
  CounterOptions options;
  options.chunk = chunk;
  FlatCounter source(config, static_cast<std::int64_t>(costs.size()), options,
                     split);
  Run run(config, costs);
  const std::vector<double> finish =
      run_assigned(run, assignment, static_cast<std::size_t>(split));
  run_counter(run, source, finish);
  return std::move(run.result);
}

SimResult simulate_work_stealing(const MachineConfig& config,
                                 std::span<const double> costs,
                                 const lb::Assignment& initial,
                                 const StealOptions& options,
                                 std::vector<int>* executed_by) {
  EMC_PROF_SPAN("sim/work_stealing");
  check_inputs(config, costs);
  if (initial.size() != costs.size()) {
    throw std::invalid_argument(
        "simulate_work_stealing: assignment size mismatch");
  }
  lb::validate_assignment(initial, config.n_procs);

  Run run(config, costs);
  SimResult& result = run.result;
  RetryState retries(config.n_procs);
  net::NetworkModel network = make_network(config);
  const std::size_t ctrl = config.network.control_bytes;
  const auto n_procs = static_cast<std::size_t>(config.n_procs);
  if (executed_by != nullptr) {
    executed_by->assign(costs.size(), -1);
  }

  // Per-proc LIFO queues (pooled chunked rings); thieves take from the
  // front (oldest tasks).
  TaskRingPool queues(config.n_procs,
                      static_cast<std::int64_t>(costs.size()));
  for (std::size_t t = 0; t < initial.size(); ++t) {
    queues.push_back(initial[t], static_cast<std::int64_t>(t));
  }
  std::size_t total_queued = costs.size();

  // Events are keyed by a monotone sequence number packed above the proc
  // id: the (time, seq) order is the seed's deterministic tie-break, and
  // the proc rides along in the low bits.
  EventQueue events(config.scheduler, config.n_procs);
  std::uint64_t seq = 0;
  auto event_key = [](std::uint64_t s, int proc) {
    return (s << kProcBits) | static_cast<std::uint64_t>(proc);
  };
  for (int p = 0; p < config.n_procs; ++p) {
    events.push(p, 0.0, event_key(seq++, p));
  }

  emc::Rng rng(options.seed);
  double makespan = 0.0;
  // Per-proc state for the non-uniform victim policies.
  std::vector<std::uint64_t> attempt_count(n_procs, 0);

  auto pick_victim = [&](int thief) -> int {
    if (config.n_procs < 2) return thief;  // degenerate single-proc run
    switch (options.victim) {
      case VictimPolicy::kUniform: {
        const int raw = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.n_procs - 1)));
        return raw >= thief ? raw + 1 : raw;
      }
      case VictimPolicy::kRing: {
        const auto tu = static_cast<std::size_t>(thief);
        const int offset =
            1 + static_cast<int>(attempt_count[tu]++ %
                                 static_cast<std::uint64_t>(
                                     config.n_procs - 1));
        return (thief + offset) % config.n_procs;
      }
      case VictimPolicy::kNodeFirst: {
        const auto tu = static_cast<std::size_t>(thief);
        const int node = config.node_of(thief);
        const int node_first = node * config.procs_per_node;
        const int node_last =
            std::min(config.n_procs, node_first + config.procs_per_node);
        const int node_size = node_last - node_first;
        // Alternate: even attempts stay on-node (when possible), odd
        // attempts go anywhere — local theft is cheap, remote theft
        // keeps progress when the node is dry.
        const bool local = (attempt_count[tu]++ % 2 == 0) && node_size > 1;
        if (local) {
          const int raw = node_first + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(node_size - 1)));
          return raw >= thief ? raw + 1 : raw;
        }
        const int raw = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.n_procs - 1)));
        return raw >= thief ? raw + 1 : raw;
      }
    }
    return thief;
  };

  auto execute = [&](int p, std::int64_t task, double start) {
    if (executed_by != nullptr) {
      (*executed_by)[static_cast<std::size_t>(task)] = p;
    }
    const double done = run_task(run, p, task, start);
    makespan = std::max(makespan, done);
    events.push(p, done, event_key(seq++, p));
  };

  while (!events.empty()) {
    const SimEvent ev = events.pop();
    ++result.events_processed;
    const int proc = static_cast<int>(ev.key & ((1u << kProcBits) - 1));

    if (!queues.empty(proc)) {
      const std::int64_t task = queues.pop_back(proc);
      --total_queued;
      execute(proc, task, ev.time);
      continue;
    }
    if (total_queued == 0 || config.n_procs == 1) {
      events.retire(proc);  // park: nothing left to steal
      continue;
    }

    // Steal attempt at a policy-selected victim.
    const int victim = pick_victim(proc);
    const double rtt = 2.0 * network.base_latency(proc, victim);
    const double retry_at =
        retries.resolve(run, proc, ev.time, rtt, victim);
    if (retry_at >= 0.0) {
      // Steal request dropped in flight: back off and try again.
      events.push(proc, retry_at, event_key(seq++, proc));
      continue;
    }
    ++result.steal_attempts;

    if (queues.empty(victim)) {
      double wait = 0.0;
      const double response =
          network.round_trip(proc, victim, ev.time, ctrl, ctrl, &wait);
      result.steal_wait += response - ev.time;
      if (config.record_trace) {
        record(result, TraceEventType::kStealFail, proc, ev.time,
               response, -1, victim);
        if (wait > 0.0) {
          record(result, TraceEventType::kLinkWait, proc, ev.time,
                 ev.time + wait, -1, victim);
        }
      }
      events.push(proc, response + config.steal_fail_retry,
                  event_key(seq++, proc));
      continue;
    }

    ++result.steals;
    const std::int64_t task = queues.pop_front(victim);
    --total_queued;
    std::size_t migrated = 0;
    if (options.steal_half) {
      // Migrate up to half of the victim's remaining queue.
      std::size_t extra = queues.size(victim) / 2;
      migrated = extra;
      while (extra-- > 0) {
        queues.push_back(proc, queues.pop_front(victim));
      }
    }
    // The response carries the stolen task(s): control header plus one
    // payload per migrated task (zero under the legacy model).
    const std::size_t resp_bytes =
        ctrl + (1 + migrated) * config.network.task_payload_bytes;
    double wait = 0.0;
    const double response = network.round_trip(proc, victim, ev.time,
                                               ctrl, resp_bytes, &wait);
    result.steal_wait += response - ev.time;
    if (config.record_trace) {
      record(result, TraceEventType::kStealSuccess, proc, ev.time,
             response, task, victim);
      if (wait > 0.0) {
        record(result, TraceEventType::kLinkWait, proc, ev.time,
               ev.time + wait, task, victim);
      }
    }
    execute(proc, task, response);
  }

  result.makespan = makespan;
  finish_net(config, result, network);
  return std::move(run.result);
}

std::vector<SimResult> simulate_retentive(const MachineConfig& config,
                                          std::span<const double> costs,
                                          const lb::Assignment& initial,
                                          int iterations,
                                          const StealOptions& options) {
  EMC_PROF_SPAN("sim/retentive");
  std::vector<SimResult> rounds;
  lb::Assignment current = initial;
  std::vector<int> executed_by;
  for (int round = 0; round < iterations; ++round) {
    StealOptions round_options = options;
    round_options.seed = options.seed + static_cast<std::uint64_t>(round);
    rounds.push_back(simulate_work_stealing(config, costs, current,
                                            round_options, &executed_by));
    current.assign(executed_by.begin(), executed_by.end());
  }
  return rounds;
}

std::vector<SimResult> simulate_persistence(
    const MachineConfig& config, std::span<const double> costs,
    const lb::Assignment& initial, int iterations,
    double rebalance_cost_seconds) {
  EMC_PROF_SPAN("sim/persistence");
  if (rebalance_cost_seconds < 0.0) {
    throw std::invalid_argument(
        "simulate_persistence: negative rebalance cost");
  }
  std::vector<SimResult> rounds;
  if (iterations < 1) return rounds;

  rounds.push_back(simulate_static(config, costs, initial));
  if (iterations == 1) return rounds;

  // After round 1 the true task costs are known; LPT over them is the
  // persistence-based static assignment used for every later round.
  const lb::Assignment balanced =
      lb::lpt_assignment(costs, config.n_procs);
  for (int round = 1; round < iterations; ++round) {
    SimResult r = simulate_static(config, costs, balanced);
    r.makespan += rebalance_cost_seconds;
    rounds.push_back(std::move(r));
  }
  return rounds;
}

}  // namespace emc::sim
