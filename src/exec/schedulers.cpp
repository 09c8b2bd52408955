#include "exec/schedulers.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "exec/ws_deque.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace emc::exec {

std::int64_t ExecutionStats::total_tasks() const {
  std::int64_t n = 0;
  for (const auto& r : ranks) n += r.tasks_executed;
  return n;
}

std::int64_t ExecutionStats::total_steals() const {
  std::int64_t n = 0;
  for (const auto& r : ranks) n += r.steals;
  return n;
}

double ExecutionStats::utilization() const {
  if (ranks.empty() || wall_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& r : ranks) busy += r.busy_seconds;
  return busy / (wall_seconds * static_cast<double>(ranks.size()));
}

namespace {

/// Ascending unit list per rank.
std::vector<std::vector<std::int64_t>> rank_units(
    const lb::Assignment& placement, int n_ranks) {
  lb::validate_assignment(placement, n_ranks);
  std::vector<std::vector<std::int64_t>> units(
      static_cast<std::size_t>(n_ranks));
  for (std::size_t u = 0; u < placement.size(); ++u) {
    units[static_cast<std::size_t>(placement[u])].push_back(
        static_cast<std::int64_t>(u));
  }
  return units;
}

/// Decorrelated per-executor victim-selection seed.
std::uint64_t executor_seed(std::uint64_t base, int rank, int tid,
                            int threads) {
  std::uint64_t s = base ^
                    (static_cast<std::uint64_t>(rank) *
                         static_cast<std::uint64_t>(threads) +
                     static_cast<std::uint64_t>(tid) + 1) *
                        0x9e3779b97f4a7c15ULL;
  return splitmix64(s);
}

}  // namespace

Engine::Engine(pgas::Runtime& runtime, int threads)
    : runtime_(&runtime), threads_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("exec::Engine: threads must be >= 1");
  }
  pools_.reserve(static_cast<std::size_t>(runtime.size()));
  for (int r = 0; r < runtime.size(); ++r) {
    pools_.push_back(std::make_unique<ThreadPool>(threads));
  }
}

// Runs loop(ctx, tid, stats, aborted) on every executor, sums the
// executors' stats per rank, and times the whole run.
template <typename Loop>
ExecutionStats Engine::dispatch(const Loop& loop) {
  ExecutionStats stats;
  stats.ranks.resize(static_cast<std::size_t>(runtime_->size()));
  std::atomic<bool> aborted{false};
  emc::Timer wall;
  runtime_->run([&](pgas::Context& ctx) {
    const auto ru = static_cast<std::size_t>(ctx.rank());
    std::vector<RankStats> per_thread(static_cast<std::size_t>(threads_));
    pools_[ru]->run([&](int tid) {
      try {
        loop(ctx, tid, per_thread[static_cast<std::size_t>(tid)], aborted);
      } catch (...) {
        // Unblock every spinning executor before propagating.
        aborted.store(true, std::memory_order_relaxed);
        throw;
      }
    });
    RankStats& mine = stats.ranks[ru];
    for (const RankStats& ts : per_thread) {
      mine.tasks_executed += ts.tasks_executed;
      mine.busy_seconds += ts.busy_seconds;
      mine.steal_attempts += ts.steal_attempts;
      mine.steals += ts.steals;
      mine.counter_ops += ts.counter_ops;
    }
  });
  stats.wall_seconds = wall.seconds();
  return stats;
}

ExecutionStats Engine::run_static(const lb::Assignment& placement,
                                  const UnitBody& body) {
  const auto units = rank_units(placement, runtime_->size());
  return dispatch([&](pgas::Context& ctx, int tid, RankStats& ts,
                      const std::atomic<bool>& aborted) {
    const auto& mine = units[static_cast<std::size_t>(ctx.rank())];
    for (auto i = static_cast<std::size_t>(tid);
         i < mine.size() && !aborted.load(std::memory_order_relaxed);
         i += static_cast<std::size_t>(threads_)) {
      body(mine[i], ctx.rank(), ts);
    }
  });
}

ExecutionStats Engine::run_counter(Scope scope,
                                   const lb::Assignment& placement,
                                   std::int64_t chunk, const UnitBody& body) {
  if (chunk < 1) throw std::invalid_argument("run_counter: chunk < 1");
  const bool global = scope == Scope::kGlobal;
  const int n_ranks = runtime_->size();
  const auto units = global ? std::vector<std::vector<std::int64_t>>{}
                            : rank_units(placement, n_ranks);
  const auto n_units = static_cast<std::int64_t>(placement.size());
  // One nxtval for everyone, or one per rank. A rank-local fetch_add is
  // a real atomic, not a network round trip, so it is priced free.
  std::vector<pgas::GlobalCounter> counters(
      global ? 1 : static_cast<std::size_t>(n_ranks));
  if (global && runtime_->metrics() != nullptr) {
    counters[0].attach_metrics(*runtime_->metrics(), n_ranks);
  }
  const pgas::CommCostModel free_cost{};
  return dispatch([&](pgas::Context& ctx, int, RankStats& ts,
                      const std::atomic<bool>& aborted) {
    const int rank = ctx.rank();
    const auto ru = static_cast<std::size_t>(rank);
    pgas::GlobalCounter& counter = counters[global ? 0 : ru];
    const pgas::CommCostModel& cost = global ? ctx.cost_model() : free_cost;
    const std::int64_t count =
        global ? n_units : static_cast<std::int64_t>(units[ru].size());
    while (!aborted.load(std::memory_order_relaxed)) {
      const std::int64_t first = counter.fetch_add(chunk, cost, rank);
      ++ts.counter_ops;
      if (first >= count) break;
      const std::int64_t last = std::min(first + chunk, count);
      for (std::int64_t i = first;
           i < last && !aborted.load(std::memory_order_relaxed); ++i) {
        body(global ? i : units[ru][static_cast<std::size_t>(i)], rank, ts);
      }
    }
  });
}

ExecutionStats Engine::run_work_stealing(Scope scope,
                                         const lb::Assignment& placement,
                                         std::uint64_t seed,
                                         const UnitBody& body) {
  const bool global = scope == Scope::kGlobal;
  const int n_ranks = runtime_->size();
  const auto threads = static_cast<std::size_t>(threads_);
  const auto units = rank_units(placement, n_ranks);

  // One deque per executor (rank-major), each able to hold every unit,
  // so steal-half migrations can never overflow anyone. Each rank deals
  // its units cyclically over its threads, pushed in descending order so
  // owner pops run them ascending.
  std::vector<std::unique_ptr<WsDeque>> deques(
      static_cast<std::size_t>(n_ranks) * threads);
  for (auto& d : deques) {
    d = std::make_unique<WsDeque>(std::max<std::size_t>(1, placement.size()));
  }
  // Units still to run: one count for everyone, or one per rank.
  std::vector<std::atomic<std::int64_t>> remaining(
      global ? 1 : static_cast<std::size_t>(n_ranks));
  for (std::size_t r = 0; r < units.size(); ++r) {
    const auto& mine = units[r];
    for (std::size_t i = mine.size(); i-- > 0;) {
      deques[r * threads + i % threads]->push(mine[i]);
    }
    remaining[global ? 0 : r] += static_cast<std::int64_t>(mine.size());
  }

  return dispatch([&](pgas::Context& ctx, int tid, RankStats& ts,
                      const std::atomic<bool>& aborted) {
    const int rank = ctx.rank();
    const std::size_t base = static_cast<std::size_t>(rank) * threads;
    WsDeque& my_deque = *deques[base + static_cast<std::size_t>(tid)];
    std::atomic<std::int64_t>& left =
        remaining[global ? 0 : static_cast<std::size_t>(rank)];
    emc::Rng rng(executor_seed(seed, rank, tid, threads_));

    const auto execute = [&](std::int64_t unit) {
      body(unit, rank, ts);
      left.fetch_sub(1, std::memory_order_relaxed);
    };
    const auto steal_from = [&](WsDeque& victim) {
      ++ts.steal_attempts;
      const auto stolen = victim.steal();
      if (!stolen) return false;
      ++ts.steals;
      // Migrate up to half of the victim's remaining queue, then run the
      // first stolen unit.
      for (std::int64_t extra = victim.size_estimate() / 2; extra > 0;
           --extra) {
        const auto more = victim.steal();
        if (!more) break;
        my_deque.push(*more);
      }
      execute(*stolen);
      return true;
    };

    while (left.load(std::memory_order_relaxed) > 0 &&
           !aborted.load(std::memory_order_relaxed)) {
      if (const auto unit = my_deque.pop()) {
        execute(*unit);
        continue;
      }
      if (threads_ > 1) {
        auto vt = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(threads_ - 1)));
        if (vt >= tid) ++vt;
        if (steal_from(*deques[base + static_cast<std::size_t>(vt)])) {
          continue;
        }
      }
      if (global && n_ranks > 1) {
        const auto pick = static_cast<std::size_t>(rng.below(
            static_cast<std::uint64_t>(n_ranks - 1) * threads));
        auto vr = static_cast<int>(pick / threads);
        if (vr >= rank) ++vr;
        pgas::inject_delay(ctx.cost_model().remote_ns);
        steal_from(*deques[static_cast<std::size_t>(vr) * threads +
                           pick % threads]);
      }
    }
  });
}

namespace {

/// A task body timed as one unit of work; records the executing rank in
/// `executed_by` when given.
UnitBody timed(const TaskBody& body, std::vector<int>* executed_by = nullptr) {
  return [&body, executed_by](std::int64_t t, int rank, RankStats& stats) {
    emc::Timer busy;
    body(t, rank);
    stats.busy_seconds += busy.seconds();
    ++stats.tasks_executed;
    if (executed_by != nullptr) {
      (*executed_by)[static_cast<std::size_t>(t)] = rank;
    }
  };
}

void check_assignment(std::int64_t n_tasks, const lb::Assignment& assignment,
                      const char* what) {
  if (n_tasks < 0 ||
      static_cast<std::int64_t>(assignment.size()) != n_tasks) {
    throw std::invalid_argument(std::string(what) +
                                ": assignment size mismatch");
  }
}

}  // namespace

ExecutionStats run_static(pgas::Runtime& runtime, std::int64_t n_tasks,
                          const lb::Assignment& assignment,
                          const TaskBody& body) {
  check_assignment(n_tasks, assignment, "run_static");
  return Engine(runtime, 1).run_static(assignment, timed(body));
}

ExecutionStats run_counter(pgas::Runtime& runtime, std::int64_t n_tasks,
                           std::int64_t chunk, const TaskBody& body) {
  if (n_tasks < 0) throw std::invalid_argument("run_counter: n_tasks < 0");
  return Engine(runtime, 1).run_counter(
      Scope::kGlobal, lb::Assignment(static_cast<std::size_t>(n_tasks), 0),
      chunk, timed(body));
}

ExecutionStats run_work_stealing(pgas::Runtime& runtime,
                                 std::int64_t n_tasks,
                                 const lb::Assignment& initial,
                                 const TaskBody& body,
                                 const WorkStealingOptions& options,
                                 std::vector<int>* executed_by) {
  check_assignment(n_tasks, initial, "run_work_stealing");
  if (executed_by != nullptr) {
    executed_by->assign(static_cast<std::size_t>(n_tasks), -1);
  }
  return Engine(runtime, 1).run_work_stealing(
      Scope::kGlobal, initial, options.seed, timed(body, executed_by));
}

std::vector<ExecutionStats> run_retentive_work_stealing(
    pgas::Runtime& runtime, std::int64_t n_tasks,
    const lb::Assignment& initial, const TaskBody& body, int iterations,
    const WorkStealingOptions& options) {
  std::vector<ExecutionStats> per_round;
  lb::Assignment current = initial;
  std::vector<int> executed_by;
  for (int round = 0; round < iterations; ++round) {
    per_round.push_back(run_work_stealing(runtime, n_tasks, current, body,
                                          options, &executed_by));
    // Retention: next round starts where the steals moved the work.
    current.assign(executed_by.begin(), executed_by.end());
  }
  return per_round;
}

}  // namespace emc::exec
