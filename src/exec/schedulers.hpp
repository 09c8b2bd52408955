#pragma once

// The execution models under study, as real multithreaded schedulers over
// the PGAS runtime:
//
//   * static       — tasks pre-assigned; no runtime redistribution
//   * counter      — GA-nxtval dynamic chunked self-scheduling
//   * work stealing — per-executor Chase–Lev deques, random victims
//   * retentive WS — iterative work stealing that re-seeds each iteration
//                    with the previous iteration's final task placement
//
// Engine holds the one loop per model. Each loop runs over R ranks (the
// pgas::Runtime) × T threads (one ThreadPool per rank; a pool of 1 spawns
// no threads). The run_* free functions drive it with one thread per rank;
// the hybrid Fock build (core::DistributedFockBuilder) drives it with T.
// Every loop returns per-rank accounting so benches can report
// utilization and overhead anatomy.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"
#include "lb/partition.hpp"
#include "pgas/runtime.hpp"

namespace emc::exec {

/// Task body: invoked exactly once per task index, on the executing rank.
using TaskBody = std::function<void(std::int64_t task, int rank)>;

struct RankStats {
  std::int64_t tasks_executed = 0;
  double busy_seconds = 0.0;        ///< time inside task bodies
  std::int64_t steal_attempts = 0;
  std::int64_t steals = 0;          ///< successful steals
  std::int64_t counter_ops = 0;
};

struct ExecutionStats {
  double wall_seconds = 0.0;
  std::vector<RankStats> ranks;

  std::int64_t total_tasks() const;
  std::int64_t total_steals() const;
  /// Mean over ranks of busy/wall — the utilization metric of EXP-3.
  double utilization() const;
};

/// Engine body: runs `unit` on one executor of `rank` and does its own
/// accounting (tasks_executed, busy_seconds) into `stats`, the
/// executor's private RankStats, which the engine sums per rank.
using UnitBody =
    std::function<void(std::int64_t unit, int rank, RankStats& stats)>;

/// Where a dynamic model balances its units.
enum class Scope {
  kRankLocal,  ///< among one rank's threads, over that rank's own units
  kGlobal,     ///< among all ranks × threads, over every unit
};

/// Runs units 0..placement.size()-1 under one execution model on every
/// executor (rank, thread). placement[u] is the rank that owns unit u at
/// the start. A throwing body stops every executor and the first
/// exception is rethrown once all have joined.
class Engine {
 public:
  /// One `threads`-wide pool per rank of `runtime`, reused by every run.
  /// Throws std::invalid_argument when threads < 1.
  Engine(pgas::Runtime& runtime, int threads);

  /// Each rank's threads take cyclic slices of its units, ascending.
  ExecutionStats run_static(const lb::Assignment& placement,
                            const UnitBody& body);

  /// Executors grab `chunk` units per fetch_add. kGlobal: one shared
  /// counter over the unit ids, priced by the runtime's cost model (the
  /// placement only sizes it). kRankLocal: a free rank-private counter
  /// over the rank's own units. Throws std::invalid_argument for chunk < 1.
  ExecutionStats run_counter(Scope scope, const lb::Assignment& placement,
                             std::int64_t chunk, const UnitBody& body);

  /// Chase–Lev work stealing with steal-half migration. Each rank deals
  /// its units cyclically over its threads' deques. An idle executor
  /// tries a random co-thread, then (kGlobal only) a random thread of
  /// another rank after the runtime's remote latency. `seed` seeds the
  /// per-executor victim RNGs.
  ExecutionStats run_work_stealing(Scope scope,
                                   const lb::Assignment& placement,
                                   std::uint64_t seed, const UnitBody& body);

 private:
  template <typename Loop>
  ExecutionStats dispatch(const Loop& loop);

  pgas::Runtime* runtime_;
  int threads_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

/// Runs tasks under a fixed assignment (assignment[t] = rank).
ExecutionStats run_static(pgas::Runtime& runtime, std::int64_t n_tasks,
                          const lb::Assignment& assignment,
                          const TaskBody& body);

/// Runs tasks via a shared global counter; each grab takes `chunk` tasks.
ExecutionStats run_counter(pgas::Runtime& runtime, std::int64_t n_tasks,
                           std::int64_t chunk, const TaskBody& body);

struct WorkStealingOptions {
  std::uint64_t seed = 7;    ///< victim-selection RNG seed
};

/// Work stealing from an initial assignment. If `executed_by` is non-null
/// it receives, per task, the rank that ran it (for retentive reuse).
ExecutionStats run_work_stealing(pgas::Runtime& runtime,
                                 std::int64_t n_tasks,
                                 const lb::Assignment& initial,
                                 const TaskBody& body,
                                 const WorkStealingOptions& options = {},
                                 std::vector<int>* executed_by = nullptr);

/// Runs `iterations` rounds of the same task list (an SCF-like iterative
/// kernel). Round 1 starts from `initial`; each later round starts from
/// where the previous round's steals left the tasks. Returns stats per
/// round.
std::vector<ExecutionStats> run_retentive_work_stealing(
    pgas::Runtime& runtime, std::int64_t n_tasks,
    const lb::Assignment& initial, const TaskBody& body, int iterations,
    const WorkStealingOptions& options = {});

}  // namespace emc::exec
