// Event-scheduler backends (sim/event_queue.hpp), the pooled task rings
// (sim/task_ring.hpp), and the cross-scheduler determinism contract:
// every simulator must produce bitwise-identical SimResults whether it
// drains the per-proc tournament tree or the calendar queue — across
// execution models, fault models, and network topologies — and both
// backends must pop exactly what a std::priority_queue oracle pops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "lb/simple.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulators.hpp"
#include "sim/task_ring.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc;
using namespace emc::sim;

// --- EventQueue unit tests -----------------------------------------------

constexpr SchedulerKind kBothKinds[] = {SchedulerKind::kBinaryHeap,
                                        SchedulerKind::kCalendarQueue};

/// Test events carry their proc in the low key bits, as the simulators'
/// keys do, so a drain knows which proc to retire.
constexpr int kTestProcBits = 20;

std::uint64_t test_key(std::uint64_t tie, int proc) {
  return (tie << kTestProcBits) | static_cast<std::uint64_t>(proc);
}

int test_proc(std::uint64_t key) {
  return static_cast<int>(key & ((1u << kTestProcBits) - 1));
}

/// The std::priority_queue order oracle the tree backend replaced.
struct EventGreater {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    return a.time != b.time ? a.time > b.time : a.key > b.key;
  }
};
using OracleQueue =
    std::priority_queue<SimEvent, std::vector<SimEvent>, EventGreater>;

/// Drains `queue`, retiring each popped proc, and asserts the pop order
/// matches sorting `pushed` by (time, key).
void expect_sorted_drain(EventQueue& queue,
                         std::vector<SimEvent> pushed) {
  std::sort(pushed.begin(), pushed.end(),
            [](const SimEvent& a, const SimEvent& b) {
              return a.time != b.time ? a.time < b.time : a.key < b.key;
            });
  for (const SimEvent& want : pushed) {
    ASSERT_FALSE(queue.empty());
    const SimEvent got = queue.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.key, want.key);
    queue.retire(test_proc(got.key));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PopsInTimeKeyOrderBothBackends) {
  for (SchedulerKind kind : kBothKinds) {
    EventQueue queue(kind, 5000);
    Rng rng(42);
    std::vector<SimEvent> pushed;
    for (int p = 0; p < 5000; ++p) {
      const double t = rng.uniform() * 1e-3;
      queue.push(p, t, test_key(0, p));
      pushed.push_back(SimEvent{t, test_key(0, p)});
    }
    EXPECT_EQ(queue.size(), pushed.size());
    expect_sorted_drain(queue, pushed);
  }
}

TEST(EventQueue, EqualTimesBreakTiesByKey) {
  for (SchedulerKind kind : kBothKinds) {
    EventQueue queue(kind, 1000);
    // A burst of equal timestamps (the t=0 initial-event burst every
    // simulator produces) must pop in key order.
    std::vector<SimEvent> pushed;
    for (int p = 999; p >= 0; --p) {
      queue.push(p, 0.0, test_key(0, p));
      pushed.push_back(SimEvent{0.0, test_key(0, p)});
    }
    expect_sorted_drain(queue, pushed);
  }
}

TEST(EventQueue, InterleavedPushPopStaysOrdered) {
  // DES-style usage: each pop re-arms its proc at a later time,
  // occasionally far in the future (forcing bucket-year wraparounds).
  EventQueue tree(SchedulerKind::kBinaryHeap, 64);
  EventQueue cal(SchedulerKind::kCalendarQueue, 64);
  Rng rng(7);
  std::uint64_t seq = 0;
  for (int p = 0; p < 64; ++p) {
    tree.push(p, 0.0, test_key(seq, p));
    cal.push(p, 0.0, test_key(seq, p));
    ++seq;
  }
  for (int step = 0; step < 20000; ++step) {
    ASSERT_EQ(tree.empty(), cal.empty());
    if (tree.empty()) break;
    const SimEvent a = tree.pop();
    const SimEvent b = cal.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.key, b.key);
    const int p = test_proc(a.key);
    if (step < 15000) {
      // Mostly small increments; sometimes a jump far past the year.
      const double jump =
          rng.uniform() < 0.01 ? rng.uniform() * 1e2 : rng.uniform() * 1e-6;
      tree.push(p, a.time + jump, test_key(seq, p));
      cal.push(p, a.time + jump, test_key(seq, p));
      ++seq;
    } else {
      tree.retire(p);
      cal.retire(p);
    }
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(cal.empty());
}

TEST(EventQueue, GrowsAndShrinksThroughPopulationSwings) {
  EventQueue cal(SchedulerKind::kCalendarQueue, 100000);
  std::vector<SimEvent> pushed;
  Rng rng(11);
  // Grow to 100k events (many rebuilds), then drain (shrink rebuilds).
  for (int p = 0; p < 100000; ++p) {
    const double t = rng.uniform() * 10.0;
    cal.push(p, t, test_key(0, p));
    pushed.push_back(SimEvent{t, test_key(0, p)});
  }
  EXPECT_EQ(cal.size(), pushed.size());
  expect_sorted_drain(cal, pushed);
}

TEST(EventQueue, PushBeforeCurrentEpochRewinds) {
  EventQueue cal(SchedulerKind::kCalendarQueue, 3);
  cal.push(0, 1.0, 1);
  EXPECT_EQ(cal.pop().key, 1u);
  cal.retire(0);
  // The scan day is now around t=1.0; an earlier event must still pop
  // first against a later one.
  cal.push(1, 2.0, 2);
  cal.push(2, 0.5, 3);
  EXPECT_EQ(cal.pop().key, 3u);
  cal.retire(2);
  EXPECT_EQ(cal.pop().key, 2u);
  cal.retire(1);
  EXPECT_TRUE(cal.empty());
}

TEST(EventQueue, MatchesPriorityQueueOracleOnRandomProcSequences) {
  // Random per-proc lives: each popped proc is re-armed (often at the
  // same time, so equal-time ties are common and broken by a random
  // key), or retired; retired procs are woken again at random. Every
  // pop must match the std::priority_queue drain of the same events.
  for (const int procs : {1, 2, 3, 64, 4097}) {
    for (SchedulerKind kind : kBothKinds) {
      SCOPED_TRACE(std::string(scheduler_name(kind)) + " P=" +
                   std::to_string(procs));
      EventQueue queue(kind, procs);
      OracleQueue oracle;
      Rng rng(static_cast<std::uint64_t>(procs) * 31 + 5);
      std::vector<int> idle;
      auto arm = [&](int p, double t) {
        const SimEvent ev{t, test_key(rng.below(8), p)};
        queue.push(p, ev.time, ev.key);
        oracle.push(ev);
      };
      for (int p = 0; p < procs; ++p) {
        if (rng.uniform() < 0.8) {
          arm(p, static_cast<double>(rng.below(4)) * 0.25);
        } else {
          idle.push_back(p);
        }
      }
      for (int step = 0; step < 30000 && !oracle.empty(); ++step) {
        ASSERT_EQ(queue.size(), oracle.size());
        const SimEvent got = queue.pop();
        const SimEvent want = oracle.top();
        oracle.pop();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.key, want.key);
        const int p = test_proc(got.key);
        if (!idle.empty() && rng.uniform() < 0.2) {
          // Wake an idle proc while the popped event is outstanding.
          const std::size_t i = rng.below(idle.size());
          const int woken = idle[i];
          idle[i] = idle.back();
          idle.pop_back();
          arm(woken, got.time + static_cast<double>(rng.below(3)) * 0.5);
        }
        if (step < 25000 && rng.uniform() < 0.75) {
          arm(p, got.time + static_cast<double>(rng.below(3)) * 0.25);
        } else {
          queue.retire(p);
          idle.push_back(p);
        }
      }
      while (!oracle.empty()) {
        const SimEvent got = queue.pop();
        ASSERT_EQ(got.time, oracle.top().time);
        ASSERT_EQ(got.key, oracle.top().key);
        oracle.pop();
        queue.retire(test_proc(got.key));
      }
      EXPECT_TRUE(queue.empty());
    }
  }
}

TEST(EventQueue, PushRejectsALiveProc) {
  for (SchedulerKind kind : kBothKinds) {
    EventQueue queue(kind, 4);
    queue.push(0, 1.0, test_key(0, 0));
    EXPECT_THROW(queue.push(0, 2.0, test_key(1, 0)), std::logic_error);
    queue.push(1, 0.5, test_key(0, 1));
    EXPECT_EQ(test_proc(queue.pop().key), 1);
    // Proc 0 still holds its event; only the popped proc 1 may re-arm.
    EXPECT_THROW(queue.push(0, 3.0, test_key(2, 0)), std::logic_error);
    queue.push(1, 4.0, test_key(1, 1));
    EXPECT_THROW(queue.push(1, 5.0, test_key(2, 1)), std::logic_error);
    EXPECT_EQ(queue.size(), 2u);
  }
}

TEST(EventQueue, PushRejectsNegativeAndNonFiniteTimes) {
  for (SchedulerKind kind : kBothKinds) {
    EventQueue queue(kind, 2);
    for (double bad : {-1.0, -1e-300, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      EXPECT_THROW(queue.push(0, bad, 0), std::invalid_argument) << bad;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_THROW(queue.push(2, 0.0, 0), std::out_of_range);
    EXPECT_THROW(queue.push(-1, 0.0, 0), std::out_of_range);
    EXPECT_THROW(EventQueue(kind, 0), std::invalid_argument);
  }
}

TEST(EventQueue, NegativeZeroTiesWithZero) {
  for (SchedulerKind kind : kBothKinds) {
    EventQueue queue(kind, 3);
    // -0.0's bit pattern is above every positive double's; it must be
    // stored as +0.0 so it pops first and ties with 0.0 by key.
    queue.push(0, 1e-300, test_key(0, 0));
    queue.push(1, -0.0, test_key(5, 1));
    queue.push(2, 0.0, test_key(3, 2));
    const SimEvent first = queue.pop();
    EXPECT_EQ(first.key, test_key(3, 2));
    queue.retire(2);
    const SimEvent second = queue.pop();
    EXPECT_EQ(second.key, test_key(5, 1));
    EXPECT_EQ(second.time, 0.0);
    EXPECT_FALSE(std::signbit(second.time));
    queue.retire(1);
    EXPECT_EQ(queue.pop().key, test_key(0, 0));
  }
}

TEST(EventQueue, PopRequiresTheLastPopToBeSettled) {
  for (SchedulerKind kind : kBothKinds) {
    EventQueue queue(kind, 2);
    EXPECT_THROW(queue.pop(), std::logic_error);  // empty
    queue.push(0, 1.0, test_key(0, 0));
    queue.push(1, 2.0, test_key(0, 1));
    EXPECT_THROW(queue.retire(0), std::logic_error);  // nothing popped
    EXPECT_EQ(test_proc(queue.pop().key), 0);
    EXPECT_THROW(queue.pop(), std::logic_error);  // proc 0 not settled
    EXPECT_THROW(queue.retire(1), std::logic_error);  // 1 is still live
    queue.retire(0);
    EXPECT_THROW(queue.retire(0), std::logic_error);  // already retired
    EXPECT_EQ(test_proc(queue.pop().key), 1);
    queue.retire(1);
    EXPECT_TRUE(queue.empty());
    EXPECT_THROW(queue.pop(), std::logic_error);
  }
}

TEST(EventQueue, ParsesAndNamesSchedulers) {
  EXPECT_EQ(parse_scheduler("heap"), SchedulerKind::kBinaryHeap);
  EXPECT_EQ(parse_scheduler("calendar"), SchedulerKind::kCalendarQueue);
  EXPECT_EQ(parse_scheduler("calendar-queue"),
            SchedulerKind::kCalendarQueue);
  EXPECT_STREQ(scheduler_name(SchedulerKind::kBinaryHeap), "heap");
  EXPECT_STREQ(scheduler_name(SchedulerKind::kCalendarQueue), "calendar");
  EXPECT_THROW(parse_scheduler("splay"), std::invalid_argument);
}

// --- TaskRingPool unit tests ---------------------------------------------

TEST(TaskRingPool, MatchesDequeAcrossChunkBoundaries) {
  // Differential test against std::deque over a scripted op sequence
  // that repeatedly crosses the 32-task chunk boundary in both
  // directions and migrates between queues (the steal pattern).
  const int n_queues = 4;
  TaskRingPool pool(n_queues, 8);  // deliberately undersized: must grow
  std::vector<std::deque<std::int64_t>> ref(n_queues);
  Rng rng(3);
  std::int64_t next = 0;
  for (int step = 0; step < 200000; ++step) {
    const int q = static_cast<int>(rng.below(n_queues));
    const double r = rng.uniform();
    ASSERT_EQ(pool.size(q), ref[static_cast<std::size_t>(q)].size());
    if (r < 0.45 || ref[static_cast<std::size_t>(q)].empty()) {
      pool.push_back(q, next);
      ref[static_cast<std::size_t>(q)].push_back(next);
      ++next;
    } else if (r < 0.75) {
      ASSERT_EQ(pool.pop_back(q), ref[static_cast<std::size_t>(q)].back());
      ref[static_cast<std::size_t>(q)].pop_back();
    } else {
      ASSERT_EQ(pool.pop_front(q),
                ref[static_cast<std::size_t>(q)].front());
      ref[static_cast<std::size_t>(q)].pop_front();
    }
  }
  for (int q = 0; q < n_queues; ++q) {
    while (!ref[static_cast<std::size_t>(q)].empty()) {
      ASSERT_EQ(pool.pop_front(q), ref[static_cast<std::size_t>(q)].front());
      ref[static_cast<std::size_t>(q)].pop_front();
    }
    EXPECT_TRUE(pool.empty(q));
  }
}

TEST(TaskRingPool, ExactChunkMultiples) {
  // Queues that land exactly on chunk boundaries (the off-by-one zone).
  TaskRingPool pool(1, 0);
  for (int round : {32, 64, 96}) {
    for (int i = 0; i < round; ++i) pool.push_back(0, i);
    EXPECT_EQ(pool.size(0), static_cast<std::size_t>(round));
    for (int i = 0; i < round; ++i) {
      EXPECT_EQ(pool.pop_front(0), i);
    }
    EXPECT_TRUE(pool.empty(0));
  }
  for (int round : {32, 64}) {
    for (int i = 0; i < round; ++i) pool.push_back(0, i);
    for (int i = round - 1; i >= 0; --i) {
      EXPECT_EQ(pool.pop_back(0), i);
    }
    EXPECT_TRUE(pool.empty(0));
  }
}

// --- Cross-scheduler bitwise determinism ---------------------------------

void expect_bitwise_equal(const SimResult& a, const SimResult& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.steal_attempts, b.steal_attempts);
  EXPECT_EQ(a.counter_ops, b.counter_ops);
  EXPECT_EQ(a.counter_wait, b.counter_wait);
  EXPECT_EQ(a.steal_wait, b.steal_wait);
  EXPECT_EQ(a.op_retries, b.op_retries);
  EXPECT_EQ(a.tasks_reexecuted, b.tasks_reexecuted);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_congested, b.net_congested);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.net_link_wait, b.net_link_wait);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.trace[i].type),
              static_cast<int>(b.trace[i].type));
    EXPECT_EQ(a.trace[i].proc, b.trace[i].proc);
    EXPECT_EQ(a.trace[i].peer, b.trace[i].peer);
    EXPECT_EQ(a.trace[i].task, b.trace[i].task);
    EXPECT_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_EQ(a.trace[i].end, b.trace[i].end);
  }
}

/// FNV-1a over the bits of every SimResult field: each scalar, the
/// per-proc vectors, and every trace event's type, proc, peer, task and
/// start/end. Pins a run in absolute terms, which the heap-vs-calendar
/// comparison alone cannot: a change both queues share passes it.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t result_digest(const SimResult& r) {
  Fnv1a h;
  h.add(r.makespan);
  h.add(r.busy.size());
  for (double b : r.busy) h.add(b);
  h.add(r.tasks_executed.size());
  for (std::int64_t n : r.tasks_executed) h.add(n);
  h.add(r.steals);
  h.add(r.steal_attempts);
  h.add(r.counter_ops);
  h.add(r.counter_wait);
  h.add(r.steal_wait);
  h.add(r.op_retries);
  h.add(r.tasks_reexecuted);
  h.add(r.net_messages);
  h.add(r.net_congested);
  h.add(r.net_bytes);
  h.add(r.net_link_wait);
  h.add(r.events_processed);
  h.add(r.trace.size());
  for (const TraceEvent& ev : r.trace) {
    h.add(static_cast<int>(ev.type));
    h.add(ev.proc);
    h.add(ev.peer);
    h.add(ev.task);
    h.add(ev.start);
    h.add(ev.end);
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Asserts the run still hashes to the digest recorded for it.
void expect_digest(const SimResult& r, std::uint64_t want,
                   const std::string& what) {
  EXPECT_EQ(hex(result_digest(r)), hex(want)) << what;
}

std::vector<double> scheduler_test_costs(std::size_t n,
                                         std::uint64_t seed = 5) {
  std::vector<double> costs(n);
  Rng rng(seed);
  for (double& c : costs) c = rng.uniform(0.2e-6, 8.0e-6);
  return costs;
}

/// Runs `simulate` under both schedulers on otherwise-identical
/// machines, asserts bitwise-equal results, and checks the run against
/// its recorded digest.
template <typename F>
void expect_scheduler_invariant(MachineConfig config, F&& simulate,
                                const std::string& what,
                                std::uint64_t digest) {
  config.scheduler = SchedulerKind::kBinaryHeap;
  const SimResult heap = simulate(config);
  config.scheduler = SchedulerKind::kCalendarQueue;
  const SimResult cal = simulate(config);
  EXPECT_GT(heap.events_processed, 0) << what;
  expect_bitwise_equal(heap, cal, what);
  expect_digest(heap, digest, what);
}

MachineConfig scheduler_test_machine(int procs, bool trace = true) {
  MachineConfig config;
  config.n_procs = procs;
  config.procs_per_node = 8;
  config.noise_amplitude = 0.1;
  config.record_trace = trace;
  return config;
}

// Digests below were recorded from the three hand-written counter loops
// (simulate_counter, simulate_hybrid, simulate_hierarchical_counter)
// before they were folded into one engine; the engine must reproduce
// every one of them bit for bit.

TEST(SchedulerDeterminism, AllModelsLegacyNetwork) {
  const auto costs = scheduler_test_costs(700);
  const MachineConfig config = scheduler_test_machine(48);
  const lb::Assignment block = lb::block_assignment(costs.size(), 48);

  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) { return simulate_counter(m, costs, 1); },
      "counter chunk=1", 0xcefd1bc9a61ab335ull);
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) { return simulate_counter(m, costs, 8); },
      "counter chunk=8", 0x434ac442c4266ae0ull);
  CounterOptions guided;
  guided.chunk = 2;
  guided.policy = ChunkPolicy::kGuided;
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_counter(m, costs, guided);
      },
      "counter guided", 0x6ba76c4316f49cbfull);
  CounterOptions trapezoid;
  trapezoid.chunk = 2;
  trapezoid.policy = ChunkPolicy::kTrapezoid;
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_counter(m, costs, trapezoid);
      },
      "counter trapezoid", 0x5599aba05e92b3e9ull);
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_hierarchical_counter(m, costs, 32, 4);
      },
      "hierarchical counter", 0x8b0a4b1a56c8995aull);
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_hybrid(m, costs, block, 0.3, 2);
      },
      "hybrid", 0x954920e5f6d42647ull);
  const std::uint64_t steal_digests[] = {
      0xaa4699e084a5fa7bull, 0xf5b76582b80ae514ull, 0x547603121681ca45ull};
  int i = 0;
  for (VictimPolicy victim : {VictimPolicy::kUniform, VictimPolicy::kRing,
                              VictimPolicy::kNodeFirst}) {
    StealOptions steal;
    steal.victim = victim;
    expect_scheduler_invariant(
        config,
        [&](const MachineConfig& m) {
          return simulate_work_stealing(m, costs, block, steal);
        },
        "work stealing victim=" + std::to_string(static_cast<int>(victim)),
        steal_digests[i++]);
  }
}

TEST(SchedulerDeterminism, FaultModels) {
  const auto costs = scheduler_test_costs(500);
  MachineConfig config = scheduler_test_machine(32);
  config.faults.fault_prob = 0.3;
  config.faults.onset_min = 0.0;
  config.faults.onset_max = 20.0e-6;
  config.faults.duration = 10.0e-6;
  config.faults.slowdown_factor = 0.0;  // full stalls with re-execution
  config.faults.drop_prob = 0.1;
  config.faults.outage_start = 5.0e-6;
  config.faults.outage_duration = 5.0e-6;
  const lb::Assignment block = lb::block_assignment(costs.size(), 32);

  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) { return simulate_counter(m, costs, 2); },
      "faulted counter", 0xd8e997146ac8a557ull);
  CounterOptions trapezoid;
  trapezoid.chunk = 1;
  trapezoid.policy = ChunkPolicy::kTrapezoid;
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_counter(m, costs, trapezoid);
      },
      "faulted counter trapezoid", 0xadb2b7268e2d700dull);
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_hierarchical_counter(m, costs, 16, 2);
      },
      "faulted hierarchical", 0x281b760b6176b91dull);
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_hybrid(m, costs, block, 0.4, 2);
      },
      "faulted hybrid", 0x77a8769dcae6d6cbull);
  expect_scheduler_invariant(
      config,
      [&](const MachineConfig& m) {
        return simulate_work_stealing(m, costs, block);
      },
      "faulted work stealing", 0x649ff99963c24fc7ull);
}

TEST(SchedulerDeterminism, ContendedTopologies) {
  const auto costs = scheduler_test_costs(600);
  const lb::Assignment block = lb::block_assignment(costs.size(), 32);
  // One row per (topology, congestion mode): counter, hierarchical,
  // hybrid, work stealing.
  const std::uint64_t digests[6][4] = {
      {0x573acef73dacf153ull, 0x8a6a2646440d190dull,
       0x3bd5d4eeb1614b55ull, 0x1a5aea5d583f0a4full},
      {0x7e4a9ecf86a7bc20ull, 0xa87fea4b14342b22ull,
       0x1a6b18ebb1726a0aull, 0x3d85d9c0bff9117dull},
      {0x477bb4197f6d1fe2ull, 0xf30024928ed4c6edull,
       0xee19e5e0d8ca4f56ull, 0x168e3cbfde77af89ull},
      {0x23f8a8b60281815eull, 0xcb2e87fe627e09d0ull,
       0xf077f9209c2134d1ull, 0x05d457e8b20535d6ull},
      {0x16bb77215b4b265dull, 0x922b44faf839110cull,
       0x4aa4ddbb4f6b3985ull, 0x1f4f8a4d961e91e1ull},
      {0x12183a6cc1b18673ull, 0x910b8ed5d6b29850ull,
       0x9c5d10207a07ed09ull, 0x0d83d8cd18f65b65ull},
  };
  int row = 0;
  for (net::TopologyKind topo :
       {net::TopologyKind::kCrossbar, net::TopologyKind::kFatTree,
        net::TopologyKind::kTorus}) {
    for (net::CongestionMode mode : {net::CongestionMode::kPerMessage,
                                     net::CongestionMode::kFlow}) {
      MachineConfig config = scheduler_test_machine(32);
      config.network.topology = topo;
      config.network.congestion = mode;
      config.network.oversubscription = 2;
      // Two leaf switches: at the default four nodes per switch the four
      // nodes share one leaf and the fat-tree degenerates to the crossbar.
      config.network.nodes_per_switch = 2;
      config.network.link_bandwidth = 1.0e8;  // slow: congestion matters
      config.network.task_payload_bytes = 4096;
      const std::string what =
          std::string(net::topology_name(topo)) + "/" +
          net::congestion_name(mode);
      const std::uint64_t* want = digests[row++];
      expect_scheduler_invariant(
          config,
          [&](const MachineConfig& m) {
            return simulate_counter(m, costs, 2);
          },
          what + " counter", want[0]);
      expect_scheduler_invariant(
          config,
          [&](const MachineConfig& m) {
            return simulate_hierarchical_counter(m, costs, 16, 2);
          },
          what + " hierarchical", want[1]);
      expect_scheduler_invariant(
          config,
          [&](const MachineConfig& m) {
            return simulate_hybrid(m, costs, block, 0.3, 2);
          },
          what + " hybrid", want[2]);
      expect_scheduler_invariant(
          config,
          [&](const MachineConfig& m) {
            return simulate_work_stealing(m, costs, block);
          },
          what + " work stealing", want[3]);
    }
  }
}

TEST(SchedulerDeterminism, MultiRoundModels) {
  const auto costs = scheduler_test_costs(400);
  MachineConfig config = scheduler_test_machine(24, /*trace=*/false);
  const lb::Assignment block = lb::block_assignment(costs.size(), 24);

  config.scheduler = SchedulerKind::kBinaryHeap;
  const auto heap_rounds = simulate_retentive(config, costs, block, 3);
  config.scheduler = SchedulerKind::kCalendarQueue;
  const auto cal_rounds = simulate_retentive(config, costs, block, 3);
  ASSERT_EQ(heap_rounds.size(), cal_rounds.size());
  const std::uint64_t digests[] = {
      0x77e1caa104046ad3ull, 0x9271b84604aef685ull, 0xac66f9f40218796cull};
  ASSERT_EQ(heap_rounds.size(), std::size(digests));
  for (std::size_t r = 0; r < heap_rounds.size(); ++r) {
    const std::string what = "retentive round " + std::to_string(r);
    expect_bitwise_equal(heap_rounds[r], cal_rounds[r], what);
    expect_digest(heap_rounds[r], digests[r], what);
  }
}

// --- Flow congestion mode ------------------------------------------------

TEST(FlowCongestion, DeterministicAndBounded) {
  const auto costs = scheduler_test_costs(800);
  MachineConfig config = scheduler_test_machine(64, /*trace=*/false);
  config.network.topology = net::TopologyKind::kCrossbar;
  config.network.congestion = net::CongestionMode::kFlow;
  config.network.link_bandwidth = 1.0e8;
  const SimResult a = simulate_counter(config, costs, 1);
  const SimResult b = simulate_counter(config, costs, 1);
  expect_bitwise_equal(a, b, "flow replay");
  EXPECT_TRUE(std::isfinite(a.makespan));
  EXPECT_GT(a.makespan, 0.0);
  // The congested fabric must cost something relative to legacy.
  config.network.topology = net::TopologyKind::kLegacyFlat;
  const SimResult flat = simulate_counter(config, costs, 1);
  EXPECT_GE(a.makespan, flat.makespan);
  EXPECT_GT(a.net_link_wait, 0.0);
}

TEST(FlowCongestion, ParsesAndNamesModes) {
  EXPECT_EQ(net::parse_congestion("per-message"),
            net::CongestionMode::kPerMessage);
  EXPECT_EQ(net::parse_congestion("flow"), net::CongestionMode::kFlow);
  EXPECT_STREQ(net::congestion_name(net::CongestionMode::kFlow), "flow");
  EXPECT_THROW(net::parse_congestion("psychic"), std::invalid_argument);
}

// --- Degenerate machines (P = 1) -----------------------------------------

TEST(DegenerateMachines, SingleProcWorkStealingAllPolicies) {
  // P = 1: there is no victim to pick; the run must terminate and
  // execute everything locally with zero steal traffic. Regression for
  // the rng.below(0) / pick_victim(P-1 = 0) edge.
  const auto costs = scheduler_test_costs(100);
  const lb::Assignment all_zero(costs.size(), 0);
  for (VictimPolicy victim : {VictimPolicy::kUniform, VictimPolicy::kRing,
                              VictimPolicy::kNodeFirst}) {
    for (SchedulerKind kind :
         {SchedulerKind::kBinaryHeap, SchedulerKind::kCalendarQueue}) {
      MachineConfig config;
      config.n_procs = 1;
      config.procs_per_node = 1;
      config.scheduler = kind;
      StealOptions steal;
      steal.victim = victim;
      const SimResult r =
          simulate_work_stealing(config, costs, all_zero, steal);
      EXPECT_EQ(r.tasks_executed[0],
                static_cast<std::int64_t>(costs.size()));
      EXPECT_EQ(r.steals, 0);
      EXPECT_EQ(r.steal_attempts, 0);
      EXPECT_GT(r.makespan, 0.0);
    }
  }
}

TEST(DegenerateMachines, SingleProcCounterFamily) {
  const auto costs = scheduler_test_costs(50);
  MachineConfig config;
  config.n_procs = 1;
  config.procs_per_node = 1;
  const SimResult counter = simulate_counter(config, costs, 1);
  EXPECT_EQ(counter.tasks_executed[0],
            static_cast<std::int64_t>(costs.size()));
  const SimResult hier =
      simulate_hierarchical_counter(config, costs, 8, 2);
  EXPECT_EQ(hier.tasks_executed[0],
            static_cast<std::int64_t>(costs.size()));
  const lb::Assignment all_zero(costs.size(), 0);
  const SimResult hybrid = simulate_hybrid(config, costs, all_zero, 0.5);
  EXPECT_EQ(hybrid.tasks_executed[0],
            static_cast<std::int64_t>(costs.size()));
}

TEST(DegenerateMachines, CounterFamilyRejectsBadChunkAndFraction) {
  // A chunk below 1 never advances the counter: every counter entry
  // point must throw instead of looping forever. NaN is not a fraction.
  const auto costs = scheduler_test_costs(20);
  MachineConfig config;
  config.n_procs = 2;
  config.procs_per_node = 1;
  const lb::Assignment all_zero(costs.size(), 0);
  for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{-1}}) {
    EXPECT_THROW(simulate_hybrid(config, costs, all_zero, 0.3, chunk),
                 std::invalid_argument);
    EXPECT_THROW(simulate_counter(config, costs, chunk),
                 std::invalid_argument);
    EXPECT_THROW(simulate_hierarchical_counter(config, costs, chunk, 1),
                 std::invalid_argument);
    EXPECT_THROW(simulate_hierarchical_counter(config, costs, 1, chunk),
                 std::invalid_argument);
  }
  EXPECT_THROW(simulate_hybrid(config, costs, all_zero, std::nan(""), 1),
               std::invalid_argument);
}

TEST(DegenerateMachines, RngBelowZeroIsIdentityWithoutDraw) {
  Rng a(123);
  Rng b(123);
  EXPECT_EQ(a.below(0), 0u);
  // The guarded call must not have consumed a draw: streams stay equal.
  EXPECT_EQ(a(), b());
}

TEST(DegenerateMachines, OversizedProcCountThrows) {
  MachineConfig config;
  config.n_procs = 1 << 21;  // exceeds the event-key proc field
  const std::vector<double> costs(4, 1.0e-6);
  EXPECT_THROW(simulate_counter(config, costs, 1),
               std::invalid_argument);
}

}  // namespace
