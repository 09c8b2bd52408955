// Execution-model tests: Chase–Lev deque correctness (sequential and
// under concurrent theft) and the exactly-once guarantee of every
// scheduler, at one thread per rank and at ranks × threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/schedulers.hpp"
#include "exec/ws_deque.hpp"
#include "lb/simple.hpp"

namespace {

using namespace emc::exec;

TEST(WsDequeTest, LifoForOwner) {
  WsDeque d(8);
  EXPECT_TRUE(d.push(1));
  EXPECT_TRUE(d.push(2));
  EXPECT_TRUE(d.push(3));
  EXPECT_EQ(d.pop().value(), 3);
  EXPECT_EQ(d.pop().value(), 2);
  EXPECT_EQ(d.pop().value(), 1);
  EXPECT_FALSE(d.pop().has_value());
}

TEST(WsDequeTest, FifoForThief) {
  WsDeque d(8);
  d.push(1);
  d.push(2);
  d.push(3);
  EXPECT_EQ(d.steal().value(), 1);
  EXPECT_EQ(d.steal().value(), 2);
  EXPECT_EQ(d.pop().value(), 3);
  EXPECT_FALSE(d.steal().has_value());
}

TEST(WsDequeTest, CapacityRespected) {
  WsDeque d(2);
  EXPECT_TRUE(d.push(1));
  EXPECT_TRUE(d.push(2));
  EXPECT_FALSE(d.push(3));
  d.steal();
  EXPECT_TRUE(d.push(3));  // space reclaimed after steal
}

TEST(WsDequeTest, SizeEstimate) {
  WsDeque d(16);
  EXPECT_EQ(d.size_estimate(), 0);
  d.push(1);
  d.push(2);
  EXPECT_EQ(d.size_estimate(), 2);
}

TEST(WsDequeTest, ConcurrentTheftExactlyOnce) {
  // Owner pushes N items and pops; thieves steal concurrently. Every item
  // must be consumed exactly once.
  const std::int64_t n = 20000;
  const int n_thieves = 3;
  WsDeque d(static_cast<std::size_t>(n));
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
  std::atomic<std::int64_t> consumed{0};

  std::thread owner([&] {
    for (std::int64_t i = 0; i < n; ++i) {
      d.push(i);
      // Interleave pops to exercise the pop/steal race on size 1.
      if (i % 3 == 0) {
        if (auto v = d.pop()) {
          seen[static_cast<std::size_t>(*v)].fetch_add(1);
          consumed.fetch_add(1);
        }
      }
    }
    while (auto v = d.pop()) {
      seen[static_cast<std::size_t>(*v)].fetch_add(1);
      consumed.fetch_add(1);
    }
  });

  std::vector<std::thread> thieves;
  for (int t = 0; t < n_thieves; ++t) {
    thieves.emplace_back([&] {
      while (consumed.load() < n) {
        if (auto v = d.steal()) {
          seen[static_cast<std::size_t>(*v)].fetch_add(1);
          consumed.fetch_add(1);
        }
      }
    });
  }
  owner.join();
  for (auto& t : thieves) t.join();

  EXPECT_EQ(consumed.load(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(WsDequeTest, OwnerVsThiefLastElementRace) {
  // Stress the one-element case specifically: the owner pushes a single
  // item and immediately pops it while a thief hammers steal(), so
  // nearly every round exercises the t == b CAS race in pop(). Each
  // item must be consumed by exactly one side — a regression guard for
  // the lost-race branch (which once carried a dead `value = -1` store).
  const std::int64_t n = 100000;
  WsDeque d(2);
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> consumed{0};

  std::thread thief([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (auto v = d.steal()) {
        seen[static_cast<std::size_t>(*v)].fetch_add(1);
        consumed.fetch_add(1);
      }
    }
    while (auto v = d.steal()) {
      seen[static_cast<std::size_t>(*v)].fetch_add(1);
      consumed.fetch_add(1);
    }
  });

  for (std::int64_t i = 0; i < n; ++i) {
    d.push(i);
    if (auto v = d.pop()) {
      seen[static_cast<std::size_t>(*v)].fetch_add(1);
      consumed.fetch_add(1);
    }
  }
  done.store(true, std::memory_order_release);
  thief.join();

  EXPECT_EQ(consumed.load(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

class SchedulerFixture : public ::testing::Test {
 protected:
  static constexpr std::int64_t kTasks = 500;
  static constexpr int kRanks = 4;

  SchedulerFixture() : runtime(kRanks), hits(kTasks) {}

  TaskBody counting_body() {
    return [this](std::int64_t t, int) {
      hits[static_cast<std::size_t>(t)].fetch_add(1);
    };
  }

  void expect_exactly_once() {
    for (std::int64_t t = 0; t < kTasks; ++t) {
      ASSERT_EQ(hits[static_cast<std::size_t>(t)].load(), 1)
          << "task " << t;
    }
  }

  emc::pgas::Runtime runtime;
  std::vector<std::atomic<int>> hits;
};

TEST_F(SchedulerFixture, StaticExecutesAllExactlyOnce) {
  const auto assignment = emc::lb::block_assignment(kTasks, kRanks);
  const ExecutionStats stats =
      run_static(runtime, kTasks, assignment, counting_body());
  expect_exactly_once();
  EXPECT_EQ(stats.total_tasks(), kTasks);
  EXPECT_EQ(stats.ranks.size(), static_cast<std::size_t>(kRanks));
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST_F(SchedulerFixture, StaticHonorsAssignment) {
  const auto assignment = emc::lb::cyclic_assignment(kTasks, kRanks);
  std::vector<std::atomic<int>> executor(kTasks);
  run_static(runtime, kTasks, assignment,
             [&](std::int64_t t, int rank) {
               executor[static_cast<std::size_t>(t)].store(rank);
             });
  for (std::int64_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(executor[static_cast<std::size_t>(t)].load(),
              assignment[static_cast<std::size_t>(t)]);
  }
}

TEST_F(SchedulerFixture, CounterExecutesAllExactlyOnce) {
  const ExecutionStats stats =
      run_counter(runtime, kTasks, /*chunk=*/7, counting_body());
  expect_exactly_once();
  EXPECT_EQ(stats.total_tasks(), kTasks);
  // Every rank performed at least its terminating counter op.
  for (const auto& r : stats.ranks) {
    EXPECT_GE(r.counter_ops, 1);
  }
}

TEST_F(SchedulerFixture, CounterChunkOneWorks) {
  run_counter(runtime, kTasks, 1, counting_body());
  expect_exactly_once();
}

TEST_F(SchedulerFixture, CounterRejectsBadChunk) {
  EXPECT_THROW(run_counter(runtime, kTasks, 0, counting_body()),
               std::invalid_argument);
}

TEST_F(SchedulerFixture, WorkStealingExecutesAllExactlyOnce) {
  const auto initial = emc::lb::block_assignment(kTasks, kRanks);
  const ExecutionStats stats =
      run_work_stealing(runtime, kTasks, initial, counting_body());
  expect_exactly_once();
  EXPECT_EQ(stats.total_tasks(), kTasks);
}

TEST_F(SchedulerFixture, WorkStealingFromSkewedAssignmentSteals) {
  // Everything starts on rank 0; other ranks can only contribute by
  // stealing. Rank 0's tasks wait (bounded) until some task has run on
  // another rank, so rank 0 cannot drain its deque before a thief gets
  // going: a steal must happen unless the thieves never run at all.
  const emc::lb::Assignment initial(kTasks, 0);
  std::vector<int> executed_by;
  WorkStealingOptions options;
  std::atomic<bool> ran_elsewhere{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const ExecutionStats stats = run_work_stealing(
      runtime, kTasks, initial,
      [&](std::int64_t, int rank) {
        if (rank != 0) {
          ran_elsewhere.store(true);
          return;
        }
        while (!ran_elsewhere.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      },
      options, &executed_by);
  EXPECT_TRUE(ran_elsewhere.load()) << "no thief ran a task within 5 s";
  EXPECT_GT(stats.total_steals(), 0);
  ASSERT_EQ(executed_by.size(), static_cast<std::size_t>(kTasks));
  for (int rank : executed_by) {
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, kRanks);
  }
}

TEST_F(SchedulerFixture, RetentiveRunsEveryIteration) {
  const auto initial = emc::lb::block_assignment(kTasks, kRanks);
  std::atomic<std::int64_t> total{0};
  const auto rounds = run_retentive_work_stealing(
      runtime, kTasks, initial,
      [&](std::int64_t, int) { total.fetch_add(1); }, 3);
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(total.load(), 3 * kTasks);
  for (const auto& r : rounds) {
    EXPECT_EQ(r.total_tasks(), kTasks);
  }
}

TEST_F(SchedulerFixture, MismatchedAssignmentThrows) {
  const emc::lb::Assignment wrong(10, 0);
  EXPECT_THROW(run_static(runtime, kTasks, wrong, counting_body()),
               std::invalid_argument);
  EXPECT_THROW(run_work_stealing(runtime, kTasks, wrong, counting_body()),
               std::invalid_argument);
}

TEST(SchedulerSingleRank, AllModelsDegenerate) {
  emc::pgas::Runtime rt(1);
  const std::int64_t n = 50;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  const TaskBody body = [&](std::int64_t t, int) {
    hits[static_cast<std::size_t>(t)].fetch_add(1);
  };

  run_static(rt, n, emc::lb::Assignment(static_cast<std::size_t>(n), 0),
             body);
  run_counter(rt, n, 4, body);
  run_work_stealing(rt, n,
                    emc::lb::Assignment(static_cast<std::size_t>(n), 0),
                    body);
  for (std::int64_t t = 0; t < n; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 3);
  }
}

TEST(SchedulerExceptionTest, CounterPropagatesWithoutDeadlock) {
  emc::pgas::Runtime rt(4);
  EXPECT_THROW(
      run_counter(rt, 1000, 1,
                  [](std::int64_t t, int) {
                    if (t == 137) throw std::runtime_error("task exploded");
                  }),
      std::runtime_error);
}

TEST(SchedulerExceptionTest, WorkStealingPropagatesWithoutDeadlock) {
  emc::pgas::Runtime rt(4);
  const auto initial = emc::lb::block_assignment(1000, 4);
  EXPECT_THROW(
      run_work_stealing(rt, 1000, initial,
                        [](std::int64_t t, int) {
                          if (t == 500) {
                            throw std::runtime_error("task exploded");
                          }
                        }),
      std::runtime_error);
}

// The engine at ranks × threads > 1: every model and scope must run each
// unit exactly once, count it in the stats, and unwind a throwing body.
class EngineThreadsTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kUnits = 300;
  static constexpr int kRanks = 2;
  static constexpr int kThreads = 3;

  EngineThreadsTest()
      : runtime(kRanks), engine(runtime, kThreads),
        placement(emc::lb::block_assignment(kUnits, kRanks)), hits(kUnits),
        executor(kUnits) {}

  UnitBody counting_body() {
    return [this](std::int64_t u, int rank, RankStats& stats) {
      hits[static_cast<std::size_t>(u)].fetch_add(1);
      executor[static_cast<std::size_t>(u)].store(rank);
      ++stats.tasks_executed;
    };
  }

  static UnitBody throwing_body() {
    return [](std::int64_t u, int, RankStats&) {
      if (u == 137) throw std::runtime_error("unit exploded");
    };
  }

  void expect_exactly_once(const ExecutionStats& stats) {
    for (std::int64_t u = 0; u < kUnits; ++u) {
      ASSERT_EQ(hits[static_cast<std::size_t>(u)].load(), 1) << "unit " << u;
    }
    EXPECT_EQ(stats.total_tasks(), kUnits);
    EXPECT_EQ(stats.ranks.size(), static_cast<std::size_t>(kRanks));
  }

  void expect_on_placed_rank() {
    for (std::int64_t u = 0; u < kUnits; ++u) {
      EXPECT_EQ(executor[static_cast<std::size_t>(u)].load(),
                placement[static_cast<std::size_t>(u)]);
    }
  }

  emc::pgas::Runtime runtime;
  Engine engine;
  emc::lb::Assignment placement;
  std::vector<std::atomic<int>> hits;
  std::vector<std::atomic<int>> executor;
};

TEST_F(EngineThreadsTest, StaticRunsEveryUnitOnItsRank) {
  expect_exactly_once(engine.run_static(placement, counting_body()));
  expect_on_placed_rank();
}

TEST_F(EngineThreadsTest, RankLocalCounterRunsEveryUnitOnItsRank) {
  const ExecutionStats stats =
      engine.run_counter(Scope::kRankLocal, placement, 2, counting_body());
  expect_exactly_once(stats);
  expect_on_placed_rank();
  // Every executor performs at least its terminating grab.
  for (const auto& r : stats.ranks) EXPECT_GE(r.counter_ops, kThreads);
}

TEST_F(EngineThreadsTest, GlobalCounterRunsEveryUnitOnce) {
  const ExecutionStats stats =
      engine.run_counter(Scope::kGlobal, placement, 3, counting_body());
  expect_exactly_once(stats);
  for (const auto& r : stats.ranks) EXPECT_GE(r.counter_ops, kThreads);
}

TEST_F(EngineThreadsTest, RankLocalWorkStealingKeepsUnitsOnTheirRank) {
  expect_exactly_once(engine.run_work_stealing(Scope::kRankLocal, placement,
                                               11, counting_body()));
  expect_on_placed_rank();
}

TEST_F(EngineThreadsTest, GlobalWorkStealingRunsEveryUnitOnce) {
  // All units start on rank 0, so rank 1 can only work by stealing.
  const emc::lb::Assignment skewed(kUnits, 0);
  expect_exactly_once(engine.run_work_stealing(Scope::kGlobal, skewed, 11,
                                               counting_body()));
}

TEST_F(EngineThreadsTest, ThrowingBodyPropagatesWithoutDeadlock) {
  EXPECT_THROW(engine.run_static(placement, throwing_body()),
               std::runtime_error);
  for (const Scope scope : {Scope::kRankLocal, Scope::kGlobal}) {
    EXPECT_THROW(engine.run_counter(scope, placement, 1, throwing_body()),
                 std::runtime_error);
    EXPECT_THROW(
        engine.run_work_stealing(scope, placement, 11, throwing_body()),
        std::runtime_error);
  }
  // The pools are reusable after an aborted run.
  expect_exactly_once(engine.run_static(placement, counting_body()));
}

TEST(ExecutionStatsTest, UtilizationMath) {
  ExecutionStats s;
  s.wall_seconds = 2.0;
  s.ranks.resize(2);
  s.ranks[0].busy_seconds = 2.0;
  s.ranks[1].busy_seconds = 1.0;
  EXPECT_DOUBLE_EQ(s.utilization(), 0.75);
  ExecutionStats empty;
  EXPECT_DOUBLE_EQ(empty.utilization(), 0.0);
}

}  // namespace
