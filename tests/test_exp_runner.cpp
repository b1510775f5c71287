// Thread pool and replication runner: scheduling correctness and, above
// all, the determinism contract -- merged grid output must be
// byte-identical no matter how many threads ran it or in which order the
// tasks finished.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/thread_pool.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEveryTask) {
  exp::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), std::size_t{4});
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  exp::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), exp::ThreadPool::default_thread_count());
  EXPECT_GE(pool.worker_count(), std::size_t{1});
}

TEST(ThreadPool, SubmitFromInsideATask) {
  exp::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  exp::ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 20 * (round + 1));
  }
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  exp::ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    exp::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(100us);
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, UnevenTaskCostsAreStolen) {
  // One long task plus many short ones on few workers: everything must
  // still finish (the short tasks get stolen off the busy worker's deque).
  exp::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&ran] {
    std::this_thread::sleep_for(50ms);
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < 200; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 201);
}

// -------------------------------------------------------------- Reducer

TEST(Reducer, MeanAndCiAcrossReplications) {
  exp::Reducer red;
  for (const double v : {10.0, 12.0, 14.0}) {
    exp::ReplicationResult r;
    r.values = {v, 100.0 * v};
    red.add(r);
  }
  EXPECT_EQ(red.replications(), std::size_t{3});
  ASSERT_EQ(red.metrics().size(), std::size_t{2});
  EXPECT_DOUBLE_EQ(red.mean(0), 12.0);
  EXPECT_DOUBLE_EQ(red.mean(1), 1200.0);
  // stddev = 2, t_{0.975, 2} = 4.303 -> 4.303 * 2 / sqrt(3).
  EXPECT_NEAR(red.ci95(0), 4.303 * 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(Reducer, SingleReplicationHasZeroCi) {
  exp::Reducer red;
  exp::ReplicationResult r;
  r.values = {42.0};
  red.add(r);
  EXPECT_DOUBLE_EQ(red.mean(0), 42.0);
  EXPECT_DOUBLE_EQ(red.ci95(0), 0.0);
}

TEST(Reducer, RejectsShapeMismatch) {
  exp::Reducer red;
  exp::ReplicationResult a;
  a.values = {1.0, 2.0};
  red.add(a);
  exp::ReplicationResult b;
  b.values = {1.0};
  EXPECT_THROW(red.add(b), InvariantViolation);
}

// ------------------------------------------------- run_grid determinism

/// A deterministic body with real RNG use, per-metric histograms and a
/// time series, plus a completion-order scrambling sleep: later tasks
/// sleep *less*, so under multiple threads the completion order inverts
/// the submission order.
exp::ReplicationBody scrambled_body(std::size_t total_tasks,
                                    bool scramble_order) {
  return [total_tasks, scramble_order](const exp::ReplicationContext& ctx) {
    if (scramble_order) {
      const std::size_t task =
          ctx.point_index * 4 + ctx.replication_index;  // 4 reps per point
      std::this_thread::sleep_for(
          std::chrono::microseconds(200 * (total_tasks - task)));
    }
    sim::Rng rng = ctx.rng;  // private copy; draws are schedule-independent
    exp::ReplicationResult out;
    double acc = 0;
    sim::LatencyHistogram h;
    sim::TimeSeries ts;
    for (int i = 0; i < 100; ++i) {
      const double draw = rng.uniform01();
      acc += draw;
      h.add(static_cast<sim::Duration>(draw * 1e6));
      ts.add(static_cast<sim::SimTime>(i) * sim::kSecond, draw);
    }
    out.values = {acc, static_cast<double>(ctx.seed % 1000)};
    out.histograms = {h};
    out.series = {ts};
    return out;
  };
}

/// Bitwise equality of two reduced grids, including histogram percentiles
/// and merged series samples.
void expect_bitwise_equal(const exp::GridResult& a, const exp::GridResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const auto& ra = a.points[p];
    const auto& rb = b.points[p];
    ASSERT_EQ(ra.metrics().size(), rb.metrics().size());
    for (std::size_t m = 0; m < ra.metrics().size(); ++m) {
      const double va[2] = {ra.mean(m), ra.ci95(m)};
      const double vb[2] = {rb.mean(m), rb.ci95(m)};
      EXPECT_EQ(std::memcmp(va, vb, sizeof va), 0)
          << "point " << p << " metric " << m;
    }
    ASSERT_EQ(ra.histograms().size(), rb.histograms().size());
    for (std::size_t h = 0; h < ra.histograms().size(); ++h) {
      EXPECT_EQ(ra.histograms()[h].count(), rb.histograms()[h].count());
      EXPECT_EQ(ra.histograms()[h].percentile(50),
                rb.histograms()[h].percentile(50));
      EXPECT_EQ(ra.histograms()[h].percentile(99),
                rb.histograms()[h].percentile(99));
    }
    ASSERT_EQ(ra.series().size(), rb.series().size());
    for (std::size_t s = 0; s < ra.series().size(); ++s) {
      const auto& sa = ra.series()[s].samples();
      const auto& sb = rb.series()[s].samples();
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].time, sb[i].time);
        const double da = sa[i].value, db = sb[i].value;
        EXPECT_EQ(std::memcmp(&da, &db, sizeof da), 0);
      }
    }
  }
}

exp::GridSpec small_grid(std::size_t threads) {
  exp::GridSpec spec;
  spec.points = 3;
  spec.replications = 4;
  spec.root_seed = 2026;
  spec.threads = threads;
  return spec;
}

TEST(ExpRunner, OneThreadMatchesSequentialOracle) {
  const auto body = scrambled_body(12, false);
  const auto seq = exp::run_grid_sequential(small_grid(1), body);
  const auto par = exp::run_grid(small_grid(1), body);
  EXPECT_EQ(par.threads_used, std::size_t{1});
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, FourThreadsMatchSequentialOracle) {
  const auto body = scrambled_body(12, false);
  const auto seq = exp::run_grid_sequential(small_grid(1), body);
  const auto par = exp::run_grid(small_grid(4), body);
  EXPECT_EQ(par.threads_used, std::size_t{4});
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, ScrambledCompletionOrderStillMatches) {
  // Sleeps make tasks finish in roughly *reverse* submission order; the
  // fixed-order reduction must still produce byte-identical output.
  const auto seq =
      exp::run_grid_sequential(small_grid(1), scrambled_body(12, false));
  const auto par = exp::run_grid(small_grid(4), scrambled_body(12, true));
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, SeedsAreDistinctAcrossTheGrid) {
  std::mutex mu;
  std::set<std::uint64_t> seeds;
  exp::GridSpec spec;
  spec.points = 8;
  spec.replications = 8;
  spec.threads = 4;
  exp::run_grid(spec, [&](const exp::ReplicationContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seeds.insert(ctx.seed);
    }
    return exp::ReplicationResult{{0.0}, {}, {}, {}};
  });
  EXPECT_EQ(seeds.size(), std::size_t{64});
}

TEST(ExpRunner, SubstreamsDependOnlyOnRootSeedAndIndices) {
  // Same root seed -> same per-task seeds, regardless of thread count.
  const auto collect = [](std::size_t threads) {
    std::mutex mu;
    std::vector<std::uint64_t> seeds(6, 0);
    exp::GridSpec spec;
    spec.points = 2;
    spec.replications = 3;
    spec.root_seed = 99;
    spec.threads = threads;
    exp::run_grid(spec, [&](const exp::ReplicationContext& ctx) {
      std::lock_guard<std::mutex> lock(mu);
      seeds[ctx.point_index * 3 + ctx.replication_index] = ctx.seed;
      return exp::ReplicationResult{{0.0}, {}, {}, {}};
    });
    return seeds;
  };
  EXPECT_EQ(collect(1), collect(4));
}

TEST(ExpRunner, BodyExceptionIsRethrownLowestTaskFirst) {
  exp::GridSpec spec;
  spec.points = 2;
  spec.replications = 3;
  spec.threads = 4;
  const auto body = [](const exp::ReplicationContext& ctx) -> exp::ReplicationResult {
    const std::size_t task = ctx.point_index * 3 + ctx.replication_index;
    if (task == 1 || task == 4) {
      throw std::runtime_error("task " + std::to_string(task));
    }
    return {{0.0}, {}, {}, {}};
  };
  try {
    exp::run_grid(spec, body);
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 1");
  }
}

TEST(ExpRunner, WallSecondsAndThreadsAreReported) {
  const auto r = exp::run_grid(small_grid(2), scrambled_body(12, false));
  EXPECT_EQ(r.threads_used, std::size_t{2});
  EXPECT_GE(r.wall_seconds, 0.0);
  ASSERT_EQ(r.points.size(), std::size_t{3});
  EXPECT_EQ(r.point(0).replications(), std::size_t{4});
}

}  // namespace
}  // namespace rh::test
