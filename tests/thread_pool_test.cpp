// Tests for the persistent worker pool behind the router's batch loop:
// correctness of the parallel-for work distribution, reuse across many
// waves, nested fork-join batches and the lanes that help them, nested
// submits, exception propagation, and the serial degenerate case.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stress.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace cdst {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NonZeroBeginAndEmptyRange) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  pool.parallel_for(100, 200,
                    [&](std::size_t i) { sum += static_cast<long long>(i); });
  EXPECT_EQ(sum.load(), (100LL + 199LL) * 100LL / 2LL);
  pool.parallel_for(5, 5, [&](std::size_t) { sum = -1; });
  EXPECT_EQ(sum.load(), (100LL + 199LL) * 100LL / 2LL);
}

TEST(ThreadPool, SingleThreadRunsSerially) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  // No workers: the caller runs all indices in order, so no data race above.
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ReusableAcrossManyWaves) {
  // The router's usage pattern: thousands of small batches on one pool.
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  long long expected = 0;
  for (int wave = 0; wave < 500; ++wave) {
    const std::size_t n = 1 + static_cast<std::size_t>(wave % 7);
    pool.parallel_for(0, n,
                      [&](std::size_t i) { sum += static_cast<long long>(i); });
    expected += static_cast<long long>(n * (n - 1) / 2);
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, NestedSubmitsRunInline) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 32, kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](std::size_t o) {
    // A nested parallel_for from inside a worker must not deadlock on the
    // pool's own (busy) workers: it opens a child batch that the caller
    // drains itself and other lanes may join.
    pool.parallel_for(0, kInner,
                      [&](std::size_t i) { ++hits[o * kInner + i]; });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, IdleLanesJoinANestedBatch) {
  // One outer index is light and one fans out. Once the light one is done
  // (and the outer batch has no index left to claim), idle lanes must join
  // the nested batch instead of waiting at the outer barrier.
  ThreadPool pool(4);
  Mutex mu;
  std::set<std::thread::id> inner_threads;
  std::atomic<int> inner_runs{0};
  pool.parallel_for(0, 2, [&](std::size_t o) {
    if (o == 0) return;
    pool.parallel_for(0, 200, [&](std::size_t) {
      {
        MutexLock lock(mu);
        inner_threads.insert(std::this_thread::get_id());
      }
      ++inner_runs;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
  });
  EXPECT_EQ(inner_runs.load(), 200);
  MutexLock lock(mu);
  EXPECT_GE(inner_threads.size(), 2u)
      << "no idle lane joined the nested batch";
}

TEST(ThreadPool, NestedExceptionPropagatesAndAbandonsOuterBatch) {
  // Every outer index fans out, and one index of every nested batch throws.
  // The nested batch's first error reaches its caller (the outer body),
  // which throws it on; the outer batch then abandons its remaining
  // indices, so at most one outer index per lane ever starts.
  ThreadPool pool(4);
  std::atomic<int> outer_started{0};
  std::atomic<int> inner_runs{0};
  try {
    pool.parallel_for(0, 100000, [&](std::size_t) {
      ++outer_started;
      pool.parallel_for(0, 16, [&](std::size_t i) {
        ++inner_runs;
        if (i == 5) throw std::logic_error("nested");
      });
    });
    FAIL() << "expected the nested batch's exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "nested");
  }
  EXPECT_LE(outer_started.load(), pool.concurrency());
  EXPECT_GE(inner_runs.load(), 1);
  // The pool survives and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ThreeLevelNestingCompletes) {
  ThreadPool pool(4);
  constexpr std::size_t kA = 6, kB = 7, kC = 9;
  std::vector<std::atomic<int>> hits(kA * kB * kC);
  const int reps = testutil::stress_iters(20, 4);
  for (int rep = 0; rep < reps; ++rep) {
    pool.parallel_for(0, kA, [&](std::size_t a) {
      pool.parallel_for(0, kB, [&](std::size_t b) {
        pool.parallel_for(0, kC, [&](std::size_t c) {
          ++hits[(a * kB + b) * kC + c];
        });
      });
    });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), reps) << "slot " << i;
  }
}

TEST(ThreadPool, ParallelForInsideSubmittedTaskRunsInline) {
  // Tasks never join batches, so a batch opened from a task could wait on
  // workers that are all busy with tasks: it runs inline on the task's
  // thread, in index order.
  ThreadPool pool(4);
  std::promise<void> done;
  std::thread::id task_thread;
  std::vector<std::thread::id> body_threads(64);
  std::vector<std::size_t> order;
  pool.submit([&] {
    task_thread = std::this_thread::get_id();
    pool.parallel_for(0, body_threads.size(), [&](std::size_t i) {
      body_threads[i] = std::this_thread::get_id();
      order.push_back(i);
    });
    done.set_value();
  });
  done.get_future().wait();
  ASSERT_EQ(order.size(), body_threads.size());
  for (std::size_t i = 0; i < body_threads.size(); ++i) {
    EXPECT_EQ(body_threads[i], task_thread) << "index " << i;
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::size_t i) {
                          if (i == 137) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing batch and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionAbandonsRemainingIndices) {
  // Every body throws, and a lane stops claiming indices once its body has
  // thrown — so at most one index per lane executes, regardless of how the
  // scheduler interleaves the lanes.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(0, 100000, [&](std::size_t) {
      ++executed;
      throw std::logic_error("stop");
    });
    FAIL() << "expected the batch's exception";
  } catch (const std::logic_error&) {
  }
  EXPECT_LE(executed.load(), pool.concurrency());
}

TEST(ThreadPool, ExceptionInSerialModePropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("s");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmittedTasksRunExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([&, t] {
        ++hits[t];
        ++done;
      });
    }
    // Interleave a barrier batch with the task queue: the batch must not
    // deadlock against pending tasks (it takes priority on the workers).
    std::atomic<int> batch_sum{0};
    pool.parallel_for(0, 64, [&](std::size_t i) {
      batch_sum += static_cast<int>(i);
    });
    EXPECT_EQ(batch_sum.load(), 64 * 63 / 2);
    // Destruction runs any tasks the workers never reached.
  }
  EXPECT_EQ(done.load(), kTasks);
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPool, SubmitRunsInlineWithoutWorkersAndInsideBatches) {
  // threads == 1: no workers, submit degenerates to a synchronous call.
  ThreadPool serial(1);
  bool ran = false;
  serial.submit([&] { ran = true; });
  EXPECT_TRUE(ran);

  // From inside a running batch the task also runs inline (the workers may
  // all be busy with the batch) — same policy as nested parallel_for.
  ThreadPool pool(4);
  std::atomic<int> inline_runs{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    bool task_done = false;
    pool.submit([&] { task_done = true; });
    EXPECT_TRUE(task_done) << "submit inside a batch must run inline";
    ++inline_runs;
  });
  EXPECT_EQ(inline_runs.load(), 8);
}

TEST(ThreadPool, StressManyConcurrentSmallBatches) {
  ThreadPool pool(8);
  std::atomic<long long> sum{0};
  const int rounds = testutil::stress_iters(200, 40);
  for (int round = 0; round < rounds; ++round) {
    pool.parallel_for(0, 97, [&](std::size_t i) {
      // Mix nested submits into the stress rounds.
      if (i % 31 == 0) {
        pool.parallel_for(0, 3, [&](std::size_t) { sum += 1; });
      }
      sum += static_cast<long long>(i);
    });
  }
  EXPECT_EQ(sum.load(), rounds * (97LL * 96LL / 2LL + 4LL * 3LL));
}

TEST(ThreadPool, StressExternalSubmittersRacingBatches) {
  // The streaming usage pattern pushed hard: several external threads
  // submit fire-and-forget tasks while the owning thread keeps running
  // parallel_for barriers on the same pool. Exercises every lock-ordering
  // path at once — task queue vs. batch priority, barrier wakeups racing
  // task wakeups — which is exactly the surface the TSan lane watches.
  const int kSubmitters = 3;
  const int per_thread = testutil::stress_iters(400, 60);
  std::atomic<int> task_runs{0};
  std::atomic<long long> batch_sum{0};
  long long expected_batch = 0;
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        for (int t = 0; t < per_thread; ++t) {
          pool.submit([&] { ++task_runs; });
        }
      });
    }
    const int waves = testutil::stress_iters(100, 20);
    for (int wave = 0; wave < waves; ++wave) {
      const std::size_t n = 1 + static_cast<std::size_t>(wave % 13);
      pool.parallel_for(0, n, [&](std::size_t i) {
        batch_sum += static_cast<long long>(i);
      });
      expected_batch += static_cast<long long>(n * (n - 1) / 2);
    }
    for (std::thread& th : submitters) th.join();
    // Destruction drains whatever the workers never reached.
  }
  EXPECT_EQ(task_runs.load(), kSubmitters * per_thread);
  EXPECT_EQ(batch_sum.load(), expected_batch);
}

TEST(ThreadPool, DestructorDrainsLeftoverTasksExactlyOnce) {
  // Regression for the teardown lock discipline: the destructor used to
  // walk `tasks_` without holding the pool mutex while workers could still
  // be popping from it. It now swaps the queue out under the lock and runs
  // the leftovers privately; flooding a small pool and destroying it
  // immediately makes "worker pops" and "destructor drain" overlap.
  constexpr int kTasks = 256;
  std::vector<std::atomic<int>> hits(kTasks);
  {
    ThreadPool pool(2);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([&hits, t] { ++hits[t]; });
    }
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

}  // namespace
}  // namespace cdst
