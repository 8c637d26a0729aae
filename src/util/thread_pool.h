/// \file thread_pool.h
/// Persistent worker pool with a nested fork-join parallel-for primitive.
///
/// The router's rip-up/re-route loop dispatches thousands of small per-net
/// oracle batches; spawning fresh std::threads per batch costs more than many
/// of the batches themselves. This pool spawns its workers once and reuses
/// them across every batch and iteration. Work is handed out through an
/// atomic index counter, so the set of (index -> result) pairs — and hence
/// anything written to index-addressed output slots — is deterministic and
/// independent of the worker count; only the interleaving varies.
///
/// Nesting. A parallel_for issued from inside a running batch body opens a
/// child batch instead of running serially: the caller drains it, and any
/// lane with nothing better to do joins it. A lane draining a batch joins
/// the newest open batch opened after its own before it claims its next
/// index (help-first), an idle worker joins the newest open batch, and a
/// caller waiting for its batch's joiners joins newer batches meanwhile.
/// So when one heavy item (one net's embedding DP) nests its own fork-join
/// levels, the lanes that ran out of sibling items fill those levels
/// instead of idling at the outer barrier. Waits only ever target batches
/// opened later than the waiter's own, so nesting cannot deadlock.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace cdst {

/// Fixed-size pool of `threads - 1` workers; the calling thread participates
/// in every parallel_for, so `threads == 1` degenerates to a plain serial
/// loop with no threads spawned at all. parallel_for calls issued from
/// inside a batch body of this pool open a nested child batch (see the file
/// comment); calls issued from inside a submit() task, or from inside a
/// batch body of another pool, run serially inline.
///
/// Besides the parallel_for barrier primitive, the pool runs fire-and-forget
/// tasks (submit) for streaming pipelines: tasks and batches share the
/// workers, with an open batch taking priority so parallel_for barriers
/// never starve behind a deep task queue.
class ThreadPool {
 public:
  /// \param threads total concurrency including the calling thread (>= 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, including the caller.
  int concurrency() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [begin, end), distributing indices across
  /// the workers and the calling thread. Blocks until all indices are done.
  /// If any body throws, the remaining indices are abandoned and the first
  /// exception (in completion order) is rethrown here. The "pool.task" fault
  /// point fires once per index of every batch, nested ones included.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Enqueues one asynchronous task and returns immediately; some worker
  /// runs it once no open parallel_for batch has work left. With no workers
  /// (threads == 1), or when called from inside a running batch/task, the
  /// task runs inline on the calling thread before submit returns. A
  /// parallel_for issued from inside a task runs inline serially too: the
  /// workers may all be busy with tasks, which never join batches. Tasks must
  /// arrange their own completion signalling (SolveStream does) and must
  /// not throw: an escaping exception has no caller to land on and
  /// terminates. The destructor runs still-queued tasks on the destructing
  /// thread, so a submitted task always executes exactly once.
  void submit(std::function<void()> task);

 private:
  struct Batch;

  void worker_main();
  /// Runs the batch's remaining indices on this thread, joining newer open
  /// batches between indices (help-first).
  void drain(Batch& batch);
  /// Joins and drains open batches opened after `floor` (a Batch::seq; 0
  /// admits every batch) until none of them has unclaimed indices.
  void help_newer(std::uint64_t floor);
  /// The newest open batch opened after `floor` with unclaimed indices, or
  /// null.
  Batch* newest_joinable(std::uint64_t floor) CDST_REQUIRES(mu_);
  static void run_task(const std::function<void()>& task);

  /// Written once in the constructor before any worker can observe it, read
  /// concurrently afterwards — immutable state, so deliberately unguarded.
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;  ///< wakes idle workers on a new batch/task
  CondVar done_cv_;  ///< wakes callers waiting for their batch's joiners
  /// Open batches in opening order (Batch::seq ascending). A batch is open
  /// from its parallel_for's start until its caller has claimed its last
  /// index; joiners register on it under mu_.
  std::vector<Batch*> open_ CDST_GUARDED_BY(mu_);
  std::uint64_t last_seq_ CDST_GUARDED_BY(mu_) = 0;
  /// Seq of the newest open batch (0: none). Written under mu_, read
  /// lock-free between indices so a lane only takes mu_ to look for newer
  /// work when some newer batch is open.
  std::atomic<std::uint64_t> newest_seq_{0};
  std::deque<std::function<void()>> tasks_ CDST_GUARDED_BY(mu_);
  bool stop_ CDST_GUARDED_BY(mu_) = false;
};

}  // namespace cdst
