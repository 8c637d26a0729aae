#include "util/thread_pool.h"

#include <algorithm>

#include "util/assert.h"
#include "util/fault_injection.h"

namespace cdst {
namespace {

/// The pool whose batch body this thread is executing (null outside any
/// batch). A parallel_for on that pool opens a nested batch; one on another
/// pool runs inline serially, so no lane ever waits on another pool's
/// lanes.
thread_local const ThreadPool* t_batch_pool = nullptr;
/// Set while this thread runs a submit() task: parallel_for and submit
/// calls from inside it run inline serially.
thread_local bool t_in_task = false;

}  // namespace

/// One parallel_for invocation: an atomic work cursor plus the first error.
struct ThreadPool::Batch {
  std::atomic<std::size_t> next;
  std::size_t end{0};
  const std::function<void(std::size_t)>* body{nullptr};
  /// Opening order, unique per pool (set under the pool's mu_ before the
  /// batch is published). Newer batches are nested deeper or unrelated.
  std::uint64_t seq{0};
  /// Lanes other than the caller currently draining this batch. Guarded by
  /// the pool's mu_ (a member of another object, so the guard is
  /// convention, not analysis-checked); the caller waits for it to drop to
  /// zero before the batch's stack frame dies.
  int joiners{0};
  Mutex error_mu;
  std::exception_ptr error CDST_GUARDED_BY(error_mu);

  bool has_work() const {
    return next.load(std::memory_order_relaxed) < end;
  }
};

ThreadPool::ThreadPool(int threads) {
  CDST_CHECK(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Tasks the workers never reached run here, so every submitted task
  // executes exactly once even under a pool torn down mid-stream (a stream
  // destructor waiting on its completions then cannot hang). The queue is
  // swapped out under the lock (the workers are gone, but the guarded-member
  // discipline is unconditional) and run unlocked, so a task that re-enters
  // submit() cannot deadlock on mu_.
  std::deque<std::function<void()>> leftovers;
  {
    MutexLock lock(mu_);
    leftovers.swap(tasks_);
  }
  for (const std::function<void()>& task : leftovers) run_task(task);
}

void ThreadPool::run_task(const std::function<void()>& task) {
  // A parallel_for issued from inside a task runs inline serially: tasks
  // never join batches, so the workers may all be busy with tasks and none
  // would come to help.
  const bool was_in_task = t_in_task;
  t_in_task = true;
  task();
  t_in_task = was_in_task;
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty() || t_in_task || t_batch_pool != nullptr) {
    run_task(task);
    return;
  }
  {
    MutexLock lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

ThreadPool::Batch* ThreadPool::newest_joinable(std::uint64_t floor) {
  for (auto it = open_.rbegin(); it != open_.rend() && (*it)->seq > floor;
       ++it) {
    if ((*it)->has_work()) return *it;
  }
  return nullptr;
}

void ThreadPool::help_newer(std::uint64_t floor) {
  for (;;) {
    Batch* batch = nullptr;
    {
      MutexLock lock(mu_);
      batch = newest_joinable(floor);
      if (batch == nullptr) return;
      // Registered under the lock while the batch is still open: its caller
      // closes it under the same lock and then waits for joiners to leave.
      ++batch->joiners;
    }
    drain(*batch);
    MutexLock lock(mu_);
    if (--batch->joiners == 0) done_cv_.notify_all();
  }
}

void ThreadPool::drain(Batch& batch) {
  const ThreadPool* const was = t_batch_pool;
  t_batch_pool = this;
  for (;;) {
    // Help-first: a batch opened after this one is nested inside (or runs
    // beside) it, so its indices are nearer the critical path than ours.
    if (newest_seq_.load(std::memory_order_acquire) > batch.seq) {
      help_newer(batch.seq);
    }
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.end) break;
    try {
      // Inside the try, before the body: an injected task fault takes the
      // exact first-error-wins unwind path a throwing body would. (submit()
      // tasks carry no such site — they run outside any barrier, so a
      // throw there would terminate; streams instead fault inside their own
      // lane bodies, see "stream.dispatch".)
      CDST_FAULT_POINT("pool.task");
      (*batch.body)(i);
    } catch (...) {
      MutexLock lock(batch.error_mu);
      if (!batch.error) batch.error = std::current_exception();
      // Abandon the remaining indices: later fetch_adds see >= end.
      batch.next.store(batch.end, std::memory_order_relaxed);
    }
  }
  t_batch_pool = was;
}

void ThreadPool::worker_main() {
  while (true) {
    Batch* batch = nullptr;
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Open-coded wait loop: the thread-safety analysis sees the guarded
      // reads under mu_, which a predicate lambda would hide from it.
      while (!stop_ && (batch = newest_joinable(0)) == nullptr &&
             tasks_.empty()) {
        work_cv_.wait(mu_);
      }
      if (stop_) return;  // leftover tasks run in the destructor
      if (batch != nullptr) {
        // An open batch outranks the task queue. Entry is registered under
        // the lock: a caller waits only for workers that actually joined
        // its batch, so it never stalls behind a worker busy with a long
        // fire-and-forget task it was never needed for.
        ++batch->joiners;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (batch != nullptr) {
      drain(*batch);
      MutexLock lock(mu_);
      if (--batch->joiners == 0) done_cv_.notify_all();
    } else {
      run_task(task);
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  // Serial paths: no workers, a single index, or a call from inside a task
  // or another pool's batch body. The body runs on this thread with its
  // nesting context unchanged, so a single-index call made inside a batch
  // still lets the body's own nested calls fan out.
  if (workers_.empty() || end - begin == 1 || t_in_task ||
      (t_batch_pool != nullptr && t_batch_pool != this)) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  Batch batch;
  batch.next.store(begin, std::memory_order_relaxed);
  batch.end = end;
  batch.body = &body;
  {
    MutexLock lock(mu_);
    batch.seq = ++last_seq_;
    open_.push_back(&batch);
    newest_seq_.store(batch.seq, std::memory_order_release);
  }
  // Idle workers join through worker_main; callers waiting on older
  // batches' joiners may help too. Lanes busy in older batches see the new
  // seq between their indices.
  work_cv_.notify_all();
  done_cv_.notify_all();
  drain(batch);
  {
    // Every index is claimed: close the batch to new entrants.
    MutexLock lock(mu_);
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
    newest_seq_.store(open_.empty() ? 0 : open_.back()->seq,
                      std::memory_order_release);
  }
  // Wait for the lanes that did join to leave before the batch's stack
  // state dies, helping newer batches meanwhile (a joiner may be inside an
  // index that itself fanned out).
  for (;;) {
    help_newer(batch.seq);
    MutexLock lock(mu_);
    while (batch.joiners != 0 && newest_joinable(batch.seq) == nullptr) {
      done_cv_.wait(mu_);
    }
    if (batch.joiners == 0) break;
  }
  std::exception_ptr error;
  {
    // All joiners have left the batch, but the guarded-member discipline is
    // unconditional: read the error slot under its lock.
    MutexLock lock(batch.error_mu);
    error = batch.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace cdst
