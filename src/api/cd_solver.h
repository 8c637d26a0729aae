/// \file api/cd_solver.h
/// Session object around the cost-distance solver (paper Algorithm 1).
///
/// The solver is the Lagrangean subproblem oracle of the resource-sharing
/// router (paper Section IV): production routing calls it millions of times
/// per chip. A CdSolver amortizes that load: it owns SolverScratch lanes
/// (search-state pool, ownership maps, path scratch) recycled across solves,
/// so the steady state performs no per-solve allocations, and solves batches
/// deterministically in parallel on a caller-shared ThreadPool.
///
/// Memory: the DenseStateBudget bounds the dense state of the solves in
/// flight. Scratch retention comes on top of it: the session keeps one
/// scratch per lane that ever ran concurrently, and each keeps its grow-only
/// search-state arrays after its solve releases its reservation — at most
/// (t_max + 1) * n_max * 4 bytes of slots per scratch (t_max sinks, n_max
/// vertices over the solves it served), plus label arenas, until the
/// session is destroyed. Pipelines
/// that cannot hold a whole batch's results use stream(): an incremental
/// submit/poll/drain surface with a bounded in-flight window (see
/// api/solve_stream.h).
///
/// Error handling is structured: no exception crosses this boundary. Bad
/// instances come back as kInvalidArgument, honored cancellation tokens as
/// kCancelled, anything unexpected as kInternal.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "api/run_control.h"
#include "api/status.h"
#include "core/cost_distance.h"

namespace cdst {

class ThreadPool;
class SolveStream;

namespace detail {
class SolverScratchPool;
struct StreamState;
}  // namespace detail

/// Configuration of a streaming solve session (see api/solve_stream.h).
struct SolveStreamOptions {
  /// Maximum jobs in flight at once (submitted, not yet finished).
  /// submit() blocks when the window is full — the backpressure that
  /// bounds the dense-state reservations in flight to window * per-solve
  /// footprint against the session's (or a shared) DenseStateBudget. The
  /// scratch the lanes leave behind is retained on top of that (see the
  /// CdSolver memory note). Values < 1 are treated as 1.
  std::size_t window{8};
};

class CdSolver {
 public:
  /// \param options solver configuration shared by all solves (overridable
  ///        per job in batch mode). Copied; change later via set_options().
  /// \param pool borrowed worker pool for solve_batch / stream; nullptr runs
  ///        everything serially on the calling thread. Results are identical
  ///        either way, at any thread count.
  explicit CdSolver(SolverOptions options = {}, ThreadPool* pool = nullptr);
  ~CdSolver();
  CdSolver(CdSolver&&) noexcept;
  CdSolver& operator=(CdSolver&&) noexcept;

  const SolverOptions& options() const { return options_; }

  /// Replaces the session options for subsequent solves/submits. A
  /// caller-installed options.shared_dense_budget survives option changes:
  /// once a shared pool is wired in (by the caller or an Engine), a later
  /// set_options without one keeps the installed pool instead of silently
  /// unhooking it — detaching requires a fresh session. The session's own
  /// budget pool re-sizes when no shared pool is installed; while a stream
  /// is open (its lanes hold live reservations) the resize is deferred,
  /// not dropped: it applies at the next solve/solve_batch/stream call
  /// made once the session is stream-quiescent.
  void set_options(const SolverOptions& options) {
    DenseStateBudget* installed = options.shared_dense_budget != nullptr
                                      ? options.shared_dense_budget
                                      : options_.shared_dense_budget;
    options_ = options;
    options_.shared_dense_budget = installed;
    budget_stale_ = installed == nullptr;
    maybe_reset_budget();
  }

  /// One instance of a batch: the instance plus optional per-job overrides
  /// of the session options (the windowed router oracles need a per-net
  /// future-cost oracle and seed).
  struct Job {
    const CostDistanceInstance* instance{nullptr};
    const FutureCostOracle* future_cost{nullptr};  ///< null: session default
    std::optional<std::uint64_t> seed;             ///< nullopt: session seed
  };

  /// Solves one instance on the calling thread, recycling session scratch.
  /// Deterministic given the options seed; bit-identical to a fresh-state
  /// solve_cost_distance(instance, options, /*scratch=*/nullptr).
  StatusOr<SolveResult> solve(const CostDistanceInstance& instance,
                              const RunControl& control = {});

  /// Same, with per-call overrides (see Job).
  StatusOr<SolveResult> solve(const Job& job, const RunControl& control = {});

  /// Solves all jobs, in parallel when the session has a ThreadPool. Results
  /// are index-addressed and each solve is single-threaded-deterministic, so
  /// the returned vector is bit-identical to looping solve() yourself — at
  /// any thread count. On failure the lowest-indexed non-OK job's status is
  /// returned (cancellation takes precedence); no partial vector escapes.
  StatusOr<std::vector<SolveResult>> solve_batch(
      std::span<const Job> jobs, const RunControl& control = {});

  /// Convenience overload: all instances under the session options.
  StatusOr<std::vector<SolveResult>> solve_batch(
      std::span<const CostDistanceInstance> instances,
      const RunControl& control = {});

  using StreamOptions = SolveStreamOptions;

  /// Opens a streaming solve session over this solver: submit jobs one at a
  /// time, poll results back strictly in submission order, bit-identical to
  /// solve_batch over the same jobs at any thread count and poll cadence.
  /// The control's cancel token and event sink observe the whole stream.
  /// The stream borrows this solver (scratch, options, budget): it must be
  /// drained or destroyed before the solver, and option changes via
  /// set_options() apply to jobs submitted afterwards. Any number of
  /// streams may be open concurrently; they share the session's scratch
  /// pool and budget.
  SolveStream stream(const StreamOptions& stream_options = {},
                     const RunControl& control = {});

 private:
  friend class SolveStream;
  friend struct detail::StreamState;

  /// The one place session options merge with per-job overrides and the
  /// session budget pool — solve(), solve_batch() and SolveStream all
  /// resolve through here, so their results cannot drift apart.
  SolverOptions resolve_job_options(const Job& job);

  /// Applies a deferred own-pool resize (see set_options) once no stream
  /// holds reservations. Called at every engine-call entry point, so a
  /// resize requested mid-stream lands at the first quiescent call instead
  /// of being lost.
  void maybe_reset_budget() {
    if (budget_stale_ &&
        active_streams_->load(std::memory_order_acquire) == 0) {
      dense_budget_.reset(options_.dense_state_budget_bytes);
      budget_stale_ = false;
    }
  }

  SolverOptions options_;
  ThreadPool* pool_;
  std::unique_ptr<detail::SolverScratchPool> scratch_;
  /// One atomic dense-state pool shared across all of this session's solve
  /// lanes, sized from options_.dense_state_budget_bytes: concurrent
  /// solve_batch lanes draw per-solve reservations from it instead of each
  /// budgeting independently. Callers that set their own
  /// options.shared_dense_budget override it.
  DenseStateBudget dense_budget_;
  /// Open SolveStreams against this session (their lanes may hold live
  /// dense-budget reservations); heap-held so the session stays movable
  /// while streams point at it.
  std::shared_ptr<std::atomic<int>> active_streams_;
  /// True when set_options changed dense_state_budget_bytes while a stream
  /// was open; the resize lands via maybe_reset_budget().
  bool budget_stale_{false};
};

}  // namespace cdst
