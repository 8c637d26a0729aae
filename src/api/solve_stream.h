/// \file api/solve_stream.h
/// Incremental streaming variant of CdSolver::solve_batch for pipelines
/// that cannot materialize whole result vectors.
///
/// A SolveStream is a bounded-window pipeline over one CdSolver session:
/// submit(Job) dispatches the job onto the session's ThreadPool and returns
/// immediately while fewer than `window` jobs are in flight, or blocks until
/// a lane frees up — the backpressure that bounds the dense-state
/// reservations in flight to window * per-solve footprint against the
/// shared DenseStateBudget (retained lane scratch comes on top; see
/// api/cd_solver.h).
/// poll() hands results back strictly in submission order (a result is
/// withheld until every earlier one has been delivered), so the sequence of
/// delivered results is bit-identical to solve_batch over the same jobs —
/// at any thread count and any poll cadence. Each delivered element is a
/// StatusOr: per-job failures (kInvalidArgument, kCancelled) ride in-band
/// instead of poisoning the stream.
///
/// Lifetime: the stream borrows its CdSolver (scratch, options, budget) and
/// the session's ThreadPool; both must outlive the stream, and the solver
/// must not be moved while a stream is open. The destructor blocks until
/// in-flight solves finish (undelivered results are discarded). After
/// cancellation — via the RunControl token passed to CdSolver::stream() —
/// in-flight lanes unwind with kCancelled results, and the session stays
/// fully reusable for new solves, batches and streams.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "api/cd_solver.h"
#include "api/status.h"

namespace cdst {

class SolveStream {
 public:
  /// Blocks until in-flight lanes finish (undelivered results discarded).
  ~SolveStream();
  SolveStream(SolveStream&&) noexcept;
  /// Tears down the current stream first (same blocking wait as the
  /// destructor) before adopting the other's state.
  SolveStream& operator=(SolveStream&&) noexcept;

  /// Dispatches one job. Returns once the job is accepted (possibly after
  /// blocking on the window); the returned Status reflects *acceptance* —
  /// kInvalidArgument for a job without an instance, kCancelled once the
  /// stream's token fired — while the job's own solve outcome arrives
  /// through poll()/next()/drain() at this job's submission index. A
  /// rejected job is not enqueued and produces no result.
  Status submit(const CdSolver::Job& job);
  /// Convenience: the instance under the session options.
  Status submit(const CostDistanceInstance& instance);

  /// Non-blocking: the next result in submission order when it is already
  /// finished; nullopt when the head job is still in flight or nothing is
  /// pending (distinguish via pending()).
  std::optional<StatusOr<SolveResult>> poll();

  /// Blocking: waits for the next result in submission order; nullopt only
  /// when no undelivered jobs remain.
  std::optional<StatusOr<SolveResult>> next();

  /// Blocking: every undelivered result, in submission order. Equivalent to
  /// polling next() until empty — the convenience tail-collector for the
  /// final <= window + unpolled results.
  std::vector<StatusOr<SolveResult>> drain();

  /// Jobs submitted / results delivered / submitted-but-undelivered.
  std::size_t submitted() const;
  std::size_t delivered() const;
  std::size_t pending() const;

 private:
  friend class CdSolver;
  explicit SolveStream(std::shared_ptr<detail::StreamState> state);

  /// Blocks until in_flight == 0 on the current state (no-op when moved
  /// from); the teardown half of the destructor and move-assignment.
  void wait_for_lanes();

  std::shared_ptr<detail::StreamState> state_;
};

}  // namespace cdst
