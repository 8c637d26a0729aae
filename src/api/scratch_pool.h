/// \file api/scratch_pool.h
/// Internal session-layer helpers shared by CdSolver and Router: the leased
/// SolverScratch free list and the RunControl -> SolveControls mapping.
/// The in-tree bench harnesses (cost_increase_common.h) lease scratch from
/// here too — a deliberate repo-internal dependency. Everything in
/// cdst::detail is outside the supported api/cdst.h surface and may change
/// shape between releases.
///
/// Parallel batch work (CdSolver::solve_batch, Router's per-net oracle
/// calls) hands out work by index, not by worker, so scratch cannot be
/// per-thread; instead each task leases a scratch for its duration. The pool
/// grows to the concurrency high-water mark and recycles from there on.
/// Scratch contents never influence results (see SolverScratch), so the
/// lease order — which does vary with thread count — is immaterial.

#pragma once

#include <chrono>
#include <memory>
#include <string_view>
#include <vector>

#include "api/run_control.h"
#include "api/status.h"
#include "core/cost_distance.h"
#include "util/thread_annotations.h"

namespace cdst {
struct SolveMergeEvent;  // api/events.h
}  // namespace cdst

namespace cdst::detail {

/// The one mapping from a caller's RunControl onto the core solver's
/// cooperative controls (cancel flag + deadline + poll interval; event
/// wiring stays call-site specific). All session objects use this, so their
/// cancellation/deadline semantics cannot drift apart — including the
/// "cancel_poll_interval == 0 means the default" substitution, which
/// happens here and nowhere else. `pool` (nullable) is the pool the
/// oracle may fan a single net's work out on — the Router passes its own.
inline SolveControls make_solve_controls(const RunControl& control,
                                         ThreadPool* pool = nullptr) {
  SolveControls controls;
  controls.pool = pool;
  if (control.cancel != nullptr) controls.cancel = &control.cancel->flag();
  controls.deadline = control.deadline;
  controls.cancel_poll_interval = control.cancel_poll_interval > 0
                                      ? control.cancel_poll_interval
                                      : kDefaultCancelPollInterval;
  return controls;
}

/// True iff the control's deadline has passed (no deadline never expires).
/// The boundary-check twin of core-side deadline_expired(SolveControls*):
/// sessions call this at batch/round/job boundaries, where there is no
/// SolveControls in scope.
inline bool deadline_expired(const RunControl& control) {
  return control.deadline.has_value() &&
         std::chrono::steady_clock::now() >= *control.deadline;
}

// The one origin of the kDeadlineExceeded / kResourceExhausted codes
// outside status.h (enforced by scripts/check_invariants.py rule
// `status-origin`): both codes carry machine semantics — "the deadline you
// set expired" and "this can never fit, do not retry" — that would decay
// into noise if ad-hoc call sites could mint them for other conditions.

inline Status deadline_exceeded_status(std::string_view msg) {
  return Status::DeadlineExceeded(msg);
}

inline Status resource_exhausted_status(std::string_view msg) {
  return Status::ResourceExhausted(msg);
}

/// Runs one solve against leased scratch and maps every failure mode onto
/// the structured status contract (defined in cd_solver.cpp; shared with
/// the SolveStream lanes so the status mapping cannot drift).
Status solve_into(const CostDistanceInstance& instance,
                  const SolverOptions& options, SolverScratch* scratch,
                  const SolveControls* controls, SolveResult* out);

/// Core merge tick -> typed api event (defined in cd_solver.cpp).
SolveMergeEvent to_event(const MergeTick& tick);

class SolverScratchPool {
 public:
  /// RAII lease; returns the scratch on destruction (exception-safe).
  class Lease {
   public:
    Lease(SolverScratchPool& pool, SolverScratch* scratch)
        : pool_(&pool), scratch_(scratch) {}
    ~Lease() {
      if (scratch_ != nullptr) pool_->release(scratch_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    SolverScratch* get() const { return scratch_; }

   private:
    SolverScratchPool* pool_;
    SolverScratch* scratch_;
  };

  Lease lease() { return Lease(*this, acquire()); }

 private:
  SolverScratch* acquire() {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      SolverScratch* s = free_.back();
      free_.pop_back();
      return s;
    }
    owned_.push_back(std::make_unique<SolverScratch>());
    return owned_.back().get();
  }

  void release(SolverScratch* scratch) {
    MutexLock lock(mu_);
    free_.push_back(scratch);
  }

  Mutex mu_;
  std::vector<std::unique_ptr<SolverScratch>> owned_ CDST_GUARDED_BY(mu_);
  std::vector<SolverScratch*> free_ CDST_GUARDED_BY(mu_);
};

}  // namespace cdst::detail
