/// \file search_state.h
/// The cost-distance solver's per-search label state (internal to
/// core/cost_distance.cpp; a header so its reset discipline can be tested
/// on its own).

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "util/prefetch.h"
#include "util/sparse_map.h"

namespace cdst::cd_detail {

struct Label {
  VertexId vertex{kInvalidVertex};
  double g{std::numeric_limits<double>::infinity()};
  std::uint32_t parent_idx{0xffffffffu};  ///< label arena index of predecessor
  EdgeId parent_edge{kInvalidEdge};
  std::uint32_t depth{0};  ///< #edges on the parent chain back to the seed
  bool settled{false};
  bool completion_pushed{false};
};

/// Reusable per-search scratch: a label arena plus a vertex -> label index.
/// In dense mode the index is an epoch-versioned flat array — resetting for
/// a new search is O(1): bump the epoch, clear the arena (capacity
/// retained) — so the ~2t searches of a t-sink solve stop churning the
/// allocator entirely. Dense arrays cost O(n) per live state and up to t+1
/// states are live at once, so above a memory budget the pool falls back to
/// a sparse (hash) index with O(touched) memory — exactly the pre-pool
/// trade-off, still recycling capacity across searches.
///
/// The dense array only ever grows: a search over a smaller graph uses a
/// prefix of it, and slots past the prefix keep stamps of older epochs,
/// which never match a later one. So a scratch that moves between windows
/// of different sizes never re-zeroes its (t+1) * n slots.
struct SearchState {
  std::vector<Label> labels;  ///< arena; heap entries reference slots

  /// Starts a fresh search over a graph with n vertices.
  void reset(std::size_t n, bool dense) {
    labels.clear();
    dense_ = dense;
    if (!dense_) {
      sparse_.clear();
      return;
    }
    if (++epoch_ == 0) {
      // u16 wrap: invalidate every stamp the slow way — all of the array,
      // not just the first n, since a later, larger search reads past n.
      std::fill(slots_.begin(), slots_.end(), VersionedSlot{});
      epoch_ = 1;
    }
    // Fresh slots carry stamp 0, which no epoch ever equals.
    if (slots_.size() < n) slots_.resize(n);
  }

  /// Mutable slot for vertex v: label arena index + 1, 0 if unlabelled.
  std::uint32_t& slot(VertexId v) {
    if (!dense_) return sparse_[v];
    VersionedSlot& s = slots_[v];
    if (s.stamp != epoch_) {
      s.stamp = epoch_;
      s.idx = 0;
    }
    return s.idx;
  }

  /// Prefetch hint for a vertex about to be slot()-ed: the dense slot array
  /// is the relax loop's only data-dependent load, so warming it while the
  /// strip arithmetic runs hides most of the miss.
  void prefetch_slot(VertexId v) const {
    if (dense_) prefetch_write(&slots_[v]);
  }

  /// Future-bound memo, versioned by the solver's merge generation. The
  /// bound h(comp, x) is a function of the component (fixed for a state's
  /// lifetime — states are only recycled across a generation bump) and the
  /// set of active targets, which mutates exactly at merges; so a hit
  /// returns bit-identically what a recompute would. This matters: the
  /// nearest-neighbor query inside the bound dominates solve time (~86% of
  /// the profile before memoization), and every settle re-derives the bound
  /// for each neighbor it relaxes. Sparse mode skips the memo (a miss only
  /// costs the recompute the dense memo would have avoided — results are
  /// identical either way).
  bool h_cached(VertexId v, std::uint32_t gen, double* h) const {
    if (!dense_) return false;
    const VersionedSlot& s = slots_[v];
    if (s.h_stamp != static_cast<std::uint16_t>(gen)) return false;
    *h = s.h;
    return true;
  }
  void store_h(VertexId v, std::uint32_t gen, double h) {
    if (!dense_) return;
    slots_[v].h_stamp = static_cast<std::uint16_t>(gen);
    slots_[v].h = h;
  }

  std::uint32_t pool_idx{0};  ///< position in SearchStatePool::all_

  static constexpr std::size_t slot_bytes() { return sizeof(VersionedSlot); }

 private:
  /// 16 bytes so four slots share a cache line: the relax loop's slot loads
  /// are the solver's dominant memory traffic, and grid graphs give same-row
  /// neighbours adjacent vertex ids — with 16-byte slots those land on the
  /// line the settled vertex already pulled (the 24-byte layout left them
  /// straddling lines). Keeping the memo value inside the slot matters the
  /// same way: a validated hit reads h off the line the probe just warmed.
  /// The u16 stamps are safe: the search epoch wraps inside reset() (full
  /// clear), and the solver fences the merge generation below 2^16
  /// (drop_all at solve setup), so a truncated comparison can never alias a
  /// stale stamp.
  struct VersionedSlot {
    std::uint16_t stamp{0};    ///< valid iff equal to the owner's epoch
    std::uint16_t h_stamp{0};  ///< valid iff equal to the solver's merge gen
    std::uint32_t idx{0};
    double h{0.0};
  };
  static_assert(sizeof(VersionedSlot) == 16);
  std::vector<VersionedSlot> slots_;
  SparseMap<std::uint32_t> sparse_;  ///< vertex -> index + 1 (sparse mode)
  std::uint16_t epoch_{0};
  bool dense_{true};
};

}  // namespace cdst::cd_detail
