/// \file search_state.h
/// The cost-distance solver's per-search label state (internal to
/// core/cost_distance.cpp; a header so its reset discipline can be tested
/// on its own).

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "util/prefetch.h"
#include "util/sparse_map.h"

namespace cdst::cd_detail {

struct Label {
  VertexId vertex{kInvalidVertex};
  /// Merge generation h was computed at; 0 (never a solver generation)
  /// until the first store_h.
  std::uint32_t h_gen{0};
  double g{std::numeric_limits<double>::infinity()};
  std::uint32_t parent_idx{0xffffffffu};  ///< label arena index of predecessor
  EdgeId parent_edge{kInvalidEdge};
  std::uint32_t depth{0};  ///< #edges on the parent chain back to the seed
  bool settled{false};
  bool completion_pushed{false};
  double h{0.0};  ///< memoized future bound h(comp, vertex)

  /// Future-bound memo, versioned by the solver's merge generation. The
  /// bound h(comp, x) is a function of the component (fixed for a search's
  /// lifetime) and the set of active targets, which mutates exactly at
  /// merges; so a hit returns bit-identically what a recompute would. The
  /// solver only asks for h(comp, x) once x holds a label in that search, so
  /// the label is where the memo lives. This matters: the nearest-neighbor
  /// query inside the bound dominates solve time (~86% of the profile before
  /// memoization), and every settle re-derives the bound for each neighbor
  /// it relaxes.
  bool h_cached(std::uint32_t gen, double* out) const {
    if (h_gen != gen) return false;
    *out = h;
    return true;
  }
  void store_h(std::uint32_t gen, double value) {
    h_gen = gen;
    h = value;
  }
};
static_assert(sizeof(Label) == 40);

/// Reusable per-search scratch: a label arena plus a vertex -> label index.
/// Resetting for a new search clears the arena (capacity retained), so the
/// ~2t searches of a t-sink solve stop churning the allocator entirely. In
/// dense mode the index is a flat array of 4-byte slots (label index + 1,
/// 0 if unlabelled); dense arrays cost O(n) per live state and up to t+1
/// states are live at once, so above a memory budget the pool falls back to
/// a sparse (hash) index with O(touched) memory — identical results, still
/// recycling capacity across searches.
///
/// The dense array only ever grows and is kept all-zero between searches:
/// a slot is only ever written together with a label, so reset() zeroes
/// exactly the previous search's labelled vertices — O(labels), never O(n).
/// A search over a smaller graph uses a prefix of the array, and a state
/// that moves between windows of different sizes never re-zeroes its slots.
/// The array is scratch the pool retains: it stays allocated after a solve
/// returns its budget reservation.
struct SearchState {
  std::vector<Label> labels;  ///< arena; heap entries reference slots

  /// Starts a fresh search over a graph with n vertices.
  void reset(std::size_t n, bool dense) {
    if (dense_) {
      for (const Label& l : labels) slots_[l.vertex] = 0;
    }
    labels.clear();
    dense_ = dense;
    if (!dense_) {
      sparse_.clear();
      return;
    }
    if (slots_.size() < n) slots_.resize(n);
  }

  /// Mutable slot for vertex v: label arena index + 1, 0 if unlabelled.
  /// Write a nonzero value only after pushing the label it names.
  std::uint32_t& slot(VertexId v) { return dense_ ? slots_[v] : sparse_[v]; }

  /// Prefetch hint for a vertex about to be slot()-ed: the dense slot array
  /// is the relax loop's only data-dependent load, so warming it while the
  /// strip arithmetic runs hides most of the miss.
  void prefetch_slot(VertexId v) const {
    if (dense_) prefetch_write(&slots_[v]);
  }

  std::uint32_t pool_idx{0};  ///< position in SearchStatePool::all_

  static constexpr std::size_t slot_bytes() { return sizeof(std::uint32_t); }

 private:
  std::vector<std::uint32_t> slots_;  ///< vertex -> index + 1 (dense mode)
  SparseMap<std::uint32_t> sparse_;   ///< vertex -> index + 1 (sparse mode)
  bool dense_{true};
};

}  // namespace cdst::cd_detail
