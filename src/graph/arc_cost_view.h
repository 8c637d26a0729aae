/// \file arc_cost_view.h
/// Structure-of-arrays edge-attribute plane keyed by arc index.
///
/// Search clients historically reached edge attributes through per-edge
/// functor indirection (cost[a.edge], delay[a.edge]): two dependent gathers
/// per relaxed arc that the compiler can neither vectorize nor prefetch. An
/// ArcCostView expands the per-edge attributes once into per-*arc* arrays
/// aligned with Graph's SoA arc plane (graph/graph.h): the arcs of vertex v
/// occupy the contiguous index range [arc_begin(v), arc_end(v)) in every
/// array, so a relax loop reads cost/delay/layer as sequential strips — the
/// shape the blocked, branch-light kernels in graph/dijkstra.h and
/// core/cost_distance.cpp scan.
///
/// The owned per-arc strips are allocated 32-byte aligned (util/simd.h's
/// AlignedAllocator) and padded with kRelaxStrip zero doubles beyond their
/// logical size, so the Vec4d kernels may issue full-width vector loads at
/// any in-range strip offset — including the last partial strip — without
/// ever reading past the allocation. The accessor spans still cover exactly
/// num_arcs() elements; the padding is invisible to callers.
///
/// The view is immutable between assign() calls and always owns the
/// derived per-arc arrays. The per-edge inputs are copied by assign() (the
/// safe default for callers whose source arrays may die first) or borrowed
/// by assign_borrowed() — the right mode for producers whose source
/// vectors share the view's lifetime (RoutingGrid's base plane: a
/// heap-allocated vector's buffer survives moves of the owner, so the
/// borrowed spans stay valid). Both gather the strips from the per-edge
/// arrays through the graph's arc_edges().
///
/// A producer that knows its arc order in closed form skips that gather:
/// RoutingWindow writes its priced per-arc strips in the same pass that
/// stamps its CSR, into a Strips allocated at the exact size, and hands
/// them over with adopt() (per-edge arrays borrowed, as in
/// assign_borrowed()). Producers: RoutingGrid finalizes a base-cost plane
/// with its graph; a RoutingWindow adopts its own when its stamped form is
/// first asked for (the embedding DP does; the cost-distance solver relaxes
/// the window lattice instead).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/simd.h"

namespace cdst {

class ArcCostView {
 public:
  ArcCostView() = default;
  ArcCostView(const Graph& g, std::span<const double> edge_cost,
              std::span<const double> edge_delay,
              std::span<const std::uint8_t> edge_layer = {}) {
    assign(g, edge_cost, edge_delay, edge_layer);
  }

  /// (Re)builds the plane over g from per-edge attributes. `edge_layer` is
  /// optional (grids key arcs by layer; generic graphs have none). The graph
  /// is borrowed and must outlive the view; the attribute arrays are copied.
  void assign(const Graph& g, std::span<const double> edge_cost,
              std::span<const double> edge_delay,
              std::span<const std::uint8_t> edge_layer = {});

  /// Like assign(), but the per-edge cost/delay arrays are borrowed, not
  /// copied — for producers whose source vectors live exactly as long as
  /// the view (per-arc strips are still owned/derived).
  void assign_borrowed(const Graph& g, std::span<const double> edge_cost,
                       std::span<const double> edge_delay,
                       std::span<const std::uint8_t> edge_layer = {});

  /// Per-arc strips written by a producer that derives arc order itself:
  /// cost/delay hold num_arcs values plus kRelaxStrip zeros of pad, layer
  /// holds num_arcs values. The constructor allocates them at that exact
  /// size with the pad already zero; the producer overwrites the first
  /// num_arcs entries.
  struct Strips {
    explicit Strips(std::size_t num_arcs);
    AlignedVector<double> cost;
    AlignedVector<double> delay;
    std::vector<std::uint8_t> layer;
  };

  /// Adopts pre-built strips over g (sizes checked against g) and borrows
  /// the per-edge cost/delay arrays, as assign_borrowed() does.
  void adopt(const Graph& g, Strips strips,
             std::span<const double> edge_cost,
             std::span<const double> edge_delay);

  bool empty() const { return graph_ == nullptr; }
  const Graph* graph() const { return graph_; }

  // Per-arc attribute strips, index-aligned with Graph::arc_heads(). The
  // backing buffers extend kRelaxStrip zero-padded doubles past the span end
  // (full-width vector loads on the final strip stay in-bounds).
  std::span<const double> arc_cost() const {
    return {arc_cost_.data(), num_arcs_};
  }
  std::span<const double> arc_delay() const {
    return {arc_delay_.data(), num_arcs_};
  }
  std::span<const std::uint8_t> arc_layer() const { return arc_layer_; }
  const double* arc_cost_data() const { return arc_cost_.data(); }
  const double* arc_delay_data() const { return arc_delay_.data(); }

  // The per-edge inputs (what legacy EdgeId-keyed code evaluates;
  // bit-identical to what the per-arc strips were derived from). Owned
  // copies after assign(), borrowed views after assign_borrowed().
  std::span<const double> edge_cost() const { return edge_cost_view_; }
  std::span<const double> edge_delay() const { return edge_delay_view_; }

 private:
  void build_arcs(const Graph& g, std::span<const double> edge_cost,
                  std::span<const double> edge_delay,
                  std::span<const std::uint8_t> edge_layer);
  /// Common entry of every (re)build: the fault site, the per-edge size
  /// checks and the graph binding.
  void bind(const Graph& g, std::span<const double> edge_cost,
            std::span<const double> edge_delay);

  const Graph* graph_{nullptr};
  std::size_t num_arcs_{0};  ///< logical strip length (pad lives beyond it)
  AlignedVector<double> arc_cost_;
  AlignedVector<double> arc_delay_;
  std::vector<std::uint8_t> arc_layer_;
  std::vector<double> edge_cost_store_;  ///< empty in borrowed mode
  std::vector<double> edge_delay_store_;
  std::span<const double> edge_cost_view_;
  std::span<const double> edge_delay_view_;
};

}  // namespace cdst
