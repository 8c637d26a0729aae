/// \file lattice.h
/// Window lattices: routing windows in closed form, and the edge-endpoint
/// view that reads either graph form.
///
/// A routing window (grid/window.h) is fully described by its extent in
/// gcells and its layer stack. Vertices are numbered layer-major, then
/// row-major within the box. Edges are numbered by ascending tail (the
/// lower endpoint): a vertex's own edges are its wire types' edges to the
/// next gcell along the layer's direction, then its via up. The arcs of a
/// vertex follow edge-id order: via below, wire types to the previous
/// gcell, wire types to the next gcell, via above. A WindowLattice answers
/// every structural question about that graph by arithmetic — the arcs of
/// a vertex, the endpoints of an edge, an edge's delay — so a search can
/// relax arcs straight from the lattice instead of first writing out a CSR
/// graph and per-arc attribute strips for the whole window. That matters
/// because the cost-distance search settles only a fraction of a window's
/// vertices. Per-edge prices are not part of the lattice; they stay one
/// array keyed by edge id (CostDistanceInstance::cost).

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/assert.h"

namespace cdst {

/// Most wire types a layer may carry (RoutingGrid checks it): a vertex then
/// has at most kMaxLatticeArcs arcs, so one vertex's arcs fit a fixed
/// stack strip.
constexpr std::size_t kMaxLatticeWireTypes = 7;
constexpr std::size_t kMaxLatticeArcs = 2 * kMaxLatticeWireTypes + 2;

class WindowLattice {
 public:
  /// One layer as the lattice needs it: wiring direction and the delay of
  /// each wire type.
  struct LayerShape {
    bool horizontal{true};
    std::vector<double> wire_delays;  ///< one per wire type, 1..kMax
  };

  /// A decoded edge: endpoints, the tail's layer, and which wire type it
  /// is (`wire == wires of the layer` for the via up).
  struct Edge {
    VertexId tail{kInvalidVertex};
    VertexId head{kInvalidVertex};
    std::uint32_t layer{0};
    std::uint32_t wire{0};
    bool is_via{false};
  };

  WindowLattice() = default;
  /// A wx x wy window over `layers` (bottom first); every via has
  /// `via_delay`.
  WindowLattice(std::int32_t wx, std::int32_t wy,
                const std::vector<LayerShape>& layers, double via_delay);

  std::int32_t wx() const { return wx_; }
  std::int32_t wy() const { return wy_; }
  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return num_edges_; }
  std::size_t num_arcs() const { return 2 * num_edges_; }

  /// Number of wire types on layer z.
  std::uint32_t wires(std::int32_t z) const {
    return layers_[static_cast<std::size_t>(z)].wires;
  }

  /// Writes the arcs of v, in arc order, to the first n entries of `heads`,
  /// `edges` and `delays` (each at least kMaxLatticeArcs long); returns n.
  std::uint32_t arcs(VertexId v, VertexId* heads, EdgeId* edges,
                     double* delays) const {
    const auto [z, i, j] = locate(v);
    const Layer& l = layers_[z];
    std::uint32_t n = 0;
    if (z > 0) {
      const Layer& lb = layers_[z - 1];
      heads[n] = v - plane_;
      edges[n] = via_up(lb, i, j);
      delays[n] = via_delay_;
      ++n;
    }
    const VertexId step = l.horizontal ? 1 : static_cast<VertexId>(wx_);
    if (l.horizontal ? i > 0 : j > 0) {
      const EdgeId e0 =
          l.horizontal ? own_first(l, i - 1, j) : own_first(l, i, j - 1);
      for (std::uint32_t k = 0; k < l.wires; ++k, ++n) {
        heads[n] = v - step;
        edges[n] = e0 + k;
        delays[n] = l.wire_delay[k];
      }
    }
    const EdgeId own = own_first(l, i, j);
    const bool next = has_next(l, i, j);
    if (next) {
      for (std::uint32_t k = 0; k < l.wires; ++k, ++n) {
        heads[n] = v + step;
        edges[n] = own + k;
        delays[n] = l.wire_delay[k];
      }
    }
    if (l.up) {
      heads[n] = v + plane_;
      edges[n] = own + (next ? l.wires : 0);
      delays[n] = via_delay_;
      ++n;
    }
    return n;
  }

  /// First edge whose tail is v (its wire types to the next gcell come
  /// first, then its via up).
  EdgeId first_edge(VertexId v) const {
    const auto [z, i, j] = locate(v);
    return own_first(layers_[z], i, j);
  }

  /// Whether v has wire edges to the next gcell along its layer.
  bool has_next(VertexId v) const {
    const auto [z, i, j] = locate(v);
    return has_next(layers_[z], i, j);
  }

  /// Decodes edge e.
  Edge edge(EdgeId e) const;

  /// d(e): the wire type's or the via's delay.
  double delay(EdgeId e) const {
    const Edge d = edge(e);
    return d.is_via ? via_delay_ : layers_[d.layer].wire_delay[d.wire];
  }

 private:
  /// Division of a vertex id (< 2^31) by a fixed divisor d as a multiply
  /// and a shift: with s = 31 + ceil(log2 d) and m = ceil(2^s / d),
  /// floor(n * m / 2^s) = floor(n / d) for every n < 2^31 (Granlund and
  /// Montgomery), and n * m < 2^64. The relax loop decodes a vertex per
  /// settle, where two hardware divisions would cost more than its arcs.
  class Divider {
   public:
    Divider() = default;
    explicit Divider(std::uint32_t d)
        : shift_(31 + static_cast<std::uint32_t>(std::bit_width(d - 1))),
          mul_(((std::uint64_t{1} << shift_) + d - 1) / d) {}
    std::uint32_t operator()(std::uint32_t n) const {
      CDST_ASSERT(n < (1u << 31));
      return static_cast<std::uint32_t>((n * mul_) >> shift_);
    }

   private:
    std::uint32_t shift_{31};
    std::uint64_t mul_{std::uint64_t{1} << 31};
  };

  struct Layer {
    EdgeId first_edge{0};  ///< first edge with a tail on this layer
    std::uint32_t wires{0};
    std::uint32_t up{0};   ///< 1 if a via leads to the layer above
    std::uint32_t own{0};  ///< edges of a vertex with a next gcell
    std::uint32_t row{0};  ///< edges of one full row (horizontal layers)
    bool horizontal{true};
    std::array<double, kMaxLatticeWireTypes> wire_delay{};
  };

  /// Layer, column and row of vertex v.
  struct Cell {
    std::uint32_t z;
    std::int32_t i;
    std::int32_t j;
  };
  Cell locate(VertexId v) const {
    CDST_ASSERT(v < num_vertices_);
    const std::uint32_t z = div_plane_(v);
    const VertexId p = v - z * plane_;
    const auto j = static_cast<std::int32_t>(div_wx_(p));
    return {z, static_cast<std::int32_t>(p) - j * wx_, j};
  }

  bool has_next(const Layer& l, std::int32_t i, std::int32_t j) const {
    return l.horizontal ? i + 1 < wx_ : j + 1 < wy_;
  }

  /// First own edge of gcell (i, j) on layer l.
  EdgeId own_first(const Layer& l, std::int32_t i, std::int32_t j) const {
    const auto ui = static_cast<EdgeId>(i);
    const auto uj = static_cast<EdgeId>(j);
    if (l.horizontal) return l.first_edge + uj * l.row + ui * l.own;
    return l.first_edge + uj * static_cast<EdgeId>(wx_) * l.own +
           ui * (j + 1 < wy_ ? l.own : l.up);
  }

  /// The via up from gcell (i, j) of layer l.
  EdgeId via_up(const Layer& l, std::int32_t i, std::int32_t j) const {
    return own_first(l, i, j) + (has_next(l, i, j) ? l.wires : 0);
  }

  std::int32_t wx_{0};
  std::int32_t wy_{0};
  VertexId plane_{0};
  Divider div_plane_;
  Divider div_wx_;
  std::size_t num_vertices_{0};
  std::size_t num_edges_{0};
  double via_delay_{0.0};
  std::vector<Layer> layers_;
};

/// Edge endpoints of either graph form: a CSR Graph or a WindowLattice.
/// The tree code (TreeAssembler, SteinerTree::validate, evaluate_tree)
/// reads edges through it; it touches O(tree) edges, so the per-call branch
/// is noise. Borrowed; a view never outlives its graph.
class GraphView {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): call sites that hold a
  // Graph keep passing it where a view is taken.
  GraphView(const Graph& g) : graph_(&g) {}
  // NOLINTNEXTLINE(google-explicit-constructor): as above, for lattices.
  GraphView(const WindowLattice& l) : lattice_(&l) {}

  std::size_t num_vertices() const {
    return graph_ != nullptr ? graph_->num_vertices()
                             : lattice_->num_vertices();
  }
  std::size_t num_edges() const {
    return graph_ != nullptr ? graph_->num_edges() : lattice_->num_edges();
  }
  struct Ends {
    VertexId tail;
    VertexId head;
  };
  Ends ends(EdgeId e) const {
    if (graph_ != nullptr) return {graph_->tail(e), graph_->head(e)};
    const WindowLattice::Edge d = lattice_->edge(e);
    return {d.tail, d.head};
  }
  /// The endpoint of e opposite to v. Precondition: v is an endpoint of e.
  VertexId other_end(EdgeId e, VertexId v) const {
    const Ends d = ends(e);
    CDST_ASSERT(d.tail == v || d.head == v);
    return d.tail == v ? d.head : d.tail;
  }

 private:
  const Graph* graph_{nullptr};
  const WindowLattice* lattice_{nullptr};
};

}  // namespace cdst
