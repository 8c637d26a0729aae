#include "graph/lattice.h"

namespace cdst {

WindowLattice::WindowLattice(std::int32_t wx, std::int32_t wy,
                             const std::vector<LayerShape>& layers,
                             double via_delay)
    : wx_(wx), wy_(wy), via_delay_(via_delay) {
  CDST_CHECK(wx >= 1 && wy >= 1 && !layers.empty());
  plane_ = static_cast<VertexId>(wx) * static_cast<VertexId>(wy);
  num_vertices_ = static_cast<std::size_t>(plane_) * layers.size();
  CDST_CHECK_MSG(num_vertices_ < (std::size_t{1} << 31),
                 "window too large for 31-bit vertex ids");
  div_plane_ = Divider(plane_);
  div_wx_ = Divider(static_cast<std::uint32_t>(wx));
  const auto uwx = static_cast<std::size_t>(wx);
  const auto uwy = static_cast<std::size_t>(wy);
  layers_.resize(layers.size());
  std::size_t e = 0;
  for (std::size_t z = 0; z < layers.size(); ++z) {
    const LayerShape& shape = layers[z];
    CDST_CHECK(!shape.wire_delays.empty() &&
               shape.wire_delays.size() <= kMaxLatticeWireTypes);
    Layer& l = layers_[z];
    l.first_edge = static_cast<EdgeId>(e);
    l.wires = static_cast<std::uint32_t>(shape.wire_delays.size());
    l.up = z + 1 < layers.size() ? 1 : 0;
    l.own = l.wires + l.up;
    l.horizontal = shape.horizontal;
    for (std::size_t k = 0; k < shape.wire_delays.size(); ++k) {
      l.wire_delay[k] = shape.wire_delays[k];
    }
    if (l.horizontal) {
      l.row = static_cast<std::uint32_t>((uwx - 1) * l.own + l.up);
      e += uwy * l.row;
    } else {
      l.row = static_cast<std::uint32_t>(uwx * l.own);
      e += (uwy - 1) * l.row + uwx * l.up;
    }
  }
  num_edges_ = e;
  CDST_CHECK_MSG(num_edges_ < kInvalidEdge,
                 "window too large for 32-bit edge ids");
}

WindowLattice::Edge WindowLattice::edge(EdgeId e) const {
  CDST_ASSERT(e < num_edges_);
  // The last layer starting at or before e; layers without edges share
  // their first id with the next layer, so this is the one e lies on.
  std::size_t z = layers_.size() - 1;
  while (layers_[z].first_edge > e) --z;
  const Layer& l = layers_[z];
  const EdgeId r = e - l.first_edge;
  EdgeId i = 0;
  EdgeId j = 0;
  EdgeId k = l.wires;  // the via unless the offset says otherwise
  if (l.horizontal) {
    j = r / l.row;
    const EdgeId q = r - j * l.row;
    const EdgeId wired = static_cast<EdgeId>(wx_ - 1) * l.own;
    if (q < wired) {
      i = q / l.own;
      k = q - i * l.own;
    } else {
      i = static_cast<EdgeId>(wx_ - 1);
    }
  } else {
    const EdgeId wired = static_cast<EdgeId>(wy_ - 1) * l.row;
    if (r < wired) {
      j = r / l.row;
      const EdgeId q = r - j * l.row;
      i = q / l.own;
      k = q - i * l.own;
    } else {
      j = static_cast<EdgeId>(wy_ - 1);
      i = r - wired;
    }
  }
  Edge out;
  out.tail = static_cast<VertexId>(z) * plane_ +
             j * static_cast<VertexId>(wx_) + i;
  out.layer = static_cast<std::uint32_t>(z);
  out.wire = k;
  out.is_via = k == l.wires;
  out.head = out.is_via ? out.tail + plane_
                        : out.tail + (l.horizontal
                                          ? 1
                                          : static_cast<VertexId>(wx_));
  return out;
}

}  // namespace cdst
