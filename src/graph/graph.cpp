#include "graph/graph.h"

#include <utility>

namespace cdst {

Graph::Graph(Csr csr)
    : tails_(std::move(csr.tails)),
      heads_(std::move(csr.heads)),
      offsets_(std::move(csr.offsets)),
      arc_heads_(std::move(csr.arc_heads)),
      arc_edges_(std::move(csr.arc_edges)) {
  const std::size_t m = tails_.size();
  CDST_CHECK(heads_.size() == m);
  CDST_CHECK(!offsets_.empty() && offsets_.front() == 0 &&
             offsets_.back() == 2 * m);
  CDST_CHECK(arc_heads_.size() == 2 * m && arc_edges_.size() == 2 * m);
#ifndef NDEBUG
  const std::size_t n = offsets_.size() - 1;
  for (VertexId v = 0; v < n; ++v) {
    CDST_ASSERT(offsets_[v] <= offsets_[v + 1]);
    for (std::size_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
      const EdgeId e = arc_edges_[a];
      CDST_ASSERT(e < m && arc_heads_[a] < n);
      CDST_ASSERT((tails_[e] == v && heads_[e] == arc_heads_[a]) ||
                  (heads_[e] == v && tails_[e] == arc_heads_[a]));
    }
  }
#endif
}

void Graph::build(const GraphBuilder& b) {
  tails_ = b.tails_;
  heads_ = b.heads_;
  const std::size_t n = b.num_vertices_;
  const std::size_t m = tails_.size();

  offsets_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++offsets_[tails_[e] + 1];
    ++offsets_[heads_[e] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];

  // Arcs of each vertex in edge-id order.
  arc_heads_.resize(2 * m);
  arc_edges_.resize(2 * m);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const auto id = static_cast<EdgeId>(e);
    std::size_t& ct = cursor[tails_[e]];
    arc_heads_[ct] = heads_[e];
    arc_edges_[ct++] = id;
    std::size_t& ch = cursor[heads_[e]];
    arc_heads_[ch] = tails_[e];
    arc_edges_[ch++] = id;
  }
}

}  // namespace cdst
