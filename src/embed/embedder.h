/// \file embedder.h
/// Optimal embedding of a fixed plane topology into the global routing graph
/// ("Then, this tree is embedded optimally into the global routing graph
/// minimizing the cost-distance objective (1) using a Dijkstra-style
/// embedding as described in [13]", Section IV-A).
///
/// Dynamic program over the topology: for each node i with subtree delay
/// weight W_i, the table F_i(v) is the cheapest cost of embedding i's subtree
/// with i placed at graph vertex v. Children tables propagate through one
/// potential-seeded Dijkstra per node under the metric c + W_i * d — an edge
/// above node i delays every sink below it, hence the weight multiplier.
/// Bifurcation penalties are position-independent constants per topology and
/// are accounted by the objective evaluator.
///
/// Bounded propagation. Sink nodes are pinned to their sink vertex and node 0
/// to the root vertex. A pinned parent reads its children's propagations at
/// its pin only: F_p(pin) is the sum of their values there, and the
/// backtrack walks each child's parent chain from the pin. So a node under a
/// pinned parent (most nodes: every child of a sink or of the root) stops
/// its Dijkstra once the pin is settled and keeps just {value at the pin,
/// seed vertex, edge path}; a pinned node seeds its own search with the
/// single label (pin, F_i(pin)). Only nodes under a Steiner parent run a
/// full search. Their dist arrays return to a free list local to the call
/// once the parent has summed them. No search keeps a predecessor array:
/// the backtrack walks parent edges (the predecessor is the edge's other
/// end), so a Steiner child keeps 4 bytes per window vertex. The bounded
/// searches of one task share one set of labels and one heap and reset only
/// the vertices they labelled.
///
/// This is exact, not an approximation: up to the pop of the target, a
/// stopped search performs the same heap operations in the same order as
/// the full one, and a settled label is final (graph/dijkstra.h's target
/// contract). The value, the placement and the path are therefore
/// bit-identical to the full propagation's, and so are trees and
/// evaluations.

#pragma once

#include "core/cost_distance.h"
#include "core/instance.h"
#include "core/objective.h"
#include "core/steiner_tree.h"
#include "topology/topology.h"

namespace cdst {

struct EmbedResult {
  SteinerTree tree;
  TreeEvaluation eval;
};

/// Embeds `topo` (whose sink_index fields refer to instance sinks) optimally
/// into instance.graph w.r.t. objective (1)+(3). The topology structure is
/// fixed; Steiner node positions float freely in the graph.
///
/// `controls` (optional) wires in cooperative cancellation and the
/// deadline: the DP polls both at every node's propagation step and unwinds
/// with SolveCancelled / SolveDeadlineExceeded — the same contract as the
/// cost-distance solver, so the session APIs map embedded-oracle (L1/SL/PD)
/// cancellations onto kCancelled and expiries onto kDeadlineExceeded too.
///
/// With `controls->pool` set, the DP runs each height level of the
/// topology (a leaf is 0, a parent one above its highest child; node 0
/// last) as one parallel_for on that pool. Called from inside a batch body
/// of the same pool (the Router's per-net oracle), those are nested
/// batches that idle lanes join; see util/thread_pool.h. Called from inside
/// a submit() task they run inline. Every node writes only its own slots
/// and sums its children in a fixed order, so values, placements and paths
/// are bit-identical to the serial DP at any lane count.
///
/// Note: with a poorly matched topology the optimal embedding may route two
/// topology edges over the same graph edge; the objective then pays c(e)
/// per use (multiset semantics), exactly what the router would pay in usage.
EmbedResult embed_topology(const PlaneTopology& topo,
                           const CostDistanceInstance& instance,
                           const SolveControls* controls = nullptr);

}  // namespace cdst
