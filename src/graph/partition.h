// Graph bisection: greedy growing, Fiduccia–Mattheyses refinement, multilevel
// scheme (heavy-edge-matching coarsening), and vertex-separator extraction.
//
// This is the engine behind nested dissection. It mirrors the standard
// multilevel partitioner design (METIS-class): coarsen with heavy-edge
// matching until the graph is small, bisect the coarsest graph greedily,
// then uncoarsen while refining the cut with FM passes at every level.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/prng.h"
#include "support/types.h"

namespace parfact {

/// An edge bisection: side[v] in {0, 1}. After separator extraction, side[v]
/// may also be 2 (vertex belongs to the separator).
struct Bisection {
  std::vector<signed char> side;
  count_t cut = 0;               ///< total weight of edges between sides
  count_t side_weight[2] = {0, 0};

  [[nodiscard]] double balance() const {
    const count_t total = side_weight[0] + side_weight[1];
    if (total == 0) return 1.0;
    return 2.0 * static_cast<double>(
                     std::max(side_weight[0], side_weight[1])) /
           static_cast<double>(total);
  }
};

struct PartitionOptions {
  /// Allowed imbalance: max side weight <= (1+tol)/2 * total.
  double balance_tol = 0.2;
  /// Stop coarsening when at most this many vertices remain.
  index_t coarse_target = 96;
  /// FM passes per level.
  int fm_passes = 6;
  /// Independent multilevel attempts; the best cut wins.
  int attempts = 2;
};

/// Recomputes `cut` and `side_weight` from `side` (checks consistency).
void recompute_bisection_stats(const Graph& g, Bisection* b);

/// Grows side 0 from a pseudo-peripheral vertex until it holds half the
/// vertex weight; remaining vertices form side 1.
[[nodiscard]] Bisection greedy_grow_bisection(const Graph& g, Prng& rng);

/// Boundary FM refinement: hill-climbing passes that move boundary vertices
/// between sides, keeping balance within `opts.balance_tol`, keeping the best
/// prefix of each pass. Updates b in place. Edge weights must be positive
/// (as graph_from_pattern and coarsen produce them). Costs O(|E|) plus, per
/// pass, O(n) to seed the boundary and O(degree) per tried move.
void fm_refine(const Graph& g, const PartitionOptions& opts, Bisection* b);

/// Heavy-edge matching coarsening step. Returns the coarse graph and fills
/// `cmap` (fine vertex -> coarse vertex). Returns a graph with n == g.n when
/// no coarsening was possible (caller should stop).
[[nodiscard]] Graph coarsen(const Graph& g, Prng& rng,
                            std::vector<index_t>* cmap);

/// Full multilevel bisection of a connected or disconnected graph.
[[nodiscard]] Bisection multilevel_bisection(const Graph& g,
                                             const PartitionOptions& opts,
                                             Prng& rng);

/// Converts an edge bisection into a vertex separator using a greedy vertex
/// cover of the cut edges. Marks separator vertices with side 2 and returns
/// their list. After the call no 0-1 edge remains.
[[nodiscard]] std::vector<index_t> vertex_separator(const Graph& g,
                                                    Bisection* b);

/// Collects the side-0 and side-1 vertices of a bisection whose separator
/// has been extracted, translated through `ids`: part[s] holds ids[v] for
/// every v with b.side[v] == s, in vertex order, each list sized exactly.
void split_sides(const Bisection& b, std::span<const index_t> ids,
                 std::vector<index_t> part[2]);

}  // namespace parfact
