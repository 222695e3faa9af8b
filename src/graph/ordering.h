// Fill-reducing orderings.
//
// All functions return a permutation `perm` with perm[new_index] = old_index;
// apply with permute_symmetric(A, perm). Nested dissection is the ordering
// the parallel solver uses (its separator tree becomes the top of the
// parallel task tree); minimum degree is the classic sequential alternative
// (and orders the small leaf subgraphs inside ND); RCM is the
// bandwidth-reducing baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "support/thread_pool.h"
#include "support/types.h"

namespace parfact {

struct OrderingOptions {
  /// Subgraphs at or below this size stop the ND recursion and are ordered
  /// by minimum degree.
  index_t nd_leaf_size = 64;
  /// Multilevel partitioner knobs.
  PartitionOptions partition;
  /// PRNG seed (ND is randomized via the partitioner).
  std::uint64_t seed = 1;
};

/// Multilevel nested dissection.
[[nodiscard]] std::vector<index_t> nested_dissection(
    const Graph& g, const OrderingOptions& opts = {});

/// Task-parallel nested dissection: the two halves of every bisection are
/// ordered concurrently on `pool`. Deterministic for a fixed seed regardless
/// of pool size (per-task PRNG streams), but a different — equal-quality —
/// ordering than the sequential variant.
[[nodiscard]] std::vector<index_t> nested_dissection_parallel(
    const Graph& g, const OrderingOptions& opts, ThreadPool& pool);

namespace detail {
/// nested_dissection_parallel that also reports in `*bisecting_threads` how
/// many distinct threads bisected a subgraph. Test hook: proves that sibling
/// subproblems really run on different pool workers.
[[nodiscard]] std::vector<index_t> nested_dissection_parallel(
    const Graph& g, const OrderingOptions& opts, ThreadPool& pool,
    int* bisecting_threads);
}  // namespace detail

/// Exact-external-degree minimum degree on a quotient graph with element
/// absorption. Suitable for graphs up to a few hundred thousand vertices.
[[nodiscard]] std::vector<index_t> minimum_degree(const Graph& g);

/// Reverse Cuthill–McKee.
[[nodiscard]] std::vector<index_t> rcm(const Graph& g);

}  // namespace parfact
