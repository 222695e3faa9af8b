// Tests for the graph module: structure, traversal, partitioning, orderings.
#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/ordering.h"
#include "graph/partition.h"
#include "graph/traversal.h"
#include "symbolic/etree.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/checksum.h"
#include "support/prng.h"
#include "support/thread_pool.h"

namespace parfact {
namespace {

Graph path_graph(index_t n) {
  TripletBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) b.add(i, i, 1.0);
  for (index_t i = 1; i < n; ++i) b.add(i, i - 1, -1.0);
  return graph_from_pattern(b.build());
}

TEST(Graph, FromLowerPattern) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(4, 3, 5));
  g.validate();
  EXPECT_EQ(g.n, 12);
  // 2-D grid edges: (nx-1)*ny + nx*(ny-1).
  EXPECT_EQ(g.edge_count(), 3 * 3 + 4 * 2);
}

TEST(Graph, FromFullPatternMatchesLower) {
  const SparseMatrix low = grid_laplacian_2d(5, 5, 9);
  const Graph g1 = graph_from_pattern(low);
  const Graph g2 = graph_from_pattern(symmetrize_full(low));
  EXPECT_EQ(g1.adj_ptr, g2.adj_ptr);
  EXPECT_EQ(g1.adj, g2.adj);
}

TEST(Graph, IgnoresDiagonalAndDuplicates) {
  TripletBuilder b(3, 3);
  b.add(0, 0, 5.0);
  b.add(1, 0, 1.0);
  b.add(0, 1, 1.0);  // duplicate edge in other triangle
  const Graph g = graph_from_pattern(b.build());
  g.validate();
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, InducedSubgraph) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(4, 4, 5));
  std::vector<index_t> local_of(static_cast<std::size_t>(g.n), kNone);
  // First 2x4 rows of the grid: vertices 0..7.
  std::vector<index_t> verts{0, 1, 2, 3, 4, 5, 6, 7};
  const Graph s = induced_subgraph(g, verts, local_of);
  s.validate();
  EXPECT_EQ(s.n, 8);
  EXPECT_EQ(s.edge_count(), 3 + 3 + 4);  // two rows + vertical links
  // Scratch restored.
  EXPECT_TRUE(std::all_of(local_of.begin(), local_of.end(),
                          [](index_t v) { return v == kNone; }));
}

TEST(Traversal, ConnectedComponents) {
  TripletBuilder b(6, 6);
  for (index_t i = 0; i < 6; ++i) b.add(i, i, 1.0);
  b.add(1, 0, 1.0);
  b.add(3, 2, 1.0);
  b.add(4, 3, 1.0);
  const Graph g = graph_from_pattern(b.build());
  index_t nc = 0;
  const auto comp = connected_components(g, &nc);
  EXPECT_EQ(nc, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[2], comp[5]);
}

TEST(Traversal, BfsLevelsOnPath) {
  const Graph g = path_graph(5);
  const auto level = bfs_levels(g, 0);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(level[i], i);
}

TEST(Traversal, PseudoPeripheralOnPathIsEndpoint) {
  const Graph g = path_graph(9);
  const index_t v = pseudo_peripheral_vertex(g, 4);
  EXPECT_TRUE(v == 0 || v == 8);
}

TEST(Partition, GreedyGrowBalances) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(16, 16, 5));
  Prng rng(1);
  const Bisection b = greedy_grow_bisection(g, rng);
  EXPECT_EQ(b.side_weight[0] + b.side_weight[1], g.n);
  EXPECT_LE(b.balance(), 1.2);
  EXPECT_GT(b.cut, 0);
}

TEST(Partition, FmRefineNeverWorsensCut) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(20, 20, 5));
  Prng rng(2);
  Bisection b = greedy_grow_bisection(g, rng);
  const count_t before = b.cut;
  PartitionOptions opts;
  fm_refine(g, opts, &b);
  EXPECT_LE(b.cut, before);
  Bisection check = b;
  recompute_bisection_stats(g, &check);
  EXPECT_EQ(check.cut, b.cut);
  EXPECT_EQ(check.side_weight[0], b.side_weight[0]);
}

TEST(Partition, CoarsenPreservesTotalWeight) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(12, 12, 5));
  Prng rng(3);
  std::vector<index_t> cmap;
  const Graph c = coarsen(g, rng, &cmap);
  c.validate();
  EXPECT_LT(c.n, g.n);
  EXPECT_GE(c.n, g.n / 2);
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
  for (index_t v = 0; v < g.n; ++v) {
    ASSERT_GE(cmap[v], 0);
    ASSERT_LT(cmap[v], c.n);
  }
}

TEST(Partition, MultilevelBisectionOnGridIsDecent) {
  // A k x k grid has a bisection of width ~k; the multilevel partitioner
  // should find a cut within a small factor of that.
  const index_t k = 32;
  const Graph g = graph_from_pattern(grid_laplacian_2d(k, k, 5));
  Prng rng(4);
  PartitionOptions opts;
  const Bisection b = multilevel_bisection(g, opts, rng);
  EXPECT_LE(b.balance(), 1.0 + opts.balance_tol + 1e-9);
  EXPECT_LE(b.cut, 3 * k);
  EXPECT_GE(b.cut, k - 1);
}

TEST(Partition, VertexSeparatorSeparates) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(16, 16, 5));
  Prng rng(5);
  PartitionOptions opts;
  Bisection b = multilevel_bisection(g, opts, rng);
  const auto sep = vertex_separator(g, &b);
  EXPECT_FALSE(sep.empty());
  // No remaining 0-1 edge.
  for (index_t v = 0; v < g.n; ++v) {
    if (b.side[v] == 2) continue;
    for (index_t u : g.neighbors(v)) {
      if (b.side[u] == 2) continue;
      EXPECT_EQ(b.side[u], b.side[v]);
    }
  }
  // Separator of a 16x16 grid should be around 16, certainly below 50.
  EXPECT_LE(static_cast<index_t>(sep.size()), 50);
}

// --- Orderings --------------------------------------------------------------

void expect_valid_ordering(const std::vector<index_t>& perm, index_t n) {
  ASSERT_EQ(static_cast<index_t>(perm.size()), n);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(Ordering, NestedDissectionIsPermutation) {
  const SparseMatrix a = grid_laplacian_2d(20, 17, 5);
  const Graph g = graph_from_pattern(a);
  const auto perm = nested_dissection(g);
  expect_valid_ordering(perm, g.n);
}

TEST(Ordering, NestedDissectionHandlesDisconnected) {
  TripletBuilder b(10, 10);
  for (index_t i = 0; i < 10; ++i) b.add(i, i, 1.0);
  for (index_t i = 1; i < 5; ++i) b.add(i, i - 1, -1.0);
  for (index_t i = 6; i < 10; ++i) b.add(i, i - 1, -1.0);
  OrderingOptions opts;
  opts.nd_leaf_size = 2;
  const auto perm = nested_dissection(graph_from_pattern(b.build()), opts);
  expect_valid_ordering(perm, 10);
}

TEST(Ordering, NestedDissectionTinyGraph) {
  const auto perm = nested_dissection(path_graph(3));
  expect_valid_ordering(perm, 3);
  EXPECT_TRUE(nested_dissection(path_graph(1)).size() == 1);
}

TEST(Ordering, MinimumDegreeIsPermutation) {
  const auto perm = minimum_degree(graph_from_pattern(
      grid_laplacian_2d(15, 15, 5)));
  expect_valid_ordering(perm, 225);
}

TEST(Ordering, MinimumDegreeOnPathEliminatesEndpointsFirst) {
  // On a path, degree-1 endpoints must be eliminated before any interior
  // vertex of degree 2 becomes available only through elimination.
  const auto perm = minimum_degree(path_graph(8));
  expect_valid_ordering(perm, 8);
  EXPECT_TRUE(perm[0] == 0 || perm[0] == 7);
}

TEST(Ordering, MinimumDegreeStarCenterLast) {
  // Star graph: leaves have degree 1, center degree n-1. MD eliminates all
  // leaves first.
  const index_t n = 12;
  TripletBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) b.add(i, i, 1.0);
  for (index_t i = 1; i < n; ++i) b.add(i, 0, -1.0);
  const auto perm = minimum_degree(graph_from_pattern(b.build()));
  // The center must survive until the final tie with the last leaf.
  EXPECT_TRUE(perm.back() == 0 || perm[perm.size() - 2] == 0);
}

TEST(Ordering, RcmIsPermutationAndReducesBandwidth) {
  Prng rng(9);
  // Random sparse symmetric graph.
  const SparseMatrix a = random_spd(120, 3, 17);
  const Graph g = graph_from_pattern(a);
  const auto perm = rcm(g);
  expect_valid_ordering(perm, g.n);
  const auto inv = invert_permutation(perm);
  count_t band_before = 0, band_after = 0;
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t u : g.neighbors(v)) {
      band_before = std::max<count_t>(band_before, std::abs(u - v));
      band_after =
          std::max<count_t>(band_after, std::abs(inv[u] - inv[v]));
    }
  }
  EXPECT_LT(band_after, band_before);
}

TEST(Ordering, RcmOnPathIsMonotone) {
  const auto perm = rcm(path_graph(6));
  expect_valid_ordering(perm, 6);
  // A path relabeled by RCM must remain a path with bandwidth 1.
  const auto inv = invert_permutation(perm);
  for (index_t i = 1; i < 6; ++i) {
    EXPECT_EQ(std::abs(inv[i] - inv[i - 1]), 1);
  }
}

TEST(Ordering, ParallelNdIsValidAndDeterministicAcrossPoolSizes) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(25, 23, 5));
  OrderingOptions opts;
  opts.seed = 7;
  ThreadPool p1(1), p4(4);
  const auto perm1 = nested_dissection_parallel(g, opts, p1);
  const auto perm4 = nested_dissection_parallel(g, opts, p4);
  expect_valid_ordering(perm1, g.n);
  EXPECT_EQ(perm1, perm4);  // pool size must not change the ordering
}

TEST(Ordering, ParallelNdQualityComparableToSequential) {
  const SparseMatrix a = grid_laplacian_3d(9, 9, 9, 7);
  const Graph g = graph_from_pattern(a);
  OrderingOptions opts;
  ThreadPool pool(3);
  const auto pseq = nested_dissection(g, opts);
  const auto ppar = nested_dissection_parallel(g, opts, pool);
  expect_valid_ordering(ppar, g.n);
  // Compare fill via symbolic analysis of both orderings.
  const auto fill = [&](const std::vector<index_t>& perm) {
    const SparseMatrix pa =
        lower_triangle(permute_symmetric(symmetrize_full(a), perm));
    const auto parent = elimination_tree(pa);
    const auto counts = cholesky_col_counts(pa, parent);
    count_t total = 0;
    for (index_t c : counts) total += c;
    return total;
  };
  const count_t f_seq = fill(pseq);
  const count_t f_par = fill(ppar);
  EXPECT_LT(static_cast<double>(f_par), 1.35 * static_cast<double>(f_seq));
  EXPECT_GT(static_cast<double>(f_par), 0.65 * static_cast<double>(f_seq));
}

TEST(Ordering, ParallelNdFansOutAcrossPoolWorkers) {
  // Far above the 4 * nd_leaf_size inline cutoff, so the halves of every
  // upper bisection are separate pool tasks and at least two of the pool's
  // workers must bisect. A worker that sleeps through the whole run would
  // defeat one attempt, so allow a few.
  const Graph g = graph_from_pattern(grid_laplacian_2d(64, 64, 5));
  OrderingOptions opts;
  ASSERT_GT(g.n, 16 * opts.nd_leaf_size);
  ThreadPool pool(2);
  int most = 0;
  for (int attempt = 0; attempt < 5 && most < 2; ++attempt) {
    int threads = 0;
    const auto perm =
        detail::nested_dissection_parallel(g, opts, pool, &threads);
    ASSERT_EQ(perm, nested_dissection_parallel(g, opts, pool));
    most = std::max(most, threads);
  }
  EXPECT_EQ(most, 2);
}

TEST(Ordering, ParallelNdTinyAndEmptyGraphs) {
  ThreadPool pool(2);
  OrderingOptions opts;
  EXPECT_TRUE(nested_dissection_parallel(Graph{}, opts, pool).empty());
  const auto perm = nested_dissection_parallel(path_graph(5), opts, pool);
  expect_valid_ordering(perm, 5);
}

// --- Golden ordering fingerprints -------------------------------------------
// The partitioner's per-level costs may be optimized, but never at the price
// of a different ordering: a changed permutation moves every symbolic count
// downstream. These FNV-1a digests pin the exact outputs of the coarsening,
// refinement and both ND drivers; a mismatch means the ordering changed.
// They hash in-memory bytes, so they assume a little-endian host and the
// 32-bit index_t of support/types.h.

template <class T>
std::uint64_t digest(const std::vector<T>& v,
                     std::uint64_t seed = kFnv1aOffsetBasis) {
  return fnv1a(v.data(), v.size() * sizeof(T), seed);
}

std::uint64_t digest(const Graph& g, std::uint64_t seed) {
  std::uint64_t h = fnv1a_pod(g.n, seed);
  h = digest(g.adj_ptr, h);
  h = digest(g.adj, h);
  h = digest(g.vwgt, h);
  return digest(g.ewgt, h);
}

struct GoldenInput {
  const char* name;
  SparseMatrix (*make)();
};

const GoldenInput kGoldenInputs[] = {
    {"grid2d_5pt", [] { return grid_laplacian_2d(40, 37, 5); }},
    {"grid2d_9pt", [] { return grid_laplacian_2d(33, 30, 9); }},
    {"grid3d_7pt", [] { return grid_laplacian_3d(12, 11, 10, 7); }},
};

struct OrderingDigests {
  std::uint64_t sequential;
  std::uint64_t parallel;  // identical for every pool size
};

TEST(GoldenOrdering, CoarsenAndRefineUnchanged) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(30, 29, 9));
  Prng rng(11);
  std::vector<index_t> cmap1, cmap2;
  const Graph c1 = coarsen(g, rng, &cmap1);
  const Graph c2 = coarsen(c1, rng, &cmap2);
  std::uint64_t h = digest(cmap1);
  h = digest(c1, h);
  h = digest(cmap2, h);
  h = digest(c2, h);

  // Refine on the weighted coarse graph and on the unit-weight fine graph.
  PartitionOptions opts;
  Bisection bc = greedy_grow_bisection(c2, rng);
  fm_refine(c2, opts, &bc);
  Bisection bf = greedy_grow_bisection(g, rng);
  fm_refine(g, opts, &bf);
  std::uint64_t r = digest(bc.side);
  r = fnv1a_pod(bc.cut, r);
  r = digest(bf.side, r);
  r = fnv1a_pod(bf.cut, r);

  EXPECT_EQ(h, 0x0d4c37c6099c9dbbull) << std::hex << h;
  EXPECT_EQ(r, 0xd3a5e109fb1f34e8ull) << std::hex << r;
}

TEST(GoldenOrdering, NestedDissectionUnchanged) {
  // kGolden[seed index][input index]; seeds {1, 7}.
  const std::uint64_t seeds[] = {1, 7};
  const OrderingDigests kGolden[2][3] = {
      {{0x9e0e9ea65ea1a0b9ull, 0x940f8c21bbfe66e9ull},
       {0x2c375d7d604ec628ull, 0x4fe220da6eb74174ull},
       {0xa7390fc9e677fb65ull, 0x4a6af8757d4bd50dull}},
      {{0xa7528ab8c35be88dull, 0xb6000728dab40b05ull},
       {0xa20dbf99ebb72d70ull, 0x4072c3e289a9b254ull},
       {0x18fe43633c2f16c1ull, 0xa64a2611eefe4381ull}},
  };
  ThreadPool p1(1), p4(4);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(testing::Message() << kGoldenInputs[i].name << " seed "
                                      << seeds[s]);
      const Graph g = graph_from_pattern(kGoldenInputs[i].make());
      OrderingOptions opts;
      opts.seed = seeds[s];
      const std::uint64_t seq = digest(nested_dissection(g, opts));
      const std::uint64_t par1 =
          digest(nested_dissection_parallel(g, opts, p1));
      const std::uint64_t par4 =
          digest(nested_dissection_parallel(g, opts, p4));
      EXPECT_EQ(seq, kGolden[s][i].sequential) << std::hex << seq;
      EXPECT_EQ(par1, kGolden[s][i].parallel) << std::hex << par1;
      EXPECT_EQ(par4, kGolden[s][i].parallel) << std::hex << par4;
    }
  }
}

class OrderingSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingSeedTest, NdValidAcrossSeeds) {
  const Graph g = graph_from_pattern(grid_laplacian_3d(7, 7, 7, 7));
  OrderingOptions opts;
  opts.seed = GetParam();
  const auto perm = nested_dissection(g, opts);
  expect_valid_ordering(perm, g.n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingSeedTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 12345u));

}  // namespace
}  // namespace parfact
