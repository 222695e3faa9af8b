#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace parfact {

count_t Graph::total_vertex_weight() const {
  count_t w = 0;
  for (index_t v : vwgt) w += v;
  return w;
}

void Graph::validate() const {
  PARFACT_CHECK(n >= 0);
  PARFACT_CHECK(adj_ptr.size() == static_cast<std::size_t>(n) + 1);
  PARFACT_CHECK(adj_ptr.front() == 0);
  PARFACT_CHECK(adj.size() == static_cast<std::size_t>(adj_ptr.back()));
  PARFACT_CHECK(ewgt.size() == adj.size());
  PARFACT_CHECK(vwgt.size() == static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    PARFACT_CHECK(adj_ptr[v] <= adj_ptr[v + 1]);
    for (index_t p = adj_ptr[v]; p < adj_ptr[v + 1]; ++p) {
      const index_t u = adj[p];
      PARFACT_CHECK_MSG(u >= 0 && u < n && u != v,
                        "bad neighbor " << u << " of vertex " << v);
      if (p > adj_ptr[v]) PARFACT_CHECK(adj[p - 1] < u);
      // Symmetry: u's list must contain v with the same edge weight.
      const auto nb = neighbors(u);
      const auto it = std::lower_bound(nb.begin(), nb.end(), v);
      PARFACT_CHECK_MSG(it != nb.end() && *it == v,
                        "edge " << v << "-" << u << " not symmetric");
      const index_t q = adj_ptr[u] + static_cast<index_t>(it - nb.begin());
      PARFACT_CHECK(ewgt[p] == ewgt[q]);
    }
  }
}

Graph graph_from_pattern(const SparseMatrix& a) {
  PARFACT_CHECK(a.rows == a.cols);
  Graph g;
  g.n = a.rows;
  // Count both directions of each off-diagonal entry. For full-stored
  // symmetric input each edge is seen twice, so dedup via sort+unique below.
  std::vector<std::pair<index_t, index_t>> edges;
  edges.reserve(static_cast<std::size_t>(a.nnz()) * 2);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t i = a.row_ind[p];
      if (i == j) continue;
      edges.emplace_back(i, j);
      edges.emplace_back(j, i);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  g.adj_ptr.assign(static_cast<std::size_t>(g.n) + 1, 0);
  for (const auto& [v, u] : edges) ++g.adj_ptr[v + 1];
  for (index_t v = 0; v < g.n; ++v) g.adj_ptr[v + 1] += g.adj_ptr[v];
  g.adj.resize(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) g.adj[k] = edges[k].second;
  g.vwgt.assign(static_cast<std::size_t>(g.n), 1);
  g.ewgt.assign(edges.size(), 1);
  return g;
}

Graph induced_subgraph(const Graph& g, std::span<const index_t> vertices,
                       std::vector<index_t>& local_of) {
  PARFACT_CHECK(local_of.size() == static_cast<std::size_t>(g.n));
  Graph s;
  s.n = static_cast<index_t>(vertices.size());
  for (index_t i = 0; i < s.n; ++i) {
    PARFACT_DCHECK(local_of[vertices[i]] == kNone);
    local_of[vertices[i]] = i;
  }
  s.adj_ptr.assign(static_cast<std::size_t>(s.n) + 1, 0);
  s.vwgt.resize(static_cast<std::size_t>(s.n));
  for (index_t i = 0; i < s.n; ++i) {
    const index_t v = vertices[i];
    s.vwgt[i] = g.vwgt[v];
    for (index_t u : g.neighbors(v)) {
      if (local_of[u] != kNone) ++s.adj_ptr[i + 1];
    }
  }
  for (index_t i = 0; i < s.n; ++i) s.adj_ptr[i + 1] += s.adj_ptr[i];
  s.adj.resize(static_cast<std::size_t>(s.adj_ptr.back()));
  s.ewgt.resize(s.adj.size());
  // Local ids are monotone in global ids exactly when `vertices` is
  // ascending (as every nested-dissection list is); then each copied list is
  // already sorted. Otherwise sort each (neighbor, weight) list together
  // through one reused buffer.
  const bool ascending = std::is_sorted(vertices.begin(), vertices.end());
  std::vector<std::pair<index_t, index_t>> tmp;
  for (index_t i = 0; i < s.n; ++i) {
    const index_t v = vertices[i];
    const index_t begin = s.adj_ptr[i];
    index_t q = begin;
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t lu = local_of[g.adj[p]];
      if (lu == kNone) continue;
      s.adj[q] = lu;
      s.ewgt[q] = g.ewgt[p];
      ++q;
    }
    if (ascending) continue;
    tmp.clear();
    for (index_t t = begin; t < q; ++t) tmp.emplace_back(s.adj[t], s.ewgt[t]);
    std::sort(tmp.begin(), tmp.end());
    for (index_t t = begin; t < q; ++t) {
      s.adj[t] = tmp[t - begin].first;
      s.ewgt[t] = tmp[t - begin].second;
    }
  }
  for (index_t v : vertices) local_of[v] = kNone;
  return s;
}

}  // namespace parfact
