#include "graph/partition.h"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <numeric>
#include <queue>
#include <utility>

#include "graph/traversal.h"
#include "support/error.h"

namespace parfact {

void recompute_bisection_stats(const Graph& g, Bisection* b) {
  PARFACT_CHECK(b->side.size() == static_cast<std::size_t>(g.n));
  b->cut = 0;
  b->side_weight[0] = b->side_weight[1] = 0;
  for (index_t v = 0; v < g.n; ++v) {
    PARFACT_CHECK(b->side[v] == 0 || b->side[v] == 1);
    b->side_weight[b->side[v]] += g.vwgt[v];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      if (g.adj[p] > v && b->side[g.adj[p]] != b->side[v]) {
        b->cut += g.ewgt[p];
      }
    }
  }
}

Bisection greedy_grow_bisection(const Graph& g, Prng& rng) {
  Bisection b;
  b.side.assign(static_cast<std::size_t>(g.n), 1);
  const count_t total = g.total_vertex_weight();
  const count_t target = total / 2;

  // Grow side 0 as a BFS region from a pseudo-peripheral vertex, preferring
  // frontier vertices with many neighbors already inside (reduces the cut).
  const index_t seed =
      g.n > 0 ? pseudo_peripheral_vertex(g, rng.next_index(g.n)) : 0;
  count_t grown = 0;
  std::vector<index_t> inside_links(static_cast<std::size_t>(g.n), 0);
  // Priority queue keyed by inside-link weight; lazily invalidated.
  std::priority_queue<std::pair<index_t, index_t>> frontier;
  std::vector<char> queued(static_cast<std::size_t>(g.n), 0);
  index_t component_seed = seed;
  while (grown < target) {
    if (frontier.empty()) {
      // Start (or continue into a new component) from an unassigned vertex.
      index_t s = kNone;
      for (index_t v = component_seed; v < g.n; ++v) {
        if (b.side[v] == 1 && !queued[v]) {
          s = v;
          break;
        }
      }
      if (s == kNone) break;
      component_seed = s;
      frontier.emplace(0, s);
      queued[s] = 1;
      continue;
    }
    const auto [links, v] = frontier.top();
    frontier.pop();
    if (b.side[v] == 0) continue;              // already taken
    if (links != inside_links[v]) continue;    // stale entry
    b.side[v] = 0;
    grown += g.vwgt[v];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (b.side[u] == 1) {
        inside_links[u] += g.ewgt[p];
        frontier.emplace(inside_links[u], u);
        queued[u] = 1;
      }
    }
  }
  recompute_bisection_stats(g, &b);
  return b;
}

namespace {

/// Moves v to the other side and keeps the external/internal edge weights
/// of v and its neighbors current: O(deg v), no rescan of the adjacency.
void move_vertex(const Graph& g, index_t v, Bisection* b,
                 std::vector<index_t>& ext, std::vector<index_t>& in) {
  const int from = b->side[v];
  const int to = 1 - from;
  b->side[v] = static_cast<signed char>(to);
  b->side_weight[from] -= g.vwgt[v];
  b->side_weight[to] += g.vwgt[v];
  std::swap(ext[v], in[v]);
  for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
    const index_t u = g.adj[p];
    if (b->side[u] == to) {
      ext[u] -= g.ewgt[p];
      in[u] += g.ewgt[p];
    } else {
      ext[u] += g.ewgt[p];
      in[u] -= g.ewgt[p];
    }
  }
}

}  // namespace

void fm_refine(const Graph& g, const PartitionOptions& opts, Bisection* b) {
  const count_t total = b->side_weight[0] + b->side_weight[1];
  const auto max_side = static_cast<count_t>(
      (1.0 + opts.balance_tol) / 2.0 * static_cast<double>(total));

  // External (cut) and internal edge weight of every vertex, computed once
  // and then updated on each move and rollback. The gain of moving v is
  // ext[v] - in[v]; v is on the boundary iff ext[v] > 0 (edge weights are
  // positive). Coarsening never increases the total edge weight, so each
  // sum fits the index_t that counts the input's adjacency entries.
  std::vector<index_t> ext(static_cast<std::size_t>(g.n), 0);
  std::vector<index_t> in(static_cast<std::size_t>(g.n), 0);
  const auto gain = [&](index_t v) { return count_t{ext[v]} - in[v]; };
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      (b->side[g.adj[p]] != b->side[v] ? ext : in)[v] += g.ewgt[p];
    }
  }

  std::vector<char> locked(static_cast<std::size_t>(g.n));
  std::vector<std::pair<count_t, index_t>> seed;
  std::vector<index_t> moved;  // in order, to allow rollback past the best

  for (int pass = 0; pass < opts.fm_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    // Lazy max-heap of (gain, vertex); stale entries skipped on pop. Seeded
    // with boundary vertices only; interior vertices enter the heap when a
    // neighbor moves. The pop sequence depends only on the entries held, not
    // on the order they were pushed in.
    seed.clear();
    for (index_t v = 0; v < g.n; ++v) {
      if (ext[v] > 0) seed.emplace_back(gain(v), v);
    }
    std::priority_queue<std::pair<count_t, index_t>> heap(
        std::less<std::pair<count_t, index_t>>(), std::move(seed));

    count_t best_improvement = 0;
    count_t improvement = 0;
    moved.clear();
    std::size_t best_prefix = 0;

    while (!heap.empty()) {
      const auto [gv, v] = heap.top();
      heap.pop();
      if (locked[v] || gv != gain(v)) continue;
      if (b->side_weight[1 - b->side[v]] + g.vwgt[v] > max_side) continue;
      // Tentatively move v.
      locked[v] = 1;
      move_vertex(g, v, b, ext, in);
      improvement += gv;
      moved.push_back(v);
      if (improvement > best_improvement) {
        best_improvement = improvement;
        best_prefix = moved.size();
      }
      for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
        const index_t u = g.adj[p];
        if (!locked[u]) heap.emplace(gain(u), u);
      }
      // Bail out of clearly unprofitable passes.
      if (moved.size() > best_prefix + 200 && improvement < best_improvement) {
        break;
      }
    }

    // Roll back moves past the best prefix.
    for (std::size_t k = moved.size(); k > best_prefix; --k) {
      move_vertex(g, moved[k - 1], b, ext, in);
    }
    b->cut -= best_improvement;
    if (best_improvement == 0) break;
  }
  PARFACT_DCHECK([&] {
    Bisection check = *b;
    recompute_bisection_stats(g, &check);
    return check.cut == b->cut;
  }());
}

Graph coarsen(const Graph& g, Prng& rng, std::vector<index_t>* cmap) {
  cmap->assign(static_cast<std::size_t>(g.n), kNone);
  std::vector<index_t> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);
  // Random visit order decorrelates matchings across attempts.
  for (index_t i = g.n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_index(i + 1)]);
  }

  // Fine members of each coarse vertex: the visited vertex and its match
  // (kNone when it stayed single).
  std::vector<std::pair<index_t, index_t>> members;
  members.reserve(static_cast<std::size_t>(g.n));
  for (index_t v : order) {
    if ((*cmap)[v] != kNone) continue;
    // Heavy-edge: match with the unmatched neighbor of max edge weight.
    index_t best = kNone;
    index_t best_w = -1;
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if ((*cmap)[u] == kNone && g.ewgt[p] > best_w) {
        best = u;
        best_w = g.ewgt[p];
      }
    }
    const auto cv = static_cast<index_t>(members.size());
    (*cmap)[v] = cv;
    if (best != kNone) (*cmap)[best] = cv;
    members.emplace_back(v, best);
  }

  const auto n_coarse = static_cast<index_t>(members.size());
  Graph c;
  c.n = n_coarse;
  c.vwgt.resize(static_cast<std::size_t>(n_coarse));
  c.adj_ptr.assign(static_cast<std::size_t>(n_coarse) + 1, 0);

  // Coarse adjacency, one coarse vertex at a time: sum the weights of the
  // members' edges into a dense accumulator indexed by coarse neighbor, then
  // sort just that vertex's short neighbor list. O(|E|) plus one short sort
  // per coarse vertex.
  std::vector<index_t> acc(static_cast<std::size_t>(n_coarse), 0);
  std::vector<index_t> seen_by(static_cast<std::size_t>(n_coarse), kNone);
  std::vector<index_t> touched;
  for (index_t cv = 0; cv < n_coarse; ++cv) {
    const auto [a, m] = members[cv];
    c.vwgt[cv] = g.vwgt[a] + (m != kNone ? g.vwgt[m] : 0);
    for (const index_t v : {a, m}) {
      if (v == kNone) continue;
      for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
        const index_t cu = (*cmap)[g.adj[p]];
        if (cu == cv) continue;
        if (seen_by[cu] != cv) {
          seen_by[cu] = cv;
          touched.push_back(cu);
        }
        acc[cu] += g.ewgt[p];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const index_t cu : touched) {
      c.adj.push_back(cu);
      c.ewgt.push_back(acc[cu]);
      acc[cu] = 0;
    }
    touched.clear();
    c.adj_ptr[cv + 1] = static_cast<index_t>(c.adj.size());
  }
  return c;
}

Bisection multilevel_bisection(const Graph& g, const PartitionOptions& opts,
                               Prng& rng) {
  PARFACT_CHECK(g.n >= 2);
  Bisection best;
  for (int attempt = 0; attempt < std::max(1, opts.attempts); ++attempt) {
    // Coarsening phase. Level 0 is the input itself, held by reference;
    // coarse[l - 1] is level l.
    std::vector<Graph> coarse;
    std::vector<std::vector<index_t>> maps;
    const auto level = [&](std::size_t l) -> const Graph& {
      return l == 0 ? g : coarse[l - 1];
    };
    while (level(coarse.size()).n > opts.coarse_target) {
      const Graph& fine = level(coarse.size());
      std::vector<index_t> cmap;
      Graph c = coarsen(fine, rng, &cmap);
      if (c.n >= fine.n * 95 / 100) break;  // matching stalled
      maps.push_back(std::move(cmap));
      coarse.push_back(std::move(c));
    }

    // Initial bisection at the coarsest level.
    const Graph& coarsest = level(coarse.size());
    Bisection b = greedy_grow_bisection(coarsest, rng);
    fm_refine(coarsest, opts, &b);

    // Uncoarsening with refinement.
    for (std::size_t l = maps.size(); l > 0; --l) {
      const Graph& fine = level(l - 1);
      Bisection fb;
      fb.side.resize(static_cast<std::size_t>(fine.n));
      for (index_t v = 0; v < fine.n; ++v) fb.side[v] = b.side[maps[l - 1][v]];
      recompute_bisection_stats(fine, &fb);
      fm_refine(fine, opts, &fb);
      b = std::move(fb);
    }

    if (attempt == 0 || b.cut < best.cut) best = std::move(b);
  }
  return best;
}

std::vector<index_t> vertex_separator(const Graph& g, Bisection* b) {
  // Greedy vertex cover of the cut edges: repeatedly take the endpoint
  // covering the most uncovered cut edges. Ties prefer the heavier side to
  // keep parts balanced.
  std::vector<index_t> cover_degree(static_cast<std::size_t>(g.n), 0);
  count_t cut_edges = 0;
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (u > v && b->side[u] != b->side[v]) {
        ++cover_degree[v];
        ++cover_degree[u];
        ++cut_edges;
      }
    }
  }
  std::priority_queue<std::pair<index_t, index_t>> heap;
  for (index_t v = 0; v < g.n; ++v) {
    if (cover_degree[v] > 0) heap.emplace(cover_degree[v], v);
  }
  std::vector<index_t> separator;
  while (cut_edges > 0) {
    PARFACT_CHECK(!heap.empty());
    const auto [deg, v] = heap.top();
    heap.pop();
    if (b->side[v] == 2 || deg != cover_degree[v]) continue;
    separator.push_back(v);
    // Removing v covers all its remaining cut edges.
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (b->side[u] != 2 && b->side[u] != b->side[v]) {
        --cut_edges;
        --cover_degree[u];
        if (cover_degree[u] > 0) heap.emplace(cover_degree[u], u);
      }
    }
    cover_degree[v] = 0;
    b->side[v] = 2;
  }
  return separator;
}

void split_sides(const Bisection& b, std::span<const index_t> ids,
                 std::vector<index_t> part[2]) {
  PARFACT_CHECK(ids.size() == b.side.size());
  std::size_t count[3] = {0, 0, 0};
  for (const signed char s : b.side) ++count[s];
  for (int s = 0; s < 2; ++s) {
    part[s].clear();
    part[s].reserve(count[s]);
  }
  for (std::size_t v = 0; v < ids.size(); ++v) {
    if (b.side[v] != 2) part[b.side[v]].push_back(ids[v]);
  }
}

}  // namespace parfact
