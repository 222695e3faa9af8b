// Task-parallel nested dissection: after a bisection, the two parts are
// completely independent subproblems, so each recursion level doubles the
// available parallelism — the same structure the numeric phase exploits.
//
// Determinism: every task derives its PRNG seed from its position in the
// dissection tree (not from the executing thread), so the ordering is
// identical for any pool size, including 1, and matches itself run to run.
// It is *not* bit-identical to the sequential nested_dissection(), whose
// single PRNG stream interleaves differently.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "graph/ordering.h"
#include "graph/partition.h"
#include "support/error.h"
#include "support/prng.h"

namespace parfact {
namespace {

/// Mixes a child index into a parent seed (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t salt) {
  std::uint64_t z = parent + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class ParallelDissector {
 public:
  ParallelDissector(const Graph& g, const OrderingOptions& opts,
                    ThreadPool& pool, std::set<std::thread::id>* bisectors)
      : g_(g),
        opts_(opts),
        pool_(pool),
        bisectors_(bisectors),
        perm_(static_cast<std::size_t>(g.n), kNone) {}

  std::vector<index_t> run() {
    std::vector<index_t> all(static_cast<std::size_t>(g_.n));
    std::iota(all.begin(), all.end(), 0);
    submit_task(std::move(all), 0, opts_.seed);
    pool_.wait();
    return std::move(perm_);
  }

 private:
  /// Scratch arrays (size n) are pooled: live count is bounded by the
  /// number of concurrently running tasks, not by the recursion tree size.
  std::unique_ptr<std::vector<index_t>> acquire_scratch() {
    {
      std::lock_guard<std::mutex> lock(scratch_mu_);
      if (!scratch_pool_.empty()) {
        auto s = std::move(scratch_pool_.back());
        scratch_pool_.pop_back();
        return s;
      }
    }
    return std::make_unique<std::vector<index_t>>(
        static_cast<std::size_t>(g_.n), kNone);
  }
  void release_scratch(std::unique_ptr<std::vector<index_t>> s) {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    scratch_pool_.push_back(std::move(s));
  }

  void submit_task(std::vector<index_t> vertices, index_t out_begin,
                   std::uint64_t seed) {
    // Small subproblems run inline in the parent task: task-spawn overhead
    // would otherwise dominate near the leaves. Decide before `vertices` is
    // moved into the task.
    if (static_cast<index_t>(vertices.size()) <= 4 * opts_.nd_leaf_size) {
      dissect(vertices, out_begin, seed);
      return;
    }
    pool_.submit([this, vertices = std::move(vertices), out_begin, seed]() {
      dissect(vertices, out_begin, seed);
    });
  }

  void order_leaf(const std::vector<index_t>& vertices, index_t out_begin) {
    if (static_cast<index_t>(vertices.size()) > 2) {
      auto scratch = acquire_scratch();
      const Graph sub = induced_subgraph(g_, vertices, *scratch);
      release_scratch(std::move(scratch));
      const std::vector<index_t> sub_perm = minimum_degree(sub);
      for (std::size_t k = 0; k < vertices.size(); ++k) {
        perm_[out_begin + static_cast<index_t>(k)] = vertices[sub_perm[k]];
      }
    } else {
      for (std::size_t k = 0; k < vertices.size(); ++k) {
        perm_[out_begin + static_cast<index_t>(k)] = vertices[k];
      }
    }
  }

  void dissect(const std::vector<index_t>& vertices, index_t out_begin,
               std::uint64_t seed) {
    const auto n_sub = static_cast<index_t>(vertices.size());
    if (n_sub <= opts_.nd_leaf_size) {
      order_leaf(vertices, out_begin);
      return;
    }
    if (bisectors_ != nullptr) {
      std::lock_guard<std::mutex> lock(bisectors_mu_);
      bisectors_->insert(std::this_thread::get_id());
    }
    std::vector<index_t> part[2];
    {
      // The subgraph and its bisection are freed before the children run.
      Prng rng(seed);
      auto scratch = acquire_scratch();
      const Graph sub = induced_subgraph(g_, vertices, *scratch);
      release_scratch(std::move(scratch));
      Bisection b = multilevel_bisection(sub, opts_.partition, rng);
      const std::vector<index_t> sep = vertex_separator(sub, &b);
      split_sides(b, vertices, part);
      if (part[0].empty() || part[1].empty()) {
        order_leaf(vertices, out_begin);
        return;
      }
      index_t sep_begin = out_begin + static_cast<index_t>(part[0].size() +
                                                           part[1].size());
      for (index_t s : sep) perm_[sep_begin++] = vertices[s];
    }
    const auto n0 = static_cast<index_t>(part[0].size());
    submit_task(std::move(part[0]), out_begin, derive_seed(seed, 0));
    submit_task(std::move(part[1]), out_begin + n0, derive_seed(seed, 1));
  }

  const Graph& g_;
  const OrderingOptions& opts_;
  ThreadPool& pool_;
  std::set<std::thread::id>* bisectors_;  // test hook; usually nullptr
  std::mutex bisectors_mu_;
  std::vector<index_t> perm_;  // disjoint slices written by distinct tasks
  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<std::vector<index_t>>> scratch_pool_;
};

}  // namespace

std::vector<index_t> nested_dissection_parallel(const Graph& g,
                                                const OrderingOptions& opts,
                                                ThreadPool& pool) {
  return detail::nested_dissection_parallel(g, opts, pool, nullptr);
}

namespace detail {

std::vector<index_t> nested_dissection_parallel(const Graph& g,
                                                const OrderingOptions& opts,
                                                ThreadPool& pool,
                                                int* bisecting_threads) {
  std::set<std::thread::id> bisectors;
  std::vector<index_t> perm;
  if (g.n > 0) {
    ParallelDissector nd(g, opts, pool,
                         bisecting_threads != nullptr ? &bisectors : nullptr);
    perm = nd.run();
    PARFACT_CHECK(std::count(perm.begin(), perm.end(), kNone) == 0);
  }
  if (bisecting_threads != nullptr) {
    *bisecting_threads = static_cast<int>(bisectors.size());
  }
  return perm;
}

}  // namespace detail

}  // namespace parfact
