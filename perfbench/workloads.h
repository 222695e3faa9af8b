// The four benchmark workloads and the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "dist/dist_factor.h"
#include "dist/mapping.h"
#include "sparse/sparse_matrix.h"

namespace pb {

Results run_cold_2d(const Config& cfg);
Results run_refactor_3d(const Config& cfg);
Results run_serve_mix(const Config& cfg);
Results run_dist_3d(const Config& cfg);

/// What the layer probes run on: the workload's main matrix (with its seeded
/// values) and the thread count the workload itself uses.
struct ProbeInput {
  const parfact::SparseMatrix* lower = nullptr;
  int threads = 4;  ///< Solver / SolverService threads
  std::string scratch_dir;
  std::uint64_t seed = 1;
};

/// Times every layer's public functions on `in` (with spans) and adds the
/// per-layer metrics to `out`. Metrics already present in `out` (measured
/// by the workload itself) are kept. Span roots: "api.pipeline" (the Solver
/// facade), "pipeline" (the same analyze→factorize→solve decomposed into
/// layer calls), "refactor_op" (refactorize + 32-RHS batch, decomposed).
void probe_layers(const ProbeInput& in, Results& out);

/// Span-derived metrics of a traced run: sparse.gen_s, and each layer's
/// share of the self time under the root spans named `root` (the spans
/// that make up the workload's operation).
void add_trace_metrics(const std::string& root, Results& out);

/// dist.* counts of one distributed factorization and the perf.* replay of
/// the same schedule on the fixed machine model.
void add_dist_metrics(const parfact::SymbolicFactor& sym,
                      const parfact::FrontMap& map,
                      const parfact::DistFactorResult& res, Results& out);

/// Cost of recording one span (open + close), nanoseconds.
double span_cost_ns();

}  // namespace pb
