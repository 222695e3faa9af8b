// Per-layer probes of the traced run. Each probe calls one layer's public
// functions directly — from here, not from inside src/ — on the workload's
// own matrix, under a span named after the layer, and turns the timings and
// the counts those calls return into the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <optional>
#include <string_view>
#include <thread>

#include "api/service.h"
#include "api/solver.h"
#include "dense/kernels.h"
#include "dist/dist_factor.h"
#include "dist/mapping.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "mf/multifrontal.h"
#include "mpsim/machine.h"
#include "perf/dag_sim.h"
#include "runtime/scheduler.h"
#include "runtime/task_graph.h"
#include "solve/solve.h"
#include "solve/solve_schedule.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "support/thread_pool.h"
#include "symbolic/symbolic_factor.h"
#include "trace.h"
#include "workloads.h"

namespace pb {
namespace {

using parfact::CholeskyFactor;
using parfact::MatrixView;
using parfact::SparseMatrix;
using parfact::SymbolicFactor;
using parfact::ThreadPool;

constexpr int kMfThreads = 4;
constexpr index_t kBatch = 32;

/// Times `fn` under a span named `name`; returns wall seconds.
template <class Fn>
double timed(const char* name, Fn&& fn) {
  const double t0 = now();
  {
    const Span s(name);
    fn();
  }
  return now() - t0;
}

/// Sets a metric unless the workload already measured it itself.
void set_default(Results& out, const std::string& name, double value,
                 const std::string& unit, long samples = 0) {
  if (out.metrics.count(name) == 0) out.set(name, value, unit, samples);
}

/// x := A⁻¹ b in the postordered space of `sym` for an original-ordering
/// block `b` (n × nrhs), through the precomputed schedule.
std::vector<real_t> permute_in(const SymbolicFactor& sym,
                               const std::vector<index_t>& total_perm,
                               const std::vector<real_t>& b, index_t nrhs) {
  const auto n = static_cast<std::size_t>(sym.n);
  std::vector<real_t> pb(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    for (std::size_t k = 0; k < n; ++k) {
      pb[c * n + k] = b[c * n + total_perm[k]];
    }
  }
  return pb;
}

/// Aggregate rate of `threads` concurrent copies of `kernel` (each called
/// `reps` times on private data), in Gflop/s.
template <class Kernel>
double concurrent_rate(int threads, int reps, double flops_per_call,
                       Kernel&& kernel) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> seconds(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto state = kernel.make_state(t);
      kernel.call(state);  // warm up: page faults, kernel dispatch
      ++ready;
      while (!go.load()) std::this_thread::yield();
      const double t0 = now();
      for (int r = 0; r < reps; ++r) kernel.call(state);
      seconds[static_cast<std::size_t>(t)] = now() - t0;
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go = true;
  for (auto& th : pool) th.join();
  const double slowest = *std::max_element(seconds.begin(), seconds.end());
  return threads * reps * flops_per_call / slowest / 1e9;
}

struct GemmKernel {
  index_t m = 256;
  struct State {
    std::vector<real_t> a, b, c;
  };
  State make_state(int t) const {
    parfact::Prng rng(77 + t);
    State s;
    const auto sz = static_cast<std::size_t>(m) * m;
    s.a.resize(sz);
    s.b.resize(sz);
    s.c.assign(sz, 0.0);
    for (auto& v : s.a) v = rng.next_real(-1, 1);
    for (auto& v : s.b) v = rng.next_real(-1, 1);
    return s;
  }
  void call(State& s) const {
    parfact::gemm_nt_update(MatrixView{s.c.data(), m, m, m},
                            parfact::ConstMatrixView{s.a.data(), m, m, m},
                            parfact::ConstMatrixView{s.b.data(), m, m, m});
  }
};

struct PotrfKernel {
  index_t m = 384;
  struct State {
    std::vector<real_t> spd, work;
  };
  State make_state(int t) const {
    parfact::Prng rng(91 + t);
    State s;
    s.spd.assign(static_cast<std::size_t>(m) * m, 0.0);
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = j + 1; i < m; ++i) {
        s.spd[j * m + i] = rng.next_real(-1, 1);
      }
      s.spd[j * m + j] = 2.0 * m;  // diagonally dominant ⇒ SPD
    }
    s.work = s.spd;
    return s;
  }
  void call(State& s) const {
    std::copy(s.spd.begin(), s.spd.end(), s.work.begin());
    parfact::potrf_lower(MatrixView{s.work.data(), m, m, m});
  }
};

/// Empty task per supernode, depending on its children: the assembly tree's
/// shape without its work, so the run measures scheduling cost alone.
void fill_tree_graph(const SymbolicFactor& sym, parfact::rt::TaskGraph& g) {
  using parfact::rt::make_tag;
  using parfact::rt::TaskKind;
  std::vector<std::vector<index_t>> children(
      static_cast<std::size_t>(sym.n_supernodes));
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (sym.sn_parent[s] != parfact::kNone) {
      children[sym.sn_parent[s]].push_back(s);
    }
  }
  for (index_t s = 0; s < sym.n_supernodes; ++s) {  // postorder: kids first
    g.add_task(make_tag(TaskKind::kUser, s), [] {},
               static_cast<double>(sym.sn_flops[s]) + 1.0);
    std::vector<parfact::rt::tag_t> deps;
    for (const index_t c : children[s]) {
      deps.push_back(make_tag(TaskKind::kUser, c));
    }
    if (!deps.empty()) g.declare_deps(make_tag(TaskKind::kUser, s), deps);
  }
}

/// Host cost of one mpsim message: a ring of small messages on 4 ranks.
double mpsim_us_per_msg(int rounds) {
  const parfact::mpsim::MachineModel model{};
  double wall = 0.0;
  parfact::count_t messages = 0;
  wall = timed("mpsim.ring", [&] {
    const parfact::mpsim::RunStats st = parfact::mpsim::run_spmd(
        4, model, [rounds](parfact::mpsim::Comm& comm) {
          const int p = comm.size();
          const int next = (comm.rank() + 1) % p;
          const int prev = (comm.rank() + p - 1) % p;
          double token = comm.rank();
          for (int r = 0; r < rounds; ++r) {
            comm.send(next, r, &token, sizeof token);
            const std::vector<std::byte> got = comm.recv(prev, r);
            std::memcpy(&token, got.data(), sizeof token);
          }
        });
    messages = st.total_messages;
  });
  return wall / static_cast<double>(std::max<parfact::count_t>(messages, 1)) *
         1e6;
}

}  // namespace

double span_cost_ns() {
  Tracer& tr = Tracer::instance();
  const bool was = tr.enabled();
  const std::size_t keep = tr.size();
  tr.enable(true);
  constexpr int kSpans = 20000;
  const double t0 = now();
  for (int i = 0; i < kSpans; ++i) {
    const Span s("trace.empty");
  }
  const double dt = now() - t0;
  tr.truncate(keep);
  tr.enable(was);
  return dt / kSpans * 1e9;
}

void add_dist_metrics(const parfact::SymbolicFactor& sym,
                      const parfact::FrontMap& map,
                      const parfact::DistFactorResult& res, Results& out) {
  const parfact::mpsim::MachineModel model{};
  parfact::PerfResult replay;
  timed("perf.replay",
        [&] { replay = parfact::simulate_factor_time(sym, map, model); });
  const auto& run = res.run;
  const double mean_compute =
      std::accumulate(run.rank_compute.begin(), run.rank_compute.end(), 0.0) /
      static_cast<double>(run.rank_compute.size());
  const double max_compute =
      *std::max_element(run.rank_compute.begin(), run.rank_compute.end());
  set_default(out, "dist.messages", static_cast<double>(run.total_messages),
              "count");
  set_default(out, "dist.bytes", static_cast<double>(run.total_bytes), "B");
  set_default(out, "dist.extend_add_bytes",
              static_cast<double>(res.extend_add_bytes), "B");
  set_default(out, "dist.idle_wait_vs", run.idle_wait_seconds, "vs");
  set_default(out, "dist.overlap_eff", run.overlap_efficiency, "ratio");
  set_default(out, "dist.compute_imbalance", max_compute / mean_compute,
              "ratio");
  set_default(out, "dist.makespan_vs", run.makespan, "vs");
  set_default(out, "perf.replay_makespan_vs", replay.makespan, "vs");
  set_default(out, "perf.replay_error", replay.makespan / run.makespan - 1.0,
              "ratio");
}

void probe_layers(const ProbeInput& in, Results& out) {
  Tracer::instance().enable(true);
  const SparseMatrix& a = *in.lower;
  const index_t n = a.rows;
  constexpr int reps = 3;  // per timed probe; medians are reported
  parfact::SolverOptions sopts;
  sopts.threads = in.threads;
  sopts.spill_path = in.scratch_dir + "/probe-spill.bin";
  const std::vector<real_t> b1 = seeded_rhs(n, 1, subseed(in.seed, 7001));
  const std::vector<real_t> bk = seeded_rhs(n, kBatch, subseed(in.seed, 7002));

  // --- the same pipeline decomposed into layer calls. ---
  ThreadPool pool(in.threads);
  std::vector<double> dec_t;
  std::optional<SymbolicFactor> sym;
  std::optional<CholeskyFactor> factor;
  std::optional<parfact::SolveSchedule> schedule;
  std::vector<index_t> total_perm(static_cast<std::size_t>(n));
  parfact::SolveWorkspace ws;
  std::vector<double> build_t, nd_t, analyze_t, api_t;
  std::optional<parfact::Solver> solver;
  // The public Solver pipeline and its decomposition alternate, so the
  // difference (the api layer's own cost) sees the same machine state.
  for (int r = 0; r < reps; ++r) {
    solver.emplace(sopts);
    api_t.push_back(timed("api.pipeline", [&] {
      solver->analyze(a);
      (void)solver->factorize();
      (void)solver->solve(b1);
    }));
    dec_t.push_back(timed("pipeline", [&] {
      parfact::Graph g;
      build_t.push_back(timed("graph.build",
                              [&] { g = parfact::graph_from_pattern(a); }));
      std::vector<index_t> perm;
      nd_t.push_back(timed("graph.nd", [&] {
        perm = parfact::nested_dissection_parallel(g, sopts.nd, pool);
      }));
      SparseMatrix permuted;
      timed("sparse.permute", [&] {
        permuted = parfact::lower_triangle(parfact::permute_symmetric(
            parfact::symmetrize_full(a), perm));
      });
      analyze_t.push_back(timed("symbolic.analyze", [&] {
        sym.emplace(parfact::analyze(permuted, sopts.amalgamation));
      }));
      for (index_t k = 0; k < n; ++k) total_perm[k] = perm[sym->post[k]];
      timed("solve.schedule", [&] { schedule.emplace(*sym); });
      timed("mf.factor", [&] {
        factor.emplace(parfact::multifrontal_factor_parallel(
            *sym, pool, nullptr, parfact::FactorKind::kCholesky,
            parfact::kCoopFrontFlops, parfact::PivotPolicy{.boost = true}));
      });
      timed("solve.sweep", [&] {
        std::vector<real_t> x = permute_in(*sym, total_perm, b1, 1);
        parfact::solve_in_place(*factor, MatrixView{x.data(), n, 1, n},
                                *schedule, ws, &pool);
      });
    }));
  }
  set_default(out, "graph.build_s", median(build_t), "s",
              static_cast<long>(build_t.size()));
  set_default(out, "graph.nd_s", median(nd_t), "s",
              static_cast<long>(nd_t.size()));
  set_default(out, "symbolic.analyze_s", median(analyze_t), "s",
              static_cast<long>(analyze_t.size()));
  std::vector<double> overhead;
  for (int r = 0; r < reps; ++r) overhead.push_back(api_t[r] - dec_t[r]);
  out.set("api.overhead_s", median(overhead), "s", reps);
  set_default(out, "symbolic.nnz_l", static_cast<double>(sym->nnz_strict),
              "count");
  set_default(out, "symbolic.flops", static_cast<double>(sym->total_flops),
              "flop");
  set_default(out, "symbolic.supernodes",
              static_cast<double>(sym->n_supernodes), "count");

  // --- mf + solve: refactorize and a 32-RHS batch, decomposed. ---
  ThreadPool mf_pool(kMfThreads);
  std::vector<double> refac_t, serial_t, batch_t, sweep_t;
  for (int r = 0; r < reps; ++r) {
    timed("refactor_op", [&] {
      refac_t.push_back(timed("mf.refactor", [&] {
        parfact::multifrontal_refactor_parallel(
            *sym, *factor, mf_pool, nullptr, parfact::FactorKind::kCholesky,
            parfact::kCoopFrontFlops, parfact::PivotPolicy{.boost = true});
      }));
      batch_t.push_back(timed("solve.batch", [&] {
        const std::vector<real_t> pb = permute_in(*sym, total_perm, bk, kBatch);
        std::vector<real_t> x = pb;
        parfact::solve_in_place(*factor, MatrixView{x.data(), n, kBatch, n},
                                *schedule, ws, &pool);
        (void)parfact::refine_block(
            sym->a, *factor, parfact::ConstMatrixView{pb.data(), n, kBatch, n},
            MatrixView{x.data(), n, kBatch, n}, *schedule, ws, &pool, 1);
      }));
    });
  }
  parfact::FactorStats serial_stats;
  for (int r = 0; r < reps; ++r) {
    serial_t.push_back(timed("mf.refactor_serial", [&] {
      parfact::multifrontal_refactor(*sym, *factor, &serial_stats,
                                     parfact::FactorKind::kCholesky,
                                     parfact::PivotPolicy{.boost = true});
    }));
  }
  for (int r = 0; r < 7; ++r) {
    std::vector<real_t> x = permute_in(*sym, total_perm, b1, 1);
    sweep_t.push_back(timed("solve.sweep", [&] {
      parfact::solve_in_place(*factor, MatrixView{x.data(), n, 1, n},
                              *schedule, ws, &pool);
    }));
  }
  const double refac_s = median(refac_t);
  const double serial_s = median(serial_t);
  const double mf_gflops =
      static_cast<double>(sym->total_flops) / refac_s / 1e9;
  set_default(out, "mf.refactor_s", refac_s, "s", reps);
  set_default(out, "mf.refactor_serial_s", serial_s, "s", reps);
  set_default(out, "mf.speedup_4t", serial_s / refac_s, "x");
  set_default(out, "mf.gflops", mf_gflops, "Gflop/s", reps);
  set_default(out, "mf.peak_update_mb",
              static_cast<double>(serial_stats.peak_update_bytes) / 1e6, "MB");
  set_default(out, "solve.sweep_1rhs_ms", median(sweep_t) * 1e3, "ms", 7);
  set_default(out, "solve.batch_per_rhs_ms", median(batch_t) * 1e3 / kBatch,
              "ms", reps);

  // --- dense: the host's kernel peak at the workload's thread count. ---
  double gemm_gflops = 0.0;
  timed("dense.gemm", [&] {
    gemm_gflops = concurrent_rate(kMfThreads, 40, 2.0 * 256 * 256 * 256,
                                  GemmKernel{});
  });
  double potrf_gflops = 0.0;
  timed("dense.potrf", [&] {
    potrf_gflops = concurrent_rate(kMfThreads, 20, 384.0 * 384 * 384 / 3.0,
                                   PotrfKernel{});
  });
  set_default(out, "dense.gemm_gflops", gemm_gflops, "Gflop/s");
  set_default(out, "dense.potrf_gflops", potrf_gflops, "Gflop/s");
  set_default(out, "mf.front_eff", mf_gflops / gemm_gflops, "ratio");

  // --- runtime: scheduling cost of the assembly tree with empty tasks. ---
  {
    std::vector<double> per_task;
    double steals = 0.0;
    double executed = 0.0;
    for (int r = 0; r < 5; ++r) {
      parfact::rt::TaskGraph g;
      fill_tree_graph(*sym, g);
      g.seal();
      parfact::rt::SchedulerStats st;
      const double dt = timed("runtime.run_graph", [&] {
        st = parfact::rt::run_graph(g, mf_pool);
      });
      per_task.push_back(dt / static_cast<double>(g.n_tasks()) * 1e6);
      steals += static_cast<double>(st.steals);
      executed += static_cast<double>(st.executed);
    }
    set_default(out, "runtime.task_us", median(per_task), "us", 5);
    set_default(out, "runtime.steals_per_task", steals / executed, "ratio");
  }

  // --- solve: computed bytes per solve of the public batch path. ---
  (void)solver->solve_batch(bk, kBatch);
  set_default(out, "solve.bytes_per_solve",
              solver->report().batch_bytes_per_solve, "B");

  // --- ooc: spill the factor to the scratch file and reload it. ---
  {
    std::vector<double> spill_t, reload_t;
    double spilled_bytes = 0.0;
    for (int r = 0; r < 3; ++r) {
      parfact::Status st = parfact::Status::success();
      spill_t.push_back(
          timed("ooc.spill", [&] { st = solver->spill_factor(); }));
      out.op(!st.failed(), "probe: spill: " + st.to_string());
      spilled_bytes = static_cast<double>(solver->factor_bytes());
      reload_t.push_back(
          timed("ooc.reload", [&] { st = solver->unspill_factor(); }));
      out.op(!st.failed(), "probe: reload: " + st.to_string());
    }
    set_default(out, "ooc.spill_ms", median(spill_t) * 1e3, "ms", 3);
    set_default(out, "ooc.reload_ms", median(reload_t) * 1e3, "ms", 3);
    set_default(out, "ooc.spilled_mb", spilled_bytes / 1e6, "MB");
  }
  solver.reset();

  // --- api cache + service: hit-path analyze, idle service solve. ---
  {
    parfact::ServiceOptions svc_opts;
    svc_opts.solver.threads = in.threads;
    svc_opts.spill_dir = in.scratch_dir;
    parfact::SolverService svc(svc_opts);
    parfact::SolverOptions copts;
    copts.threads = in.threads;
    copts.symbolic_cache = &svc.symbolic_cache();
    parfact::Solver cached(copts);
    cached.analyze(a);  // miss: fills the service's cache
    std::vector<double> hit_t;
    for (int r = 0; r < 3; ++r) {
      hit_t.push_back(
          timed("api.cache_hit_analyze", [&] { cached.analyze(a); }));
    }
    parfact::SessionId id = 0;
    parfact::Status st = svc.open(a, id);  // hit as well
    if (!st.failed()) st = svc.factorize(id);
    out.op(!st.failed(), "probe: service session: " + st.to_string());
    std::vector<double> idle_t;
    std::vector<real_t> x;
    for (int r = 0; r < 15 && !st.failed(); ++r) {
      idle_t.push_back(timed("api.service.solve_idle",
                             [&] { (void)svc.solve(id, b1, x); }));
    }
    std::vector<double> refac_t;
    for (int r = 0; r < 3 && !st.failed(); ++r) {
      const std::vector<real_t> v =
          scaled_values(a, subseed(in.seed, 7100 + r));
      refac_t.push_back(timed("api.service.refactorize_idle",
                              [&] { st = svc.refactorize(id, v); }));
    }
    out.op(!st.failed(), "probe: service refactorize: " + st.to_string());
    const auto& cache = svc.symbolic_cache();
    set_default(out, "api.cache_hit_analyze_s", median(hit_t), "s", 3);
    set_default(out, "api.cache_hit_ratio",
                static_cast<double>(cache.hits()) /
                    static_cast<double>(cache.hits() + cache.misses()),
                "ratio");
    set_default(out, "service.solve_idle_ms", median(idle_t) * 1e3, "ms",
                static_cast<long>(idle_t.size()));
    // Without loaded service traffic (outside serve-mix) the loaded figures
    // are the idle ones: no evictions, nothing to contend for.
    set_default(out, "service.refac_p50_ms", median(refac_t) * 1e3, "ms",
                static_cast<long>(refac_t.size()));
    set_default(out, "service.evictions_per_req", 0.0, "1/req");
    set_default(out, "service.contention_share", 0.0, "ratio");
  }

  // --- dist + perf: P=4 on the fixed model, executed and replayed. ---
  {
    constexpr int kRanks = 4;
    const parfact::mpsim::MachineModel model{};
    const parfact::FrontMap map = parfact::build_front_map(
        *sym, kRanks, parfact::MappingStrategy::kSubtree2d);
    std::optional<parfact::DistFactorResult> res;
    timed("dist.factor", [&] {
      res.emplace(parfact::distributed_factor_checked(*sym, map, model));
    });
    out.op(res->status.ok(), "probe: dist: " + res->status.to_string());
    add_dist_metrics(*sym, map, *res, out);
  }

  set_default(out, "mpsim.host_us_per_msg", mpsim_us_per_msg(2000), "us");
  Tracer::instance().enable(false);
}

void add_trace_metrics(const std::string& root, Results& out) {
  const std::vector<SpanRecord> spans = Tracer::instance().spans();
  std::vector<double> gen_t;
  double root_total = 0.0;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == "sparse.gen") gen_t.push_back(s.t1 - s.t0);
    if (s.name == root) root_total += s.t1 - s.t0;
  }
  if (!gen_t.empty()) {
    out.set("sparse.gen_s", median(gen_t), "s",
            static_cast<long>(gen_t.size()));
  }
  const std::map<std::string, double> self = layer_self_time(spans, root);
  for (const char* layer : {"sparse", "graph", "symbolic", "mf", "dense",
                            "runtime", "solve", "api", "dist", "mpsim",
                            "perf"}) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    out.set(std::string(layer) + ".self_share",
            root_total > 0.0 ? s / root_total : 0.0, "ratio");
  }
  out.set("trace.span_ns", span_cost_ns(), "ns");
}

}  // namespace pb
