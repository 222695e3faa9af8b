// The four workloads. Each one builds its inputs from the seed, sets up
// several times (setup_s is the median), runs its operation in a closed loop
// for the requested seconds, checks every result, and reports the
// end-to-end metrics. A traced run additionally alternates traced and
// untraced operations (for the tracing overhead) and runs the layer probes.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "api/service.h"
#include "api/solver.h"
#include "dist/dist_factor.h"
#include "dist/mapping.h"
#include "mf/multifrontal.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "support/prng.h"
#include "symbolic/working_set.h"
#include "trace.h"

namespace pb {
namespace {

using parfact::Solver;
using parfact::SolverOptions;
using parfact::SparseMatrix;
using parfact::Status;

constexpr int kThreads = 4;
/// Entrywise relative agreement of the distributed and serial factors.
constexpr double kDistSerialTol = 1e-12;

/// Setup repetitions: setup_s is the median over them. Cheap setups repeat
/// more often, so the median spans more than one burst of host noise.
int setup_reps(const Config& cfg, int reps) { return cfg.tiny ? 2 : reps; }

/// Operation timings of one workload loop, split by whether the operation
/// recorded spans (a traced run alternates) — only untraced operations feed
/// the end-to-end metrics.
struct OpTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// In a traced run every second operation records spans.
bool trace_op(const Config& cfg, long i) {
  const bool on = cfg.trace && (i % 2 == 1);
  Tracer::instance().enable(on);
  return on;
}

/// Loop bound: at least `min_ops` operations, then until the deadline.
bool keep_going(long i, int min_ops, double deadline) {
  return i < min_ops || now() < deadline;
}

void add_op_metrics(const Config& cfg, const OpTimes& t, double loop_seconds,
                    long ops_done, Results& out) {
  const auto n = static_cast<long>(t.untraced.size());
  out.set("op_iqm_ms", interquartile_mean(t.untraced) * 1e3, "ms", n);
  out.set("op_p90_ms", quantile(t.untraced, 0.9) * 1e3, "ms", n);
  out.set("ops_per_s", static_cast<double>(ops_done) / loop_seconds, "1/s",
          ops_done);
  if (cfg.trace && !t.traced.empty() && !t.untraced.empty()) {
    out.set("trace.overhead_frac",
            median(t.traced) / median(t.untraced) - 1.0, "ratio",
            static_cast<long>(t.traced.size()));
  }
}

void add_common(double setup_median, Results& out) {
  out.set("setup_s", setup_median, "s", 0);
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// One serve-mix request: which session, solve or refactorize, and the seed
/// of its right-hand side or new values.
struct Request {
  std::size_t session = 0;
  bool refactorize = false;
  std::uint64_t seed = 0;
};

/// Seeded request picks, stratified so every run sees the same mix: each
/// block of 10 requests holds exactly one refactorize (at a random
/// position), and sessions are drawn from back-to-back random permutations,
/// so each session gets an equal share of the traffic in every block of
/// n_sessions requests. Only the order is random. Not thread-safe.
class RequestStream {
 public:
  RequestStream(std::size_t n_sessions, std::uint64_t seed)
      : n_(n_sessions), rng_(seed) {}

  Request next() {
    if (perm_pos_ == perm_.size()) {
      perm_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
      for (std::size_t i = n_; i > 1; --i) {
        const auto j = rng_.next_index(static_cast<index_t>(i));
        std::swap(perm_[i - 1], perm_[j]);
      }
      perm_pos_ = 0;
    }
    if (block_pos_ == kBlock) block_pos_ = 0;
    if (block_pos_ == 0) {
      refac_at_ = static_cast<int>(rng_.next_index(kBlock));
    }
    Request r;
    r.session = perm_[perm_pos_++];
    r.refactorize = block_pos_++ == refac_at_;
    r.seed = rng_.next_u64();
    return r;
  }

 private:
  static constexpr int kBlock = 10;
  std::size_t n_;
  parfact::Prng rng_;
  std::vector<std::size_t> perm_;
  std::size_t perm_pos_ = 0;
  int block_pos_ = 0;
  int refac_at_ = 0;
};

void add_symbolic_counts(double nnz_l, double flops, double supernodes,
                         Results& out) {
  out.set("symbolic.nnz_l", nnz_l, "count");
  out.set("symbolic.flops", flops, "flop");
  out.set("symbolic.supernodes", supernodes, "count");
}

SolverOptions threaded(int threads) {
  SolverOptions o;
  o.threads = threads;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// cold-2d: a fresh Solver runs analyze → factorize → solve per operation.
Results run_cold_2d(const Config& cfg) {
  Results out;
  const index_t nx = cfg.tiny ? 48 : 256;
  SparseMatrix a;
  std::vector<double> setups;
  // Setup generates the input and runs one warm-up pipeline on it, so the
  // timed operations start with thread stacks, allocator arenas and kernel
  // dispatch already in place. (Generation alone takes a few milliseconds,
  // too little to time steadily on a shared host.)
  for (int r = 0; r < setup_reps(cfg, 3); ++r) {
    const double t0 = now();
    {
      const Span s("sparse.gen");
      a = parfact::grid_laplacian_2d(nx, nx, 5);
    }
    a.values = scaled_values(a, subseed(cfg.seed, 1));
    Solver warm(threaded(kThreads));
    warm.analyze(a);
    const Status st = warm.factorize();
    out.op(!st.failed(), "cold-2d warm-up: " + st.to_string());
    setups.push_back(now() - t0);
  }

  OpTimes times;
  const double loop0 = now();
  const double deadline = loop0 + cfg.seconds;
  long i = 0;
  for (; keep_going(i, 2, deadline); ++i) {
    const SparseMatrix ai =
        with_values(a, scaled_values(a, subseed(cfg.seed, 10 + i)));
    const std::vector<real_t> b =
        seeded_rhs(a.rows, 1, subseed(cfg.seed, 1000 + i));
    const bool traced = trace_op(cfg, i);
    std::vector<real_t> x;
    Status st = Status::success();
    const double t0 = now();
    {
      const Span op("op", i);
      Solver s(threaded(kThreads));
      {
        const Span sp("api.analyze");
        s.analyze(ai);
      }
      {
        const Span sp("api.factorize");
        st = s.factorize();
      }
      if (!st.failed()) {
        const Span sp("api.solve");
        x = s.solve(b);
      }
    }
    const double t1 = now();
    Tracer::instance().enable(false);
    (traced ? times.traced : times.untraced).push_back(t1 - t0);
    const double res = st.failed() ? INFINITY : worst_residual(ai, x, b, 1);
    out.op(res <= kResidualBound,
           "cold-2d op " + std::to_string(i) + ": " +
               (st.failed() ? st.to_string()
                            : "residual " + std::to_string(res)));
  }
  const double loop_s = now() - loop0;
  add_op_metrics(cfg, times, loop_s, i, out);
  out.set("cold_solve_p50_s", median(times.untraced), "s",
          static_cast<long>(times.untraced.size()));
  add_common(median(setups), out);

  if (cfg.trace) {
    ProbeInput in;
    in.lower = &a;
    in.scratch_dir = cfg.scratch_dir;
    in.seed = cfg.seed;
    probe_layers(in, out);
    add_trace_metrics("pipeline", out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// refactor-3d: one analyze + factorize at setup, then refactorize(new
// values) + a 32-RHS solve_batch per operation.
Results run_refactor_3d(const Config& cfg) {
  Results out;
  const index_t nx = cfg.tiny ? 12 : 34;
  constexpr index_t kRhs = 32;
  SparseMatrix a;
  std::unique_ptr<Solver> solver;
  std::vector<double> setups;
  for (int r = 0; r < setup_reps(cfg, 3); ++r) {
    solver.reset();
    const double t0 = now();
    {
      const Span s("sparse.gen");
      a = parfact::grid_laplacian_3d(nx, nx, nx, 7);
    }
    a.values = scaled_values(a, subseed(cfg.seed, 1));
    solver = std::make_unique<Solver>(threaded(kThreads));
    solver->analyze(a);
    const Status st = solver->factorize();
    setups.push_back(now() - t0);
    out.op(!st.failed(), "refactor-3d setup: " + st.to_string());
  }

  OpTimes times;
  std::vector<real_t> last_values = a.values;
  const double loop0 = now();
  const double deadline = loop0 + cfg.seconds;
  long i = 0;
  for (; keep_going(i, 3, deadline); ++i) {
    std::vector<real_t> v = scaled_values(a, subseed(cfg.seed, 10 + i));
    const std::vector<real_t> b =
        seeded_rhs(a.rows, kRhs, subseed(cfg.seed, 1000 + i));
    const bool traced = trace_op(cfg, i);
    std::vector<real_t> x;
    Status st = Status::success();
    const double t0 = now();
    {
      const Span op("op", i);
      {
        const Span sp("api.refactorize");
        st = solver->refactorize(v);
      }
      if (!st.failed()) {
        const Span sp("api.solve_batch");
        x = solver->solve_batch(b, kRhs);
      }
    }
    const double t1 = now();
    Tracer::instance().enable(false);
    (traced ? times.traced : times.untraced).push_back(t1 - t0);
    const SparseMatrix ai = with_values(a, std::move(v));
    const double res = st.failed() ? INFINITY : worst_residual(ai, x, b, kRhs);
    out.op(res <= kResidualBound,
           "refactor-3d op " + std::to_string(i) + ": " +
               (st.failed() ? st.to_string()
                            : "residual " + std::to_string(res)));
    last_values = ai.values;
  }
  const double loop_s = now() - loop0;
  add_op_metrics(cfg, times, loop_s, i, out);
  out.set("refactor_solve_p50_ms", median(times.untraced) * 1e3, "ms",
          static_cast<long>(times.untraced.size()));
  out.set("refactor_solve_p90_ms", quantile(times.untraced, 0.9) * 1e3, "ms",
          static_cast<long>(times.untraced.size()));
  add_common(median(setups), out);

  // Once per run: the refactorized factor is bitwise equal to a cold
  // analyze + factorize of the same values.
  {
    Solver cold(threaded(kThreads));
    cold.analyze(with_values(a, last_values));
    const Status st = cold.factorize();
    const bool same = !st.failed() &&
                      factors_equal(cold.symbolic(), cold.factor(),
                                    solver->factor());
    out.op(same, "refactor-3d: refactorized factor differs from a cold "
                 "factorization of the same values");
  }

  if (cfg.trace) {
    const parfact::SolverReport& rep = solver->report();
    add_symbolic_counts(static_cast<double>(rep.nnz_factor),
                        static_cast<double>(rep.factor_flops),
                        static_cast<double>(rep.n_supernodes), out);
    const SparseMatrix alast = with_values(a, last_values);
    ProbeInput in;
    in.lower = &alast;
    in.scratch_dir = cfg.scratch_dir;
    in.seed = cfg.seed;
    probe_layers(in, out);
    add_trace_metrics("refactor_op", out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve-mix: two closed-loop clients against one SolverService, 90% solve /
// 10% refactorize over five sessions, factor cache at half the resident
// factor bytes so LRU eviction and OOC spill/reload sit on the request path.
Results run_serve_mix(const Config& cfg) {
  Results out;
  const double scale = cfg.tiny ? 0.12 : 0.5;
  constexpr int kClients = 2;
  constexpr int kServiceThreads = 2;

  std::vector<parfact::TestProblem> suite;
  {
    const Span s("sparse.gen");
    suite = parfact::test_suite(scale);
  }
  const std::size_t n_sessions = suite.size();
  std::vector<std::shared_ptr<const SparseMatrix>> current(n_sessions);
  for (std::size_t k = 0; k < n_sessions; ++k) {
    current[k] = std::make_shared<const SparseMatrix>(with_values(
        suite[k].lower, scaled_values(suite[k].lower, subseed(cfg.seed, k))));
  }

  // Size the factor cache from an independent analysis of every pattern.
  // The same analyses later serve the fresh reference solvers of the final
  // check (through oracle_cache), so that check never re-orders.
  parfact::SymbolicCache oracle_cache(16);
  SolverOptions sopts = threaded(kServiceThreads);
  std::size_t total_factor_bytes = 0;
  for (std::size_t k = 0; k < n_sessions; ++k) {
    SolverOptions o = sopts;
    o.symbolic_cache = &oracle_cache;
    Solver probe(o);
    probe.analyze(*current[k]);
    total_factor_bytes +=
        parfact::estimate_working_set(probe.symbolic(), false).factor_bytes;
  }
  parfact::ServiceOptions svc_opts;
  svc_opts.solver = sopts;
  svc_opts.factor_cache_bytes = total_factor_bytes / 2;
  svc_opts.max_concurrent_jobs = kClients;
  svc_opts.spill_dir = cfg.scratch_dir;

  std::unique_ptr<parfact::SolverService> svc;
  std::vector<parfact::SessionId> ids;
  std::vector<double> setups;
  for (int r = 0; r < setup_reps(cfg, 3); ++r) {
    svc.reset();
    ids.clear();
    const double t0 = now();
    svc = std::make_unique<parfact::SolverService>(svc_opts);
    for (std::size_t k = 0; k < n_sessions; ++k) {
      parfact::SessionId id = 0;
      Status st = svc->open(*current[k], id);
      if (!st.failed()) st = svc->factorize(id);
      out.op(!st.failed(), "serve-mix setup: " + st.to_string());
      ids.push_back(id);
    }
    setups.push_back(now() - t0);
  }

  // The closed loop. A benchmark-side lock per session pins which values a
  // solve ran against (the service serializes a session's jobs anyway), so
  // every solve's residual is checked against exactly its matrix.
  std::vector<std::mutex> session_mu(n_sessions);
  std::mutex results_mu;
  std::vector<double> solve_lat, refac_lat, solve_lat_traced;
  std::atomic<long> requests{0};
  // Both clients draw from one seeded request sequence, so the service sees
  // the same access order on every run up to the interleaving of
  // neighbouring requests; that keeps LRU eviction comparable across runs.
  RequestStream stream(n_sessions, subseed(cfg.seed, 100));
  std::mutex stream_mu;
  const parfact::count_t evictions0 = svc->stats().sessions_evicted;
  const double loop0 = now();
  const double deadline = loop0 + cfg.seconds;
  std::atomic<double> last_done{loop0};
  // Spans are recorded only by the traced requests, which open them
  // explicitly; the recorder stays on for the whole loop.
  Tracer::instance().enable(cfg.trace);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> my_solve, my_refac, my_solve_traced;
      Results mine;
      for (long r = 0; keep_going(r, 4, deadline); ++r) {
        const Request req = [&] {
          const std::scoped_lock lock(stream_mu);
          return stream.next();
        }();
        const std::size_t k = req.session;
        const bool is_solve = !req.refactorize;
        const std::uint64_t req_seed = req.seed;
        const bool traced = cfg.trace && (r % 2 == 1);
        const std::int64_t op_id = c * 1000000L + r;
        if (is_solve) {
          const std::vector<real_t> b =
              seeded_rhs(suite[k].lower.rows, 1, req_seed);
          std::vector<real_t> x;
          std::shared_ptr<const SparseMatrix> used;
          Status st = Status::success();
          double dt = 0.0;
          {
            const std::scoped_lock lock(session_mu[k]);
            used = current[k];
            const double t0 = now();
            if (traced) {
              const Span op("op", op_id);
              const Span sp("api.service.solve");
              st = svc->solve(ids[k], b, x);
            } else {
              st = svc->solve(ids[k], b, x);
            }
            dt = now() - t0;
          }
          (traced ? my_solve_traced : my_solve).push_back(dt);
          const double res =
              st.failed() ? INFINITY : worst_residual(*used, x, b, 1);
          mine.op(res <= kResidualBound,
                  "serve-mix solve on " + suite[k].name + ": " +
                      (st.failed() ? st.to_string()
                                   : "residual " + std::to_string(res)));
        } else {
          auto next = std::make_shared<const SparseMatrix>(with_values(
              suite[k].lower, scaled_values(suite[k].lower, req_seed)));
          Status st = Status::success();
          double dt = 0.0;
          {
            const std::scoped_lock lock(session_mu[k]);
            const double t0 = now();
            if (traced) {
              const Span op("op", op_id);
              const Span sp("api.service.refactorize");
              st = svc->refactorize(ids[k], next->values);
            } else {
              st = svc->refactorize(ids[k], next->values);
            }
            dt = now() - t0;
            current[k] = next;
          }
          if (!traced) my_refac.push_back(dt);
          mine.op(!st.failed(), "serve-mix refactorize on " + suite[k].name +
                                    ": " + st.to_string());
        }
        ++requests;
        double t = now();
        double prev = last_done.load();
        while (t > prev && !last_done.compare_exchange_weak(prev, t)) {
        }
      }
      const std::scoped_lock lock(results_mu);
      solve_lat.insert(solve_lat.end(), my_solve.begin(), my_solve.end());
      refac_lat.insert(refac_lat.end(), my_refac.begin(), my_refac.end());
      solve_lat_traced.insert(solve_lat_traced.end(), my_solve_traced.begin(),
                              my_solve_traced.end());
      out.attempted += mine.attempted;
      out.failed += mine.failed;
      for (auto& f : mine.failures) {
        if (out.failures.size() < 8) out.failures.push_back(f);
      }
    });
  }
  for (auto& t : clients) t.join();
  Tracer::instance().enable(false);
  const double loop_s = last_done.load() - loop0;
  const long n_req = requests.load();
  const parfact::count_t evictions =
      svc->stats().sessions_evicted - evictions0;

  const auto ns = static_cast<long>(solve_lat.size());
  const auto nr = static_cast<long>(refac_lat.size());
  out.set("op_iqm_ms", interquartile_mean(solve_lat) * 1e3, "ms", ns);
  out.set("op_p90_ms", quantile(solve_lat, 0.9) * 1e3, "ms", ns);
  out.set("ops_per_s", static_cast<double>(n_req) / loop_s, "1/s", n_req);
  out.set("service.refac_p50_ms", median(refac_lat) * 1e3, "ms", nr);
  out.set("serve_req_per_s", static_cast<double>(n_req) / loop_s, "1/s", n_req);
  out.set("serve_solve_p50_ms", median(solve_lat) * 1e3, "ms", ns);
  out.set("serve_solve_p99_ms", quantile(solve_lat, 0.99) * 1e3, "ms", ns);
  out.set("serve_refac_p50_ms", median(refac_lat) * 1e3, "ms", nr);
  out.set("service.evictions_per_req",
          static_cast<double>(evictions) / static_cast<double>(n_req),
          "1/req", n_req);
  if (cfg.trace && !solve_lat_traced.empty()) {
    out.set("trace.overhead_frac",
            median(solve_lat_traced) / median(solve_lat) - 1.0, "ratio",
            static_cast<long>(solve_lat_traced.size()));
  }
  add_common(median(setups), out);

  // After the storm every session answers exactly like a fresh Solver on
  // its final matrix.
  for (std::size_t k = 0; k < n_sessions; ++k) {
    SolverOptions o = sopts;
    o.symbolic_cache = &oracle_cache;
    Solver ref(o);
    ref.analyze(*current[k]);
    Status st = ref.factorize();
    const std::vector<real_t> b =
        seeded_rhs(current[k]->rows, 1, subseed(cfg.seed, 5000 + k));
    std::vector<real_t> x;
    if (!st.failed()) st = svc->solve(ids[k], b, x);
    out.op(!st.failed() && x == ref.solve(b),
           "serve-mix: session " + suite[k].name +
               " differs from a fresh Solver after the loop");
  }

  if (cfg.trace) {
    // Structure counts of every session; the layer probes then run on the
    // 3-D Laplacian session, at the service's thread count.
    double nnz_l = 0.0, flops = 0.0, supernodes = 0.0;
    for (const parfact::SessionId id : ids) {
      parfact::SolverReport rep;
      if (svc->report(id, rep).failed()) continue;
      nnz_l += static_cast<double>(rep.nnz_factor);
      flops += static_cast<double>(rep.factor_flops);
      supernodes += static_cast<double>(rep.n_supernodes);
    }
    add_symbolic_counts(nnz_l, flops, supernodes, out);
    const std::size_t k = 2;
    ProbeInput in;
    in.lower = current[k].get();
    in.threads = kServiceThreads;
    in.scratch_dir = cfg.scratch_dir;
    in.seed = cfg.seed;
    probe_layers(in, out);
    // Contention: the loaded p50 against an idle service solve.
    const double idle = out.metrics["service.solve_idle_ms"].value;
    out.set("service.contention_share", 1.0 - idle / (median(solve_lat) * 1e3),
            "ratio");
    add_trace_metrics("op", out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// dist-3d: distributed_factor on P=4 mpsim ranks with the default DistConfig
// and the fixed default MachineModel.
Results run_dist_3d(const Config& cfg) {
  Results out;
  const index_t nx = cfg.tiny ? 8 : 24;
  constexpr int kRanks = 4;
  const parfact::mpsim::MachineModel model{};  // fixed, not calibrated
  SparseMatrix a;
  std::optional<parfact::SymbolicFactor> sym;
  parfact::FrontMap map;
  std::vector<double> setups;
  for (int r = 0; r < setup_reps(cfg, 7); ++r) {
    const double t0 = now();
    {
      const Span s("sparse.gen");
      a = parfact::grid_laplacian_3d(nx, nx, nx, 7);
    }
    a.values = scaled_values(a, subseed(cfg.seed, 1));
    sym.emplace(parfact::analyze_nested_dissection(a));
    map = parfact::build_front_map(*sym, kRanks,
                                   parfact::MappingStrategy::kSubtree2d);
    setups.push_back(now() - t0);
  }
  const SparseMatrix base = sym->a;

  OpTimes times;
  double makespan = 0.0;
  std::optional<parfact::DistFactorResult> last;
  const double loop0 = now();
  const double deadline = loop0 + cfg.seconds;
  long i = 0;
  for (; keep_going(i, 3, deadline); ++i) {
    // New values in the postordered space: D·A·D stays SPD.
    sym->a.values = scaled_values(base, subseed(cfg.seed, 10 + i));
    const bool traced = trace_op(cfg, i);
    const double t0 = now();
    std::optional<parfact::DistFactorResult> res;
    {
      const Span op("op", i);
      const Span sp("dist.factor");
      res.emplace(parfact::distributed_factor_checked(*sym, map, model));
    }
    const double t1 = now();
    Tracer::instance().enable(false);
    (traced ? times.traced : times.untraced).push_back(t1 - t0);
    double resid = INFINITY;
    bool same_makespan = true;
    if (res->status.ok()) {
      const std::vector<real_t> b =
          seeded_rhs(a.rows, 1, subseed(cfg.seed, 1000 + i));
      std::vector<real_t> x = b;
      parfact::solve_in_place(res->factor,
                              parfact::MatrixView{x.data(), a.rows, 1, a.rows});
      resid = worst_residual(sym->a, x, b, 1);
      // Virtual time depends on the schedule alone, never on the values.
      same_makespan = makespan == 0.0 || res->run.makespan == makespan;
      makespan = res->run.makespan;
    }
    out.op(resid <= kResidualBound && same_makespan,
           "dist-3d op " + std::to_string(i) + ": " +
               res->status.to_string() + ", residual " + std::to_string(resid) +
               (same_makespan ? "" : ", virtual makespan changed"));
    last = std::move(res);
  }
  const double loop_s = now() - loop0;
  add_op_metrics(cfg, times, loop_s, i, out);
  out.set("dist_wall_s", median(times.untraced), "s",
          static_cast<long>(times.untraced.size()));
  out.set("dist_makespan_vs", makespan, "vs");
  add_common(median(setups), out);

  // Once per run: the factor is bitwise equal to the blocking-schedule
  // reference run (the schedules promise identical bits), and matches the
  // serial factor entrywise to within kDistSerialTol. It is not bitwise
  // equal to the serial factor: the 2-D block-cyclic kernels split the
  // updates differently, so the last bits of some entries differ.
  {
    parfact::DistConfig blocking;
    blocking.schedule = parfact::DistConfig::Schedule::kBlocking;
    const parfact::DistFactorResult ref = parfact::distributed_factor_checked(
        *sym, map, model, parfact::FactorKind::kCholesky, {}, {}, {},
        blocking);
    out.op(last && last->status.ok() && ref.status.ok() &&
               factors_equal(*sym, ref.factor, last->factor),
           "dist-3d: factor differs from the blocking-schedule reference");
    const parfact::CholeskyFactor serial = parfact::multifrontal_factor(*sym);
    const double diff = max_rel_diff(*sym, serial, last->factor);
    out.op(diff <= kDistSerialTol,
           "dist-3d: factor differs from the serial factor by " +
               std::to_string(diff));
  }

  if (cfg.trace) {
    // The symbolic.*, dist.* and perf.* metrics describe this workload's
    // own analysis and runs.
    add_symbolic_counts(static_cast<double>(sym->nnz_strict),
                        static_cast<double>(sym->total_flops),
                        static_cast<double>(sym->n_supernodes), out);
    add_dist_metrics(*sym, map, *last, out);
    ProbeInput in;
    in.lower = &a;
    in.scratch_dir = cfg.scratch_dir;
    in.seed = cfg.seed;
    probe_layers(in, out);
    add_trace_metrics("op", out);
  }
  return out;
}

}  // namespace pb
