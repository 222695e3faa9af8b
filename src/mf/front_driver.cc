#include "mf/front_driver.h"

#include "mf/ooc.h"

namespace parfact::detail {

FrontRun::FrontRun(const SymbolicFactor& sym, FactorKind kind,
                   std::span<real_t> d, PivotPolicy pivot,
                   const AbftOptions* abft)
    : sym(sym),
      kind(kind),
      d(d),
      pivot(pivot),
      children(build_children(sym)),
      first(first_descendants(sym)),
      update_of(static_cast<std::size_t>(sym.n_supernodes)),
      boosted_of(static_cast<std::size_t>(sym.n_supernodes), 0) {
  if (abft != nullptr) checked.emplace(sym, *abft);
}

void FrontRun::consume_children(index_t s) {
  mem.add(update_of[s].size() * sizeof(real_t));
  for (const index_t c : children[s]) {
    mem.sub(update_of[c].size() * sizeof(real_t));
    update_of[c] = {};
  }
}

void FrontRun::report(FactorStats* stats, const WallTimer& timer) const {
  if (stats == nullptr) return;
  stats->seconds = timer.seconds();
  stats->flops = sym.total_flops;
  stats->peak_update_bytes = mem.peak();
  stats->pivot_perturbations = 0;
  for (const count_t c : boosted_of) stats->pivot_perturbations += c;
  if (checked.has_value()) {
    stats->abft_checks = checked->checks;
    stats->abft_detections = checked->detections;
    stats->fronts_recomputed = checked->fronts_recomputed;
  }
}

void run_front(FrontRun& run, index_t s, MatrixView panel,
               FrontScratch& scratch) {
  std::vector<real_t>& update = run.update_of[s];
  run.mem.sub(update.size() * sizeof(real_t));
  panel.fill(0.0);  // assembly scatters with +=
  run.boosted_of[s] =
      run.checked.has_value()
          ? run.checked->eliminate(run, s, panel, scratch)
          : eliminate_front(run.sym, s, run.update_of, run.children, panel,
                            update, scratch, run.kind, run.d, run.pivot);
  run.consume_children(s);
}

void run_fronts(FrontRun& run, index_t lo, index_t hi, FrontScratch& scratch,
                const CancelToken& cancel) {
  std::vector<real_t> buffer;
  for (index_t s = lo; s <= hi; ++s) {
    cancel.throw_if_cancelled();
    if (run.ooc == nullptr) {
      run_front(run, s, run.factor->panel(s), scratch);
      continue;
    }
    // The streamed panel counts toward the resident peak while it lives.
    const index_t f = run.sym.front_order(s);
    const index_t p = run.sym.sn_cols(s);
    buffer.resize(static_cast<std::size_t>(f) * p);
    const std::size_t bytes = buffer.size() * sizeof(real_t);
    MatrixView panel{buffer.data(), f, p, f};
    run.mem.add(bytes);
    run_front(run, s, panel, scratch);
    run.ooc->write_panel(s, panel);
    run.mem.sub(bytes);
  }
}

}  // namespace parfact::detail
