// In-memory span recorder for the traced benchmark run.
//
// A span marks one call into a library layer, made from the benchmark's own
// code: its name ("graph.nd", "mf.refactor", ...; the text before the first
// dot is the layer), start and end, the enclosing span on the same thread,
// and the operation it belongs to. Spans stay in memory while the run goes
// and are written out once at the end as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open directly.
//
// Recording is off unless enable(true) was called; a disabled Span costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct SpanRecord {
  const char* name = "";
  double t0 = 0.0;       ///< seconds since the recorder's epoch
  double t1 = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at the root
  std::int64_t op = -1;  ///< operation id (inherited from the parent)
  int thread = 0;        ///< small per-thread id
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its index.
  int open(const char* name, std::int64_t op);
  void close(int index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::size_t size() const;
  /// Drops every span recorded after the first `n` (no span may be open).
  void truncate(std::size_t n);

  /// Writes every span as a Chrome "X" (complete) event. Returns false if
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  double epoch_ = 0.0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  explicit Span(const char* name, std::int64_t op = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Self time summed by layer (span name up to the first dot), restricted to
/// spans whose root ancestor is named `root`. A span's self time is its
/// duration minus the time its direct children cover.
std::map<std::string, double> layer_self_time(
    const std::vector<SpanRecord>& spans, const std::string& root);

}  // namespace pb
