#include "trace.h"

#include <chrono>
#include <cstdio>
#include <string_view>

namespace pb {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int tl_current = -1;  // innermost open span on this thread
thread_local int tl_thread = -1;
std::atomic<int> g_next_thread{0};

int thread_id() {
  if (tl_thread < 0) tl_thread = g_next_thread.fetch_add(1);
  return tl_thread;
}

std::string layer_of(const char* name) {
  const std::string_view s(name);
  return std::string(s.substr(0, s.find('.')));
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(steady_seconds()) {}

int Tracer::open(const char* name, std::int64_t op) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = tl_current;
  rec.thread = thread_id();
  const std::scoped_lock lock(mu_);
  if (op < 0 && rec.parent >= 0) op = spans_[rec.parent].op;
  rec.op = op;
  rec.t0 = steady_seconds() - epoch_;
  spans_.push_back(rec);
  tl_current = static_cast<int>(spans_.size()) - 1;
  return tl_current;
}

void Tracer::close(int index) {
  const double t1 = steady_seconds() - epoch_;
  const std::scoped_lock lock(mu_);
  spans_[index].t1 = t1;
  tl_current = spans_[index].parent;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::scoped_lock lock(mu_);
  return spans_;
}

std::size_t Tracer::size() const {
  const std::scoped_lock lock(mu_);
  return spans_.size();
}

void Tracer::truncate(std::size_t n) {
  const std::scoped_lock lock(mu_);
  if (n < spans_.size()) spans_.resize(n);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"op\": %lld, \"parent\": %d}}%s\n",
                 s.name, layer_of(s.name).c_str(), s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, s.thread, static_cast<long long>(s.op),
                 s.parent, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::int64_t op) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) index_ = t.open(name, op);
}

Span::~Span() {
  if (index_ >= 0) Tracer::instance().close(index_);
}

std::map<std::string, double> layer_self_time(
    const std::vector<SpanRecord>& spans, const std::string& root) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) covered[s.parent] += s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int r = static_cast<int>(i);
    while (spans[r].parent >= 0) r = spans[r].parent;
    if (root != spans[r].name) continue;
    out[layer_of(spans[i].name)] += spans[i].t1 - spans[i].t0 - covered[i];
  }
  return out;
}

}  // namespace pb
