// parfact_bench: runs one benchmark workload and prints its metrics.
//
//   parfact_bench --workload <cold-2d|refactor-3d|serve-mix|dist-3d>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--scratch <dir>]
//
// Human-readable lines come first (every metric with its unit and sample
// count, the host description, any failures); the last line is one JSON
// object with every metric the run measured. perfbench/run.py selects the
// metrics BENCHMARK.json names from it. The exit code is 0 only when every
// operation and every bitwise check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string first_line_with(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Size of the highest-level CPU cache of cpu0, as the kernel reports it.
std::string llc_size() {
  std::string best = "unknown";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream size(dir + "/size");
    std::string s;
    if (!(size >> s)) break;
    std::ifstream level(dir + "/level");
    int l = 0;
    level >> l;
    best = "L" + std::to_string(l) + " " + s;
  }
  return best;
}

int usage() {
  std::fprintf(stderr,
               "usage: parfact_bench --workload <cold-2d|refactor-3d|"
               "serve-mix|dist-3d> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--scratch <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Config cfg;
  cfg.scratch_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--scratch" && has_value) {
      cfg.scratch_dir = argv[++i];
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else {
      return usage();
    }
  }
  if (cfg.seconds <= 0.0) return usage();

  pb::Results r;
  try {
    pb::Tracer::instance().enable(cfg.trace);
    if (cfg.workload == "cold-2d") {
      r = pb::run_cold_2d(cfg);
    } else if (cfg.workload == "refactor-3d") {
      r = pb::run_refactor_3d(cfg);
    } else if (cfg.workload == "serve-mix") {
      r = pb::run_serve_mix(cfg);
    } else if (cfg.workload == "dist-3d") {
      r = pb::run_dist_3d(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parfact_bench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 3;
  }
  r.set("failed_ops_frac",
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
        "ratio", r.attempted);

  std::string trace_path;
  if (cfg.trace) {
    trace_path = cfg.scratch_dir + "/trace-" + cfg.workload + "-" +
                 std::to_string(cfg.seed) + ".json";
    if (!pb::Tracer::instance().write_chrome_json(trace_path)) {
      std::fprintf(stderr, "parfact_bench: cannot write %s\n",
                   trace_path.c_str());
      trace_path.clear();
    }
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string cpu = first_line_with("/proc/cpuinfo", "model name");
  const std::string llc = llc_size();
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# host: nproc %u, cpu \"%s\", llc %s\n", nproc, cpu.c_str(),
              llc.c_str());
  for (const auto& [name, m] : r.metrics) {
    if (m.samples > 0) {
      std::printf("%-28s %16.6g %-8s (n=%ld)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-28s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& f : r.failures) {
    std::printf("# FAIL: %s\n", f.c_str());
  }
  if (!trace_path.empty()) std::printf("# trace: %s\n", trace_path.c_str());

  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %ld, "
              "\"failed\": %ld, \"host\": {\"nproc\": %u, \"cpu\": \"%s\", "
              "\"llc\": \"%s\"}, \"metrics\": {",
              cfg.workload.c_str(), r.failed == 0 ? "true" : "false",
              r.attempted, r.failed, nproc, json_escape(cpu).c_str(),
              json_escape(llc).c_str());
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %ld}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str(),
                m.samples);
    first = false;
  }
  std::printf("}}\n");
  return r.failed == 0 ? 0 : 1;
}
