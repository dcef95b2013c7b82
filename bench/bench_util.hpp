#pragma once
// Shared helpers for the table/figure reproduction harnesses and the
// serving-layer binaries (spe_server, loadgen): env overrides, a banner,
// one tiny argv parser so every bench spells flags the same way — and the
// single JSON emitter for the perf-trajectory files (BENCH_throughput.json,
// BENCH_latency.json). Every harness that writes those files goes through
// write_throughput_json() / write_latency_json() so the schema (see
// scripts/bench_throughput.schema.json) cannot fork per binary: one schema
// tag, harness name in `source`, run shape in `config`, plus the git SHA
// the numbers were measured at.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace spe::benchutil {

/// Reads an unsigned environment override (e.g. SPE_NIST_SEQS) or returns
/// the default. All benches run with sensible fast defaults; the paper-scale
/// profile is selected by exporting the documented variables.
inline unsigned env_or(const char* name, unsigned fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<unsigned>(std::strtoul(value, nullptr, 10));
}

/// 64-bit variant for seed overrides (base 0: accepts decimal or 0x hex).
inline std::uint64_t env_or_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

inline std::string banner_text(const std::string& title, const std::string& paper_ref) {
  const std::string rule = "================================================================\n";
  return "\n" + rule + title + "\nReproduces: " + paper_ref + "\n" + rule + "\n";
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::fputs(banner_text(title, paper_ref).c_str(), stdout);
}

/// Minimal argv parser shared by the bench binaries. Supports boolean
/// `--name` flags and `--name value` / `--name=value` options; unknown
/// tokens are collected so a bench can reject typos with a one-line error.
///
///   Args args(argc, argv);
///   const bool smoke = args.flag("smoke");
///   const unsigned ops = args.uns("ops", env_or("SPE_SVC_OPS", 2000));
///   if (!args.ok(stderr)) return 2;
class Args {
public:
  Args(int argc, char** argv) {
    tokens_.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
    for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
    used_.assign(tokens_.size(), false);
  }

  /// True when `--name` appears (as a bare flag).
  [[nodiscard]] bool flag(const std::string& name) {
    const std::string key = "--" + name;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] == key) {
        used_[i] = true;
        return true;
      }
    }
    return false;
  }

  /// Value of `--name value` or `--name=value`, else `fallback`.
  [[nodiscard]] std::string str(const std::string& name, std::string fallback) {
    const std::string key = "--" + name;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].rfind(key + "=", 0) == 0) {
        used_[i] = true;
        return tokens_[i].substr(key.size() + 1);
      }
      if (tokens_[i] == key && i + 1 < tokens_.size()) {
        used_[i] = used_[i + 1] = true;
        return tokens_[i + 1];
      }
    }
    return fallback;
  }

  [[nodiscard]] unsigned uns(const std::string& name, unsigned fallback) {
    const std::string v = str(name, "");
    if (v.empty()) return fallback;
    return static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
  }

  /// After all lookups: prints one line per unrecognised token to `err` and
  /// returns false if any exist. Call last so every valid flag is marked.
  [[nodiscard]] bool ok(std::FILE* err) const {
    bool clean = true;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!used_[i]) {
        std::fprintf(err, "unknown argument: %s\n", tokens_[i].c_str());
        clean = false;
      }
    }
    return clean;
  }

private:
  std::vector<std::string> tokens_;
  std::vector<bool> used_;
};

// --- perf-trajectory JSON emitter -------------------------------------------

inline constexpr const char* kThroughputSchema = "spe.bench.throughput.v2";
inline constexpr const char* kLatencySchema = "spe.bench.latency.v2";

/// The git SHA stamped into every bench report: SPE_GIT_SHA when set (CI can
/// pin it), else `git rev-parse --short HEAD`, else "unknown" (tarball
/// builds). Never throws.
inline std::string git_sha() {
  if (const char* env = std::getenv("SPE_GIT_SHA"); env && *env) return env;
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe)) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  for (const char c : sha)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return "unknown";
  return sha.empty() ? "unknown" : sha;
}

/// Bytes moved per cycle at the 1 GHz nominal clock the perf docs quote
/// (bytes/s / 1e9) — keeps the trajectory comparable across hosts whose
/// real clocks differ but whose relative regressions matter.
inline double bytes_per_cycle(double ops_per_sec, unsigned bytes_per_op) {
  return ops_per_sec * static_cast<double>(bytes_per_op) / 1e9;
}

struct ThroughputReport {
  std::string source;  ///< which harness produced it ("loadgen", ...)
  std::string config;  ///< run-shape fingerprint ("4w/8s window=256 ...")
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
  double bytes_per_cycle = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// One row of the batch-size sweep (BENCH_latency.json): ops submitted in
/// groups of `batch` same-kind requests.
struct LatencyRow {
  unsigned batch = 1;
  double ops_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

struct LatencyReport {
  std::string source;
  std::string config;
  std::vector<LatencyRow> rows;
};

/// Scans `text` for `"key": <number>`; false when absent/malformed.
inline bool json_number(const std::string& text, const std::string& key,
                        double& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const char* start = text.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  out = v;
  return true;
}

/// Prints the delta against the previous file (if readable), then writes
/// the new report. Returns false when the file cannot be written.
inline bool write_throughput_json(const std::string& path,
                                  const ThroughputReport& report) {
  {
    std::ifstream in(path);
    std::stringstream buf;
    if (in) buf << in.rdbuf();
    double prev_ops_per_sec = 0.0, prev_p99 = 0.0;
    if (json_number(buf.str(), "ops_per_sec", prev_ops_per_sec) &&
        prev_ops_per_sec > 0.0) {
      const double pct =
          (report.ops_per_sec - prev_ops_per_sec) / prev_ops_per_sec * 100.0;
      std::printf("bench delta vs %s: %.1f -> %.1f kops/s (%+.1f%%)",
                  path.c_str(), prev_ops_per_sec / 1000.0,
                  report.ops_per_sec / 1000.0, pct);
      if (json_number(buf.str(), "p99_us", prev_p99) && prev_p99 > 0.0)
        std::printf(", p99 %.1f -> %.1f us", prev_p99, report.p99_us);
      std::printf("\n");
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_util: cannot write %s\n", path.c_str());
    return false;
  }
  char line[768];
  std::snprintf(line, sizeof line,
                "{\"schema\": \"%s\", \"source\": \"%s\", \"git_sha\": \"%s\", "
                "\"config\": \"%s\", \"ops\": %llu, \"ops_per_sec\": %.1f, "
                "\"bytes_per_cycle\": %.6f, "
                "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}\n",
                kThroughputSchema, report.source.c_str(), git_sha().c_str(),
                report.config.c_str(),
                static_cast<unsigned long long>(report.ops), report.ops_per_sec,
                report.bytes_per_cycle, report.p50_us, report.p95_us,
                report.p99_us);
  out << line;
  return static_cast<bool>(out);
}

/// Writes the batch-size sweep. Same overwrite discipline as the throughput
/// file; no delta line (the compare script reasons about rows).
inline bool write_latency_json(const std::string& path,
                               const LatencyReport& report) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_util: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\"schema\": \"" << kLatencySchema << "\", \"source\": \""
      << report.source << "\", \"git_sha\": \"" << git_sha()
      << "\", \"config\": \"" << report.config << "\", \"rows\": [";
  char row[256];
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const LatencyRow& r = report.rows[i];
    std::snprintf(row, sizeof row,
                  "%s\n  {\"batch\": %u, \"ops_per_sec\": %.1f, \"p50_us\": %.1f, "
                  "\"p95_us\": %.1f, \"p99_us\": %.1f}",
                  i == 0 ? "" : ",", r.batch, r.ops_per_sec, r.p50_us, r.p95_us,
                  r.p99_us);
    out << row;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace spe::benchutil
