#pragma once
// The one driver of the acceptance campaigns (fault, crash, chaos, attack).
// A campaign is a function of its seed that returns a report (no timing in
// it) and (invariant, violations) pairs. The driver takes `--seeds N` or
// `--seeds A..B`, runs every seed twice in-process and requires identical
// results, prints one line per invariant and a verdict per seed, and exits
// 0 (every invariant held, every replay matched), 1 (an invariant broke, a
// replay differed or a run threw) or 2 (bad flag or CampaignSetupError).

#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace spe::benchutil {

struct CampaignResult {
  std::string report;
  std::vector<std::pair<std::string, std::uint64_t>> invariants;  ///< name, violations
  bool operator==(const CampaignResult&) const = default;
};

/// The campaign could not set up its environment (e.g. no loopback ports).
struct CampaignSetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// printf onto a report.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out, const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  if (n < 0 || n >= static_cast<int>(sizeof line)) throw std::length_error("appendf: too long");
  out.append(line, static_cast<std::size_t>(n));
}

/// The block image the chaos and attack campaigns write for (address,
/// generation); their shadow models compare read-backs against it.
inline std::vector<std::uint8_t> payload_for(std::uint64_t addr, unsigned block_bytes,
                                             unsigned generation) {
  std::vector<std::uint8_t> data(block_bytes);
  for (unsigned i = 0; i < block_bytes; ++i)
    data[i] = static_cast<std::uint8_t>(addr * 13 + i * 7 + generation * 101);
  return data;
}

/// "N" or "A..B" (decimal, A <= B) into [first, last]; false if malformed.
inline bool parse_seeds(const std::string& spec, std::uint64_t& first, std::uint64_t& last) {
  const auto parse = [](const std::string& text, std::uint64_t& out) {
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return !text.empty() && text.find_first_not_of("0123456789") == std::string::npos &&
           errno == 0;
  };
  const std::size_t dots = spec.find("..");
  return parse(spec.substr(0, dots), first) &&
         parse(dots == std::string::npos ? spec : spec.substr(dots + 2), last) && first <= last;
}

inline int run_campaign(int argc, char** argv, std::uint64_t default_seed,
                        const std::function<CampaignResult(std::uint64_t)>& fn) {
  Args args(argc, argv);
  const std::string spec = args.str("seeds", std::to_string(default_seed));
  std::uint64_t first = 0, last = 0;
  if (!args.ok(stderr) || !parse_seeds(spec, first, last)) {
    std::fprintf(stderr, "usage: --seeds N | --seeds A..B (decimal, A <= B)\n");
    return 2;
  }
  bool pass = true;
  for (std::uint64_t seed = first;; ++seed) {
    const auto id = static_cast<unsigned long long>(seed);
    std::string verdict = "PASS";
    try {
      const CampaignResult run = fn(seed), replay = fn(seed);
      std::printf("%s\n", run.report.c_str());
      for (const auto& [name, violations] : run.invariants) {
        std::printf("invariant %s: violations=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(violations));
        if (violations != 0) verdict = "FAIL (invariant broken)";
      }
      if (!(run == replay)) {
        verdict = "FAIL (replay differed)";
        std::istringstream a(run.report), b(replay.report);  // first differing line
        std::string line_a, line_b;
        while (std::getline(a, line_a) && std::getline(b, line_b) && line_a == line_b) {}
        std::fprintf(stderr, "seed %llu replay differs:\n  run:    %s\n  replay: %s\n", id,
                     line_a.c_str(), line_b.c_str());
      }
    } catch (const CampaignSetupError& e) {
      std::fprintf(stderr, "setup failed: %s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "seed %llu threw: %s\n", id, e.what());
      verdict = "FAIL (threw)";
    }
    std::printf("seed %llu: %s\n", id, verdict.c_str());
    pass = pass && verdict == "PASS";
    if (seed == last) break;
  }
  std::printf("CAMPAIGN %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace spe::benchutil
