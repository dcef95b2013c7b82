#pragma once
// Named metrics for the SPE stack: monotonic counters, gauges, and
// power-of-two latency histograms behind a registry with deterministic
// (sorted) Prometheus-text and JSON export. These are the stack's only
// metric instruments: hot paths record into instruments they own (a bank
// shard's ShardCounters, the net server's Counters) or cache from a
// registry, so a counter add is one relaxed atomic RMW with no map lookup.
//
// Labels ride inside the metric name ("spe_reads_total{shard=\"0\"}"): the
// registry sorts full names, and the Prometheus writer emits one HELP/TYPE
// header per family (the name up to '{'). The process-global registry
// (MetricsRegistry::global()) collects cross-layer counters (crossbar
// solves, journal transitions) that have no per-service home; the runtime's
// MemoryService::fill_metrics() reads each shard's instruments into a
// caller's registry and merges those globals in.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spe::obs {

/// Monotonic counter. add() of a delta only — no decrement exists, so a
/// sampled value can never go backwards (tests/obs/metrics_test pins this).
class Counter {
public:
  void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time gauge (double, so fractions export losslessly).
class Gauge {
public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<double> v_{0.0};
};

/// Lock-free latency histogram: 64 power-of-two nanosecond buckets (bucket
/// b covers [2^(b-1), 2^b) ns) of relaxed atomic counters, so threads record
/// on the hot path without contending. Quantiles read a snapshot and are
/// approximate to within one bucket (~2x resolution).
class Histogram {
public:
  static constexpr unsigned kBuckets = 64;

  /// Negative durations (a clock read out of order) count as 0 ns.
  void record(std::chrono::nanoseconds latency) noexcept {
    const auto ns = latency.count() < 0 ? std::uint64_t{0}
                                        : static_cast<std::uint64_t>(latency.count());
    buckets_[bucket_for(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Plain copy of the counters. Each field is its own relaxed load, so a
  /// snapshot taken under load is consistent only to within in-flight
  /// records; every field is monotonic across successive snapshots.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;  ///< ns

    /// Upper edge of the bucket holding the q-quantile sample (q in [0,1]).
    [[nodiscard]] std::chrono::nanoseconds quantile(double q) const noexcept {
      if (count == 0) return std::chrono::nanoseconds(0);
      if (q < 0.0) q = 0.0;
      if (q > 1.0) q = 1.0;
      auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
      for (unsigned b = 0; b < kBuckets; ++b) {
        if (rank <= buckets[b]) return std::chrono::nanoseconds(upper_edge(b));
        rank -= buckets[b];
      }
      return std::chrono::nanoseconds(upper_edge(kBuckets - 1));
    }
    [[nodiscard]] std::chrono::nanoseconds p50() const noexcept { return quantile(0.50); }
    [[nodiscard]] std::chrono::nanoseconds p95() const noexcept { return quantile(0.95); }
    [[nodiscard]] std::chrono::nanoseconds p99() const noexcept { return quantile(0.99); }
    [[nodiscard]] std::chrono::nanoseconds mean() const noexcept {
      return std::chrono::nanoseconds(count ? sum / count : 0);
    }

    Snapshot& operator+=(const Snapshot& other) noexcept {
      for (unsigned b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
      count += other.count;
      sum += other.sum;
      return *this;
    }
    [[nodiscard]] friend Snapshot operator+(Snapshot a, const Snapshot& b) noexcept {
      a += b;
      return a;
    }
    [[nodiscard]] bool operator==(const Snapshot&) const noexcept = default;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot s;
    for (unsigned b = 0; b < kBuckets; ++b)
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  /// Adds a snapshot's buckets, count and sum (MetricsRegistry::merge_into,
  /// and fill_metrics summing per-shard histograms into one total).
  void merge_buckets(const Snapshot& s) noexcept {
    for (unsigned b = 0; b < kBuckets; ++b)
      buckets_[b].fetch_add(s.buckets[b], std::memory_order_relaxed);
    count_.fetch_add(s.count, std::memory_order_relaxed);
    sum_.fetch_add(s.sum, std::memory_order_relaxed);
  }

  [[nodiscard]] static unsigned bucket_for(std::uint64_t ns) noexcept {
    return ns == 0 ? 0 : static_cast<unsigned>(std::bit_width(ns) - 1);
  }
  [[nodiscard]] static std::uint64_t upper_edge(unsigned bucket) noexcept {
    return bucket >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (bucket + 1)) - 1;
  }

private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricsFormat { Prometheus, Json };

class MetricsRegistry {
public:
  /// Labeled series allowed per family before new label values are dropped
  /// (see set_series_cap). Generous: per-shard labels are tens of series,
  /// per-tenant labels hundreds — only an unbounded label source (a tenant
  /// id echoed from the wire, say) ever reaches this.
  static constexpr std::size_t kDefaultSeriesCap = 1024;

  MetricsRegistry();

  /// Finds or creates the named instrument. The reference stays valid for
  /// the registry's lifetime (instruments are never removed). A name may be
  /// "family{label=\"v\"}"; help is taken from the first registration of
  /// the family. Throws std::logic_error if the name already exists with a
  /// different instrument type.
  ///
  /// Cardinality guard: once a family holds `series_cap` distinct labeled
  /// names, further *new* labeled names in that family are not registered —
  /// the call counts into `spe_obs_dropped_series_total` and returns a
  /// hidden sink instrument (never exported), so callers keep a valid
  /// reference and the hot path stays branch-free. Existing names are
  /// always served.
  [[nodiscard]] Counter& counter(const std::string& name, const std::string& help = "");
  [[nodiscard]] Gauge& gauge(const std::string& name, const std::string& help = "");
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const std::string& help = "");

  /// Read-back of an existing instrument (T = Counter, Gauge or Histogram).
  /// Never creates one: an unknown name, or a name registered as another
  /// instrument type, throws std::out_of_range, so a misspelled or renamed
  /// family cannot read back as a vacuous zero.
  template <typename T>
  [[nodiscard]] const T& at(const std::string& name) const;

  /// Deterministic (name-sorted) export.
  void write_prometheus(std::ostream& out) const;
  void write_json(std::ostream& out) const;
  void write(std::ostream& out, MetricsFormat format) const;
  [[nodiscard]] std::string render(MetricsFormat format) const;

  /// Sorted full metric names (test hook).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Folds this registry's current values into `dest`: counter values are
  /// added, gauges overwrite, histogram snapshots merge bucket-for-bucket.
  /// MemoryService::export_metrics uses this to absorb the process-global
  /// registry into its per-call export registry.
  void merge_into(MetricsRegistry& dest) const;

  /// Process-wide registry for cross-layer counters (xbar solves, journal
  /// transitions). Instruments here accumulate for the process lifetime.
  static MetricsRegistry& global();

  /// Reconfigures the per-family labeled-series cap (0 = unlimited).
  /// Existing series survive a lowered cap; only new names are affected.
  void set_series_cap(std::size_t cap);

  /// Labeled registrations refused by the cardinality cap so far.
  [[nodiscard]] std::uint64_t dropped_series() const;

private:
  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(const std::string& name, const std::string& help, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< sorted => deterministic export
  std::map<std::string, std::size_t> family_series_;  ///< labeled names per family
  std::size_t series_cap_ = kDefaultSeriesCap;
  std::array<Entry, 3> sinks_;  ///< per-kind bit bucket for capped series
};

}  // namespace spe::obs
