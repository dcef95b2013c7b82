#include "obs/metrics.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace spe::obs {

namespace {
/// "family{label=\"v\"}" -> "family"; plain names pass through.
std::string family_of(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Doubles rendered shortest-round-trip so export is deterministic.
std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}
}  // namespace

namespace {
constexpr const char* kDroppedSeriesMetric = "spe_obs_dropped_series_total";
}  // namespace

MetricsRegistry::MetricsRegistry() {
  for (unsigned k = 0; k < sinks_.size(); ++k) {
    sinks_[k].kind = static_cast<Kind>(k);
    sinks_[k].counter = std::make_unique<Counter>();
    sinks_[k].gauge = std::make_unique<Gauge>();
    sinks_[k].histogram = std::make_unique<Histogram>();
  }
}

void MetricsRegistry::set_series_cap(std::size_t cap) {
  std::lock_guard lock(mutex_);
  series_cap_ = cap;
}

std::uint64_t MetricsRegistry::dropped_series() const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(kDroppedSeriesMetric);
  return it == entries_.end() ? 0 : it->second.counter->value();
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               const std::string& help, Kind kind) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    const auto brace = name.find('{');
    if (brace != std::string::npos && series_cap_ != 0) {
      std::size_t& series = family_series_[name.substr(0, brace)];
      if (series >= series_cap_) {
        // Over the cardinality cap: count the refusal into an exported
        // overflow counter, then hand back the hidden per-kind sink so the
        // caller's cached reference stays valid and hot-path writes go
        // nowhere instead of growing the registry without bound.
        auto [dit, created] = entries_.try_emplace(kDroppedSeriesMetric);
        if (created) {
          dit->second.kind = Kind::Counter;
          dit->second.help =
              "labeled metric series refused by the per-family cardinality cap";
          dit->second.counter = std::make_unique<Counter>();
        }
        dit->second.counter->add();
        return sinks_[static_cast<unsigned>(kind)];
      }
      ++series;
    }
    Entry e;
    e.kind = kind;
    e.help = help;
    switch (kind) {
      case Kind::Counter: e.counter = std::make_unique<Counter>(); break;
      case Kind::Gauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::Histogram: e.histogram = std::make_unique<Histogram>(); break;
    }
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered with a different type");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
  return *entry(name, help, Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  return *entry(name, help, Kind::Gauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help) {
  return *entry(name, help, Kind::Histogram).histogram;
}

template <typename T>
const T& MetricsRegistry::at(const std::string& name) const {
  std::lock_guard lock(mutex_);
  if (const auto it = entries_.find(name); it != entries_.end()) {
    const Entry& e = it->second;
    if constexpr (std::is_same_v<T, Counter>) {
      if (e.kind == Kind::Counter) return *e.counter;
    } else if constexpr (std::is_same_v<T, Gauge>) {
      if (e.kind == Kind::Gauge) return *e.gauge;
    } else {
      if (e.kind == Kind::Histogram) return *e.histogram;
    }
  }
  throw std::out_of_range("MetricsRegistry: no instrument of the requested type named '" +
                          name + "'");
}
template const Counter& MetricsRegistry::at<Counter>(const std::string&) const;
template const Gauge& MetricsRegistry::at<Gauge>(const std::string&) const;
template const Histogram& MetricsRegistry::at<Histogram>(const std::string&) const;

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  std::string last_family;
  for (const auto& [name, e] : entries_) {
    const std::string family = family_of(name);
    if (family != last_family) {
      if (!e.help.empty()) out << "# HELP " << family << " " << e.help << "\n";
      out << "# TYPE " << family << " "
          << (e.kind == Kind::Counter
                  ? "counter"
                  : e.kind == Kind::Gauge ? "gauge" : "histogram")
          << "\n";
      last_family = family;
    }
    switch (e.kind) {
      case Kind::Counter: out << name << " " << e.counter->value() << "\n"; break;
      case Kind::Gauge: out << name << " " << fmt_double(e.gauge->value()) << "\n"; break;
      case Kind::Histogram: {
        const Histogram::Snapshot s = e.histogram->snapshot();
        // Cumulative buckets, non-empty edges only (plus +Inf), Prometheus
        // text convention. Labelled histogram names are not supported.
        std::uint64_t cumulative = 0;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
          if (s.buckets[b] == 0) continue;
          cumulative += s.buckets[b];
          out << name << "_bucket{le=\"" << Histogram::upper_edge(b) << "\"} "
              << cumulative << "\n";
        }
        out << name << "_bucket{le=\"+Inf\"} " << s.count << "\n";
        out << name << "_sum " << s.sum << "\n";
        out << name << "_count " << s.count << "\n";
        break;
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  out << "{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << name << "\": ";
    switch (e.kind) {
      case Kind::Counter: out << e.counter->value(); break;
      case Kind::Gauge: out << fmt_double(e.gauge->value()); break;
      case Kind::Histogram: {
        const Histogram::Snapshot s = e.histogram->snapshot();
        out << "{\"count\": " << s.count << ", \"sum\": " << s.sum
            << ", \"buckets\": {";
        bool first_bucket = true;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
          if (s.buckets[b] == 0) continue;
          if (!first_bucket) out << ", ";
          first_bucket = false;
          out << "\"" << Histogram::upper_edge(b) << "\": " << s.buckets[b];
        }
        out << "}}";
        break;
      }
    }
  }
  out << "\n}\n";
}

void MetricsRegistry::write(std::ostream& out, MetricsFormat format) const {
  format == MetricsFormat::Prometheus ? write_prometheus(out) : write_json(out);
}

std::string MetricsRegistry::render(MetricsFormat format) const {
  std::ostringstream os;
  write(os, format);
  return os.str();
}

void MetricsRegistry::merge_into(MetricsRegistry& dest) const {
  struct Row {
    std::string name;
    std::string help;
    Kind kind;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram::Snapshot histogram;
  };
  // Sampled under our lock, written into dest outside it, so two registries
  // can merge into each other without a lock-order deadlock.
  std::vector<Row> rows;
  {
    std::lock_guard lock(mutex_);
    rows.reserve(entries_.size());
    for (const auto& [name, e] : entries_) {
      Row row;
      row.name = name;
      row.help = e.help;
      row.kind = e.kind;
      switch (e.kind) {
        case Kind::Counter: row.counter = e.counter->value(); break;
        case Kind::Gauge: row.gauge = e.gauge->value(); break;
        case Kind::Histogram: row.histogram = e.histogram->snapshot(); break;
      }
      rows.push_back(std::move(row));
    }
  }
  for (const Row& row : rows) {
    switch (row.kind) {
      case Kind::Counter: dest.counter(row.name, row.help).add(row.counter); break;
      case Kind::Gauge: dest.gauge(row.name, row.help).set(row.gauge); break;
      case Kind::Histogram:
        dest.histogram(row.name, row.help).merge_buckets(row.histogram);
        break;
    }
  }
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(name);
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace spe::obs
