// MetricsRegistry — named counters, gauges, and log-bucketed histograms
// with optional per-tenant labels.
//
// This is the kernel-side metrics surface of the repro: the simulated
// kernel (and any policy) registers metrics here, and observers read them
// through `Kernel::proc_read` without touching the application — the
// paper's observability claim made concrete. Registration is a map lookup
// (cold path); updates go through retained pointers (hot path: one
// increment). Entries live in a std::map, so addresses are stable for the
// registry's lifetime and dumps iterate in a deterministic sorted order.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace cord::trace {

/// Label value meaning "not labelled" (metrics global to the host).
inline constexpr std::uint32_t kNoLabel = 0xFFFFFFFFu;

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

struct Gauge {
  std::int64_t value = 0;
  void set(std::int64_t v) { value = v; }
};

/// How System's registry folds one per-host (Kernel) metric across hosts.
enum class Combine : std::uint8_t {
  kSum,         ///< total over hosts
  kMax,         ///< largest host value
  kEngineWide,  ///< every host reads the one shared engine: read it once
  kHostOnly,    ///< per host only; absent from the system view
};

/// One row of a metric table — the single definition of a metric: its
/// name, unit, one-line doc, how to read it from a `Source` and how the
/// system view combines it (Kernel rows only). A row without `read`
/// names a metric the code creates lazily through counter()/histogram()
/// (the per-tenant labelled ones); its call sites use the row's name.
template <class Source>
struct MetricRow {
  std::string_view name;
  std::string_view unit;
  std::string_view doc;
  std::uint64_t (*read)(const Source&) = nullptr;
  Combine combine = Combine::kHostOnly;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime;
  /// hot paths should retain them instead of re-looking-up by name.
  Counter& counter(std::string_view name, std::uint32_t label = kNoLabel);
  Gauge& gauge(std::string_view name, std::uint32_t label = kNoLabel);
  sim::LogHistogram& histogram(std::string_view name,
                               std::uint32_t label = kNoLabel);

  /// A gauge computed at read time (e.g. surfacing a live engine counter
  /// such as Engine::clamped_events without copying it on every event).
  void callback_gauge(std::string_view name, std::function<std::int64_t()> fn,
                      std::uint32_t label = kNoLabel);

  /// Read-side lookups (nullptr when absent or of a different kind).
  const Counter* find_counter(std::string_view name,
                              std::uint32_t label = kNoLabel) const;
  const Gauge* find_gauge(std::string_view name,
                          std::uint32_t label = kNoLabel) const;
  const sim::LogHistogram* find_histogram(std::string_view name,
                                          std::uint32_t label = kNoLabel) const;
  /// Current value of a gauge or callback gauge (0 when absent).
  std::int64_t gauge_value(std::string_view name,
                           std::uint32_t label = kNoLabel) const;

  /// All labels registered under `name`, sorted ascending (kNoLabel
  /// excluded) — e.g. the set of tenants the kernel has seen.
  std::vector<std::uint32_t> labels(std::string_view name) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// `name,label,kind,count,sum/value,mean,p50,p99,max` per row,
  /// deterministic order. The metrics dump consumed by benches/examples.
  void write_csv(std::FILE* f) const;
  /// /proc-style human-readable dump, one metric per line.
  std::string text() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kCallbackGauge, kHistogram };

  struct Key {
    std::string name;
    std::uint32_t label;
  };
  struct KeyView {
    std::string_view name;
    std::uint32_t label;
  };
  /// (name, label) order. Transparent, so lookups by KeyView build no
  /// std::string (names past the small-string limit would allocate).
  struct KeyLess {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      const int c = std::string_view(a.name).compare(b.name);
      return c != 0 ? c < 0 : a.label < b.label;
    }
  };

  struct Entry {
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    std::function<std::int64_t()> callback;
    // Out of line: a LogHistogram is ~550 bytes, and most entries are
    // counters or gauges.
    std::unique_ptr<sim::LogHistogram> histogram;
  };

  Entry& get_or_create(std::string_view name, std::uint32_t label, Kind kind);
  const Entry* find(std::string_view name, std::uint32_t label,
                    Kind kind) const;

  std::map<Key, Entry, KeyLess> entries_;
};

}  // namespace cord::trace
