#pragma once

// Shared pieces of the agcbench binary: command-line arguments, the
// per-run outcome (metrics, context stamp, correctness tally), the span
// tracer of the traced run, and small timing/statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;        ///< workload seed (--seed)
  std::uint64_t graph_seed = 1;  ///< graph seed (--graph-seed)
  double seconds = 10.0;         ///< measuring window of an untraced run
  bool trace = false;            ///< traced run: per-layer metrics
  std::string trace_out;         ///< where the traced run writes its spans
  bool tiny = false;             ///< tiny instance, for the self-test
};

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds elapsed since construction.
class Stopwatch {
 public:
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }

 private:
  std::uint64_t start_ = now_ns();
};

[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile of an ascending-sorted sample; `ppm` is the
/// percentile in parts per million (500000 is the median).
template <typename T>
[[nodiscard]] T percentile_sorted(const std::vector<T>& sorted, std::uint64_t ppm) {
  if (sorted.empty()) return T{};
  const std::uint64_t n = sorted.size();
  const std::uint64_t rank = (ppm * n + 999'999) / 1'000'000;
  return sorted[std::clamp<std::uint64_t>(rank, 1, n) - 1];
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ..., up to
/// `max_ppm`, that still has at least ten samples above it (the median when
/// the sample is too small), as {percentile, value}.
template <typename T>
[[nodiscard]] std::pair<double, T> tail_sorted(const std::vector<T>& sorted,
                                               std::uint64_t max_ppm = 1'000'000) {
  std::uint64_t best = 500'000;
  for (const std::uint64_t ppm : {900'000, 990'000, 999'000, 999'900, 999'990, 999'999}) {
    if (ppm <= max_ppm && sorted.size() * (1'000'000 - ppm) >= 10'000'000) best = ppm;
  }
  return {static_cast<double>(best) / 1e4, percentile_sorted(sorted, best)};
}

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::size_t nproc();
[[nodiscard]] std::uint64_t llc_bytes();

/// One measured run's result: named metrics with units, the context stamp
/// printed next to them, and the correctness tally.
struct Outcome {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::vector<Metric> metrics;
  /// Context stamp: key -> JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> context;
  std::uint64_t attempted = 0;  ///< operations run (coloring runs / service ops)
  std::uint64_t failed = 0;     ///< operations whose output failed a check
  std::vector<std::string> problems;  ///< every failed check, for stderr

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void stamp(std::string key, double value);
  void stamp(std::string key, const std::string& text);

  /// Count one operation; a false `ok` counts it failed and records `what`.
  void op(bool ok, const std::string& what);
  /// A run-level check (replay identity, end-of-run legality).
  void require(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return failed == 0 && problems.empty(); }
};

/// Spans of the traced run, kept in memory and written out at exit.  A span
/// is opened around one call into the library; its parent is the span open
/// when it started, and every span carries the run id.  A disabled tracer
/// (the untraced runs) reads no clock.
class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id) : enabled_(enabled), run_id_(run_id) {}

  class Scope {
   public:
    Scope(Tracer* t, std::size_t idx) : t_(t), idx_(idx) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t idx_;
  };

  /// Open a span; `name` must have static storage (a string literal).
  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return {nullptr, 0};
    spans_.push_back({name, now_ns(), 0, open_});
    open_ = static_cast<std::int64_t>(spans_.size() - 1);
    return {this, spans_.size() - 1};
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Summed duration of every span called `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Duration of the last span called `name`, in seconds.
  [[nodiscard]] double last_s(std::string_view name) const;
  /// Write spans plus a per-name summary (count, total and self time) as
  /// JSON.  Returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    std::int64_t parent;
  };

  void close(std::size_t idx) {
    spans_[idx].end = now_ns();
    open_ = spans_[idx].parent;
  }

  bool enabled_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

Outcome run_scale_gnp(const Args& args, Tracer& tr);
Outcome run_engine_regular(const Args& args, Tracer& tr);
Outcome run_service_churn(const Args& args, Tracer& tr);

}  // namespace perfbench
