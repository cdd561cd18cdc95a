// Helpers of the repository benchmark (perfbench): exact percentiles over
// raw samples, the metric report and its name rules, in-memory spans, the
// output checks, and small readers for the counters the program exports
// (Prometheus text, collapsed profiler stacks, /proc RSS).
//
// Everything here is plain data in, verdict out, so selftest.cpp can feed
// hand-built cases to each piece.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "online/scheduler.hpp"
#include "rpc/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- percentiles -----------------------------------------------------------

/// Samples beyond a percentile required before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// One percentile as an exact order statistic (nearest rank) of raw samples.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count it was taken from
  std::size_t beyond = 0;   ///< samples strictly above its rank
};

/// Nearest-rank percentile `p` in (0, 100] of `samples`: the value at rank
/// ceil(p/100 * n). Refused (nullopt) when fewer than kMinBeyond samples
/// lie beyond that rank.
std::optional<Percentile> percentile(std::vector<double> samples, double p);

double mean(const std::vector<double>& values);
double median(std::vector<double> values);

// ---- the report ------------------------------------------------------------

/// Metric names: start with a letter or digit, at most 64 characters from
/// letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);
/// Units: 1 to 16 characters from letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(const std::string& unit);

class Report {
 public:
  /// Adds a metric; throws std::invalid_argument on a bad name or unit, a
  /// duplicate, or a non-finite value.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds a figure that is printed for the reader but kept out of the
  /// result JSON (same rules as add()).
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  /// Records a failed output check. Any failure makes the run incorrect.
  void fail_check(const std::string& what);
  /// Records a passed output check (printed for the reader).
  void pass_check(const std::string& what);
  bool correct() const { return failed_checks_.empty(); }
  bool has(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable lines (one per metric and check), then the result JSON
  /// as the last line.
  std::string render() const;
  std::string render_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_json;
  };
  void insert(const std::string& name, double value, const std::string& unit,
              const std::string& note, bool in_json);
  std::vector<Entry> entries_;
  std::vector<std::string> passed_checks_;
  std::vector<std::string> failed_checks_;
};

// ---- spans -----------------------------------------------------------------

/// In-memory span log of the traced run: name, start, end, parent and the
/// operation id the span belongs to. Thread-safe; written out at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the log's epoch
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index of the parent span, -1 = root
    std::int64_t op = -1;       ///< operation id shared by one op's spans
  };

  SpanLog();
  /// Opens a span; returns its index for close() and as a parent handle.
  std::int64_t open(const std::string& name, std::int64_t op,
                    std::int64_t parent = -1);
  void close(std::int64_t index);
  /// Adds a finished span measured elsewhere.
  std::int64_t add(const std::string& name, std::int64_t op,
                   Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = -1);

  std::vector<Span> spans() const;
  /// Durations (microseconds) of every span with this name.
  std::vector<double> durations_us(const std::string& name) const;
  /// Per name: span count, total and self time (a span minus the part of
  /// its interval its children cover), microseconds.
  struct Summary {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Summary> summarize() const;
  /// JSON: {"spans": [...], "summary": {...}}.
  std::string to_json() const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of each span in `spans`: its duration minus the union of its
/// direct children's intervals (clipped to the span).
std::vector<double> self_times_ns(const std::vector<SpanLog::Span>& spans);

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::int64_t op,
             std::int64_t parent = -1)
      : log_(log), index_(log ? log->open(name, op, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

// ---- output checks ---------------------------------------------------------
// Each returns an empty string when the check holds, else what is wrong.

/// No machine of the snapshot hosts more than `cores` live processes.
std::string check_machine_capacity(const cosched::ServiceSnapshot& snapshot,
                                   std::uint32_t cores);
/// After drain: completions equal the submits the service accepted.
std::string check_completions(std::uint64_t accepted,
                              std::uint64_t completions);
/// Router fan-in: every fleet total equals the sum of its shard entries,
/// the routed-request sum equals `routed_submits`, and `shards` entries.
std::string check_fan_in(const cosched::MetricsResponse& metrics,
                         std::size_t shards, std::uint64_t routed_submits);
/// `solution` partitions processes 0..n-1 into n/u machines of u each.
std::string check_partition(const cosched::Solution& solution, std::int32_t n,
                            std::int32_t u);
/// OA* is optimal: its objective is at most HA*'s and PG's (to 1e-9).
std::string check_bracket(double oastar, double hastar, double pg);
/// Server-counted requests equal client-counted ones.
std::string check_request_count(std::uint64_t server, std::uint64_t client);

// ---- program counters ------------------------------------------------------

/// Sum of every sample of metric `name` (any labels) in Prometheus text;
/// 0 when absent.
double prom_value(const std::string& text, const std::string& name);

/// Collapsed-stack profile ("a;b;c self_us" lines) as path -> self µs.
std::map<std::string, double> parse_collapsed(const std::string& text);
/// Wall time (µs) spent inside phase `name`: the self time of every path
/// that passes through it, counted once per path.
double phase_total_us(const std::map<std::string, double>& profile,
                      const std::string& name);
/// `after` minus `before`, per path.
std::map<std::string, double> profile_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

/// CPU time (user + system) this process has used, all threads, seconds.
double process_cpu_seconds();

/// Peak resident set size of this process, MiB (VmHWM).
double peak_rss_mb();

/// FNV-1a 64-bit digest, printed as 16 hex digits.
std::string digest(const std::string& bytes);

}  // namespace perfbench
