// Fixed-bucket histogram shared by the online metrics, the RPC bench and
// the Prometheus exposition (src/obs/metrics_registry).
//
// Relocated from src/online/metrics so every consumer — SchedulerMetrics'
// deterministic CSVs, the load generator's latency percentiles and the
// /metrics endpoint — aggregates through one code path. Samples that are
// NaN or negative are *dropped and counted* (`invalid()`), never folded
// into sum/max where they would silently skew the means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace cosched {

/// Per-bucket exemplar: one recent representative observation linked to the
/// trace that produced it (OpenMetrics `# {trace_id="..."} value` syntax in
/// the exposition). `seq` is a per-histogram monotone stamp — newest wins on
/// replacement, which makes eviction deterministic for a deterministic
/// sample sequence.
struct Exemplar {
  bool valid = false;
  Real value = 0.0;
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;
};

/// Fixed-bucket histogram (upper-edge buckets plus an overflow bucket).
class Histogram {
 public:
  /// `upper_edges` must be strictly increasing; sample x lands in the first
  /// bucket with x <= edge, or the overflow bucket.
  explicit Histogram(std::vector<Real> upper_edges);

  void add(Real x) { add(x, 0); }
  /// Like add(); additionally records (x, trace_id) as the bucket's
  /// exemplar when trace_id != 0 (newest observation replaces the previous
  /// one). Invalid samples never become exemplars.
  void add(Real x, std::uint64_t trace_id);
  std::uint64_t count() const { return count_; }
  /// NaN / negative samples rejected by add(). Not part of count().
  std::uint64_t invalid() const { return invalid_; }
  Real sum() const { return sum_; }
  Real mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<Real>(count_); }
  Real max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<Real>& edges() const { return edges_; }
  /// edges().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  /// edges().size() + 1 entries, parallel to bucket_counts(); entries with
  /// valid == false belong to buckets that never saw a traced sample.
  const std::vector<Exemplar>& exemplars() const { return exemplars_; }

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank; samples in the overflow bucket are
  /// credited at max(). 0 when empty.
  Real quantile(Real q) const;

  /// Folds `other` (same edges) into this histogram. The load generator
  /// merges per-worker histograms into one before reporting percentiles,
  /// and the shard router's metrics fan-in merges per-shard histograms
  /// into the combined /metrics page.
  /// Exemplars survive the merge: per bucket the larger-valued exemplar
  /// wins (ties broken by the larger trace id). Seq stamps are
  /// per-instance and cannot be compared across histograms, so recency is
  /// not a usable criterion; max-by-value is deterministic, associative
  /// AND commutative — any fan-in order yields the same exemplar, and a
  /// latency bucket keeps its slowest (most diagnostic) trace.
  void merge(const Histogram& other);

  /// "<=0.5:3 <=1:7 ... >50:0" — compact, deterministic. Rejected samples
  /// append " invalid:N" only when any were seen.
  std::string summary() const;

 private:
  std::vector<Real> edges_;
  std::vector<std::uint64_t> counts_;
  std::vector<Exemplar> exemplars_;
  std::uint64_t count_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t exemplar_seq_ = 0;
  Real sum_ = 0.0;
  Real max_ = 0.0;
};

}  // namespace cosched
