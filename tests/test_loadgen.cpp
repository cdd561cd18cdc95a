// Tests for the load-generation subsystem (src/loadgen): arrival
// schedules, workload shapes, phase control, SLO evaluation, report JSON
// and the baseline comparison gate. Everything here is socket-free; the
// runner (which needs a live server) is covered by test_loadgen_runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "loadgen/arrival.hpp"
#include "loadgen/flat_json.hpp"
#include "loadgen/phase.hpp"
#include "loadgen/report.hpp"
#include "loadgen/shapes.hpp"
#include "loadgen/slo.hpp"

namespace cosched {
namespace {

// ---- arrival schedules -----------------------------------------------------

TEST(Arrival, DeterministicInSeed) {
  ArrivalSpec spec;
  spec.process = ArrivalProcess::Poisson;
  spec.rate_rps = 25.0;
  spec.count = 200;
  spec.seed = 42;
  std::vector<Real> a = build_arrival_schedule(spec);
  std::vector<Real> b = build_arrival_schedule(spec);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);  // bitwise identical, not just close

  spec.seed = 43;
  std::vector<Real> c = build_arrival_schedule(spec);
  EXPECT_NE(a, c);
}

TEST(Arrival, StrictlyIncreasingFromNonNegativeStart) {
  for (ArrivalProcess process :
       {ArrivalProcess::Poisson, ArrivalProcess::Uniform}) {
    ArrivalSpec spec;
    spec.process = process;
    spec.rate_rps = 50.0;
    spec.count = 500;
    std::vector<Real> schedule = build_arrival_schedule(spec);
    ASSERT_EQ(schedule.size(), 500u) << to_string(process);
    EXPECT_GE(schedule.front(), 0.0);
    for (std::size_t i = 1; i < schedule.size(); ++i)
      ASSERT_GT(schedule[i], schedule[i - 1]) << to_string(process);
  }
}

TEST(Arrival, UniformSpacingIsExact) {
  ArrivalSpec spec;
  spec.process = ArrivalProcess::Uniform;
  spec.rate_rps = 10.0;
  spec.count = 50;
  std::vector<Real> schedule = build_arrival_schedule(spec);
  for (std::size_t i = 1; i < schedule.size(); ++i)
    EXPECT_NEAR(schedule[i] - schedule[i - 1], 0.1, 1e-9);
}

TEST(Arrival, PoissonMeanRateConverges) {
  ArrivalSpec spec;
  spec.process = ArrivalProcess::Poisson;
  spec.rate_rps = 40.0;
  spec.count = 4000;
  spec.seed = 7;
  std::vector<Real> schedule = build_arrival_schedule(spec);
  Real offered = schedule_offered_rps(schedule);
  // 4000 exponential draws: the empirical rate should sit within a few
  // percent of the target (sigma of the mean interarrival ~ 1.6%).
  EXPECT_NEAR(offered, 40.0, 40.0 * 0.05);
}

TEST(Arrival, DiurnalModulatesLocalRateButKeepsMean) {
  ArrivalSpec spec;
  spec.process = ArrivalProcess::Uniform;  // no sampling noise
  spec.rate_rps = 100.0;
  spec.count = 6000;  // exactly one 60 s period at rate 100
  spec.diurnal.enabled = true;
  spec.diurnal.period_seconds = 60.0;
  spec.diurnal.amplitude = 0.8;
  std::vector<Real> schedule = build_arrival_schedule(spec);

  // Mean over the whole period is preserved...
  EXPECT_NEAR(schedule_offered_rps(schedule), 100.0, 3.0);

  // ...but the first quarter-period (sin > 0, peak load) must hold many
  // more arrivals than the third quarter (sin < 0, trough).
  auto count_between = [&](Real lo, Real hi) {
    std::int64_t n = 0;
    for (Real t : schedule)
      if (t >= lo && t < hi) ++n;
    return n;
  };
  std::int64_t peak = count_between(0.0, 15.0);
  std::int64_t trough = count_between(30.0, 45.0);
  EXPECT_GT(peak, trough * 2);
}

TEST(Arrival, OfferedRpsEdgeCases) {
  EXPECT_EQ(schedule_offered_rps({}), 0.0);
  EXPECT_EQ(schedule_offered_rps({0.0}), 0.0);  // zero horizon
  EXPECT_EQ(schedule_offered_rps({1.0}), 1.0);  // one arrival in one second
}

// ---- workload shapes -------------------------------------------------------

TEST(Shapes, DeterministicAndWithinUniformBounds) {
  ShapeSpec spec;
  spec.size = SizeDistribution::Uniform;
  spec.work_lo = 5.0;
  spec.work_hi = 30.0;
  spec.seed = 11;
  std::vector<TraceJob> a = build_jobs(spec, 300);
  std::vector<TraceJob> b = build_jobs(spec, 300);
  ASSERT_EQ(a.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].work, b[i].work);
    EXPECT_GE(a[i].work, 5.0);
    EXPECT_LE(a[i].work, 30.0);
    EXPECT_GE(a[i].miss_rate, 0.15);
    EXPECT_LE(a[i].miss_rate, 0.75);
    EXPECT_EQ(a[i].arrival_time, 0.0);  // pairing is the runner's job
  }
}

TEST(Shapes, ParetoIsHeavyTailedAndCapped) {
  ShapeSpec spec;
  spec.size = SizeDistribution::Pareto;
  spec.pareto_shape = 1.5;
  spec.pareto_scale = 5.0;
  spec.work_cap = 600.0;
  spec.seed = 3;
  std::vector<TraceJob> jobs = build_jobs(spec, 5000);
  Real max_work = 0.0;
  std::int64_t elephants = 0;
  for (const TraceJob& job : jobs) {
    ASSERT_GE(job.work, 5.0);     // x_m is the distribution's minimum
    ASSERT_LE(job.work, 600.0);   // cap holds
    max_work = std::max(max_work, job.work);
    if (job.work > 50.0) ++elephants;
  }
  // P(X > 10 x_m) = 10^-1.5 ~ 3.2%: 5000 draws must contain elephants,
  // and at least one far beyond anything uniform [5, 30] could produce.
  EXPECT_GT(elephants, 50);
  EXPECT_GT(max_work, 100.0);
}

TEST(Shapes, TenantMixUniformAndSkewed) {
  ShapeSpec spec;
  spec.tenants = 8;
  spec.tenant_skew = 0.0;
  spec.seed = 5;
  std::vector<TraceJob> uniform_jobs = build_jobs(spec, 4000);

  auto tenant_counts = [](const std::vector<TraceJob>& jobs, int tenants) {
    std::vector<std::int64_t> counts(static_cast<std::size_t>(tenants), 0);
    for (const TraceJob& job : jobs) {
      EXPECT_EQ(job.name[0], 't') << job.name;
      std::size_t slash = job.name.find('/');
      EXPECT_NE(slash, std::string::npos) << job.name;
      if (slash == std::string::npos) continue;
      ++counts[static_cast<std::size_t>(
          std::stoi(job.name.substr(1, slash - 1)))];
    }
    return counts;
  };

  std::vector<std::int64_t> uniform_counts = tenant_counts(uniform_jobs, 8);
  for (std::int64_t count : uniform_counts) {
    EXPECT_GT(count, 350);  // 500 expected per tenant
    EXPECT_LT(count, 650);
  }

  spec.tenant_skew = 1.2;
  std::vector<std::int64_t> skewed_counts =
      tenant_counts(build_jobs(spec, 4000), 8);
  // Zipf(1.2): tenant 0 dominates, the tail is starved relative to uniform.
  EXPECT_GT(skewed_counts[0], uniform_counts[0] * 2);
  EXPECT_LT(skewed_counts[7], 500);
}

// ---- phase control ---------------------------------------------------------

TEST(Phase, ClassifiesByGlobalIndex) {
  PhaseController phases(10, 3, 2);
  EXPECT_EQ(phases.classify(0), LoadPhase::Warmup);
  EXPECT_EQ(phases.classify(2), LoadPhase::Warmup);
  EXPECT_EQ(phases.classify(3), LoadPhase::Measure);
  EXPECT_EQ(phases.classify(7), LoadPhase::Measure);
  EXPECT_EQ(phases.classify(8), LoadPhase::Cooldown);
  EXPECT_EQ(phases.classify(9), LoadPhase::Cooldown);
  EXPECT_EQ(phases.measure_count(), 5u);
}

TEST(Phase, NoWarmupNoCooldown) {
  PhaseController phases(4, 0, 0);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(phases.classify(i), LoadPhase::Measure);
}

TEST(Phase, EmptyMeasureWindowIsLegal) {
  PhaseController phases(4, 2, 2);
  EXPECT_EQ(phases.measure_count(), 0u);
  EXPECT_EQ(phases.classify(1), LoadPhase::Warmup);
  EXPECT_EQ(phases.classify(2), LoadPhase::Cooldown);
}

TEST(Phase, StatsMergeAndWindow) {
  PhaseStats a;
  a.requests = 3;
  a.latency_ms.add(1.0);
  a.first_send_s = 2.0;
  a.last_finish_s = 5.0;
  a.late_sends = 1;
  a.max_late_ms = 4.0;
  a.sum_late_ms = 4.0;

  PhaseStats b;
  b.requests = 2;
  b.errors = 1;
  b.latency_ms.add(10.0);
  b.first_send_s = 1.0;
  b.last_finish_s = 4.0;
  b.late_sends = 2;
  b.max_late_ms = 9.0;
  b.sum_late_ms = 12.0;

  a.merge(b);
  EXPECT_EQ(a.requests, 5u);
  EXPECT_EQ(a.errors, 1u);
  EXPECT_EQ(a.late_sends, 3u);
  EXPECT_EQ(a.max_late_ms, 9.0);
  EXPECT_EQ(a.sum_late_ms, 16.0);
  EXPECT_EQ(a.first_send_s, 1.0);
  EXPECT_EQ(a.last_finish_s, 5.0);
  EXPECT_NEAR(a.window_seconds(), 4.0, 1e-12);
  EXPECT_EQ(a.latency_ms.count(), 2u);

  PhaseStats empty;
  EXPECT_EQ(empty.window_seconds(), 0.0);
}

// ---- flat JSON reader ------------------------------------------------------

TEST(FlatJson, FlattensNestedDocument) {
  FlatJson json;
  std::string error;
  ASSERT_TRUE(parse_flat_json(
      R"({"a": 1.5, "b": {"c": "hi", "d": [2, 3]}, "e": true, "f": null})",
      json, error))
      << error;
  EXPECT_EQ(json.number("a", 0.0), 1.5);
  EXPECT_EQ(json.string("b.c", ""), "hi");
  EXPECT_EQ(json.number("b.d.0", 0.0), 2.0);
  EXPECT_EQ(json.number("b.d.1", 0.0), 3.0);
  EXPECT_EQ(json.number("e", 0.0), 1.0);
  EXPECT_FALSE(json.has_number("f"));  // null is a lookup miss
  EXPECT_EQ(json.number("missing", -7.0), -7.0);
}

TEST(FlatJson, UnicodeEscapesDecodeToUtf8) {
  FlatJson json;
  std::string error;
  // ASCII, 2-byte, and 3-byte UTF-8 from BMP escapes (raw string: the parser
  // sees the six-character sequence \u0041, not a pre-decoded 'A').
  ASSERT_TRUE(
      parse_flat_json(R"({"a": "\u0041\u00e9\u20AC"})", json, error))
      << error;
  EXPECT_EQ(json.string("a", ""), "A\xC3\xA9\xE2\x82\xAC");  // A e-acute euro

  // A surrogate pair decodes to one astral code point (U+1F600).
  ASSERT_TRUE(parse_flat_json(R"({"b": "\uD83D\uDE00"})", json, error))
      << error;
  EXPECT_EQ(json.string("b", ""), "\xF0\x9F\x98\x80");

  // Escaped keys flatten under their decoded form.
  ASSERT_TRUE(parse_flat_json(R"({"\u006B": 7})", json, error)) << error;
  EXPECT_EQ(json.number("k", 0.0), 7.0);
}

TEST(FlatJson, InvalidUnicodeEscapesAreRejected) {
  FlatJson json;
  std::string error;
  // Lone high surrogate.
  EXPECT_FALSE(parse_flat_json(R"({"a": "\uD800"})", json, error));
  EXPECT_NE(error.find("surrogate"), std::string::npos) << error;
  // Lone low surrogate.
  EXPECT_FALSE(parse_flat_json(R"({"a": "\uDC00"})", json, error));
  // High surrogate followed by a non-surrogate escape.
  EXPECT_FALSE(parse_flat_json(R"({"a": "\uD800A"})", json, error));
  // High surrogate followed by a plain character.
  EXPECT_FALSE(parse_flat_json(R"({"a": "\uD800x"})", json, error));
  // Too few hex digits / non-hex digits.
  EXPECT_FALSE(parse_flat_json(R"({"a": "\u12"})", json, error));
  EXPECT_FALSE(parse_flat_json(R"({"a": "\u12GZ"})", json, error));
  // Truncated at end of input.
  EXPECT_FALSE(parse_flat_json(R"({"a": "\u00)", json, error));
}

TEST(FlatJson, MalformedInputFailsWithPosition) {
  FlatJson json;
  std::string error;
  EXPECT_FALSE(parse_flat_json(R"({"a": )", json, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_flat_json(R"({"a": 1} trailing)", json, error));
  EXPECT_FALSE(parse_flat_json("", json, error));
}

// ---- report JSON + round trip ----------------------------------------------

BenchReport sample_report() {
  BenchReport report;
  report.bench = "roundtrip";
  report.mode = "open";
  report.deployment = "router";
  report.clients = 4;
  report.jobs_per_client = 0;
  report.requests_ok = 90;
  report.requests_failed = 1;
  report.warmup_requests = 10;
  report.late_sends = 3;
  report.max_late_ms = 12.5;
  report.offered_rps = 20.0;
  report.achieved_rps = 19.25;
  report.wall_seconds = 4.675;
  report.latency.mean = 3.5;
  report.latency.p50 = 2.0;
  report.latency.p95 = 9.0;
  report.latency.p99 = 14.0;
  report.latency.max = 18.0;
  return report;
}

TEST(Report, JsonRoundTripsThroughFlatJson) {
  BenchReport report = sample_report();
  FlatJson json;
  std::string error;
  ASSERT_TRUE(parse_flat_json(report.to_json(), json, error)) << error;
  EXPECT_EQ(json.string("bench", ""), "roundtrip");
  EXPECT_EQ(json.string("mode", ""), "open");
  EXPECT_EQ(json.string("deployment", ""), "router");
  EXPECT_EQ(json.number("requests_ok", 0.0), 90.0);
  EXPECT_EQ(json.number("warmup_requests", 0.0), 10.0);
  EXPECT_EQ(json.number("late_sends", 0.0), 3.0);
  EXPECT_NEAR(json.number("offered_rps", 0.0), 20.0, 1e-3);
  EXPECT_NEAR(json.number("achieved_rps", 0.0), 19.25, 1e-3);
  // Schema compatibility: achieved throughput rides under both names.
  EXPECT_NEAR(json.number("throughput_rps", 0.0), 19.25, 1e-3);
  EXPECT_NEAR(json.number("latency_ms.p95", 0.0), 9.0, 1e-3);
}

TEST(Report, ExtractBaselineFlatAndRouterSchemas) {
  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parse_flat_json(
      R"({"throughput_rps": 12.5, "latency_ms": {"p50": 1, "p95": 9, "p99": 14}})",
      flat, error))
      << error;
  BaselineStats base = extract_baseline(flat);
  ASSERT_TRUE(base.ok);
  EXPECT_EQ(base.throughput_rps, 12.5);
  EXPECT_EQ(base.p95_ms, 9.0);

  // Router baselines share the flat schema; achieved_rps wins over the
  // throughput_rps alias.
  FlatJson router;
  ASSERT_TRUE(parse_flat_json(
      R"({"deployment": "router", "achieved_rps": 40, "throughput_rps": 1,
          "latency_ms": {"p95": 3, "p99": 5}})",
      router, error))
      << error;
  BaselineStats routed = extract_baseline(router);
  ASSERT_TRUE(routed.ok);
  EXPECT_EQ(routed.throughput_rps, 40.0);
  EXPECT_EQ(routed.p99_ms, 5.0);

  // Figures nested under a sub-object are not a baseline.
  FlatJson nested;
  ASSERT_TRUE(parse_flat_json(
      R"({"sharded": {"throughput_rps": 40, "latency_ms": {"p95": 3, "p99": 5}}})",
      nested, error))
      << error;
  EXPECT_FALSE(extract_baseline(nested).ok);

  FlatJson junk;
  ASSERT_TRUE(parse_flat_json(R"({"unrelated": 1})", junk, error));
  EXPECT_FALSE(extract_baseline(junk).ok);
}

TEST(Report, CompareGateEdges) {
  BaselineStats base;
  base.ok = true;
  base.throughput_rps = 100.0;
  base.p95_ms = 50.0;
  base.p99_ms = 80.0;

  BenchReport current = sample_report();
  current.achieved_rps = 100.0;
  current.latency.p95 = 50.0;
  current.latency.p99 = 80.0;
  EXPECT_TRUE(compare_to_baseline(current, base, 0.25).pass);

  // Exactly at the limit passes (floor/ceiling, not strict bound).
  current.achieved_rps = 75.0;
  current.latency.p95 = 50.0 * 1.25 + kCompareLatencySlackMs;
  EXPECT_TRUE(compare_to_baseline(current, base, 0.25).pass);

  // A hair past either limit fails, and the verdict names the check.
  current.achieved_rps = 74.9;
  CompareResult slow = compare_to_baseline(current, base, 0.25);
  EXPECT_FALSE(slow.pass);
  EXPECT_NE(slow.describe().find("throughput_rps"), std::string::npos);

  current.achieved_rps = 100.0;
  current.latency.p95 = 50.0 * 1.25 + kCompareLatencySlackMs + 0.1;
  EXPECT_FALSE(compare_to_baseline(current, base, 0.25).pass);
}

TEST(Report, CompareSlackProtectsTinyBaselines) {
  // A 0.5 ms baseline with 10% tolerance would allow only 0.55 ms — pure
  // scheduler jitter. The absolute slack keeps the gate meaningful.
  BaselineStats base;
  base.ok = true;
  base.throughput_rps = 1000.0;
  base.p95_ms = 0.5;
  base.p99_ms = 0.8;

  BenchReport current = sample_report();
  current.achieved_rps = 1000.0;
  current.latency.p95 = 0.5 * 1.1 + 1.9;  // inside the 2 ms slack
  current.latency.p99 = 0.8;
  EXPECT_TRUE(compare_to_baseline(current, base, 0.1).pass);
}

// ---- SLO budgets -----------------------------------------------------------

TEST(Slo, BoundaryValuesPass) {
  SloBudget budget;
  budget.p95_ms = 9.0;
  budget.min_rps = 19.25;
  budget.max_error_rate = 1.0 / 91.0;

  BenchReport report = sample_report();  // p95 = 9.0, achieved = 19.25,
                                         // errors 1 of 91
  SloVerdict verdict = evaluate_slo(budget, report);
  EXPECT_TRUE(verdict.pass) << verdict.describe();
  EXPECT_EQ(verdict.checks.size(), 3u);  // only the set budgets appear
}

TEST(Slo, EachBudgetFailsIndependently) {
  BenchReport report = sample_report();

  SloBudget p95_only;
  p95_only.p95_ms = 8.9;  // report has 9.0
  SloVerdict verdict = evaluate_slo(p95_only, report);
  EXPECT_FALSE(verdict.pass);
  ASSERT_EQ(verdict.checks.size(), 1u);
  EXPECT_EQ(verdict.checks[0].name, "p95_ms");

  SloBudget rps_only;
  rps_only.min_rps = 19.3;  // report achieved 19.25
  EXPECT_FALSE(evaluate_slo(rps_only, report).pass);

  SloBudget zero_errors;
  zero_errors.max_error_rate = 0.0;  // report has 1 failure
  EXPECT_FALSE(evaluate_slo(zero_errors, report).pass);
}

TEST(Slo, EmptyBudgetAlwaysPasses) {
  SloVerdict verdict = evaluate_slo(SloBudget{}, sample_report());
  EXPECT_TRUE(verdict.pass);
  EXPECT_TRUE(verdict.checks.empty());
}

TEST(Slo, LoadsBudgetFromJsonFile) {
  std::string path = "test_slo_budget_tmp.json";
  ASSERT_TRUE(write_text_file(
      path,
      R"({"_note": "tight", "p95_ms": 12, "min_rps": 3, "max_error_rate": 0})"));
  SloBudget budget;
  std::string error;
  ASSERT_TRUE(load_slo_budget(path, budget, error)) << error;
  EXPECT_EQ(budget.p95_ms, 12.0);
  EXPECT_EQ(budget.min_rps, 3.0);
  EXPECT_EQ(budget.max_error_rate, 0.0);
  EXPECT_LE(budget.p50_ms, 0.0);  // unset stays unset
  std::remove(path.c_str());

  EXPECT_FALSE(load_slo_budget("does_not_exist.json", budget, error));
  EXPECT_FALSE(error.empty());
}

// Budget validation names the offending field so a CI failure reads as
// "p95_ms: must be a finite number", not a generic parse error.
TEST(Slo, ValidationErrorsNameTheField) {
  SloBudget budget;
  std::string error;

  EXPECT_FALSE(parse_slo_budget(R"({"p95_ms": 12, "wat": 1})", budget, error));
  EXPECT_NE(error.find("wat: unknown budget field"), std::string::npos)
      << error;
  EXPECT_NE(error.find("p50_ms p95_ms p99_ms min_rps max_error_rate"),
            std::string::npos)
      << error;

  EXPECT_FALSE(parse_slo_budget(R"({"p95_ms": "fast"})", budget, error));
  EXPECT_NE(error.find("p95_ms: expected a number, got a string"),
            std::string::npos)
      << error;

  EXPECT_FALSE(parse_slo_budget(R"({"min_rps": -3})", budget, error));
  EXPECT_NE(error.find("min_rps: must not be negative"), std::string::npos)
      << error;

  EXPECT_FALSE(parse_slo_budget(R"({"max_error_rate": 1.5})", budget, error));
  EXPECT_NE(error.find("max_error_rate:"), std::string::npos) << error;

  // Percentile ordering is cross-checked among the fields that are set.
  EXPECT_FALSE(
      parse_slo_budget(R"({"p50_ms": 900, "p95_ms": 100})", budget, error));
  EXPECT_NE(error.find("p50_ms: must not exceed p95_ms"), std::string::npos)
      << error;
  EXPECT_FALSE(
      parse_slo_budget(R"({"p95_ms": 900, "p99_ms": 100})", budget, error));
  EXPECT_NE(error.find("p95_ms: must not exceed p99_ms"), std::string::npos)
      << error;
}

TEST(Slo, ValidationAcceptsPartialBudgetsAndComments) {
  SloBudget budget;
  std::string error;
  // Underscore-prefixed keys are comments; absent fields stay unset.
  ASSERT_TRUE(parse_slo_budget(
      R"({"_note": "partial", "p99_ms": 50})", budget, error))
      << error;
  EXPECT_EQ(budget.p99_ms, 50.0);
  EXPECT_LE(budget.p50_ms, 0.0);
  EXPECT_LE(budget.p95_ms, 0.0);
  EXPECT_LT(budget.max_error_rate, 0.0);

  // p50 <= p99 with p95 absent is still checked — and passes here.
  ASSERT_TRUE(parse_slo_budget(
      R"({"p50_ms": 10, "p99_ms": 50})", budget, error))
      << error;
  EXPECT_FALSE(
      parse_slo_budget(R"({"p50_ms": 90, "p99_ms": 50})", budget, error));
  EXPECT_NE(error.find("p50_ms: must not exceed p99_ms"), std::string::npos)
      << error;

  // The file loader prefixes the path so multi-file CI logs stay readable.
  std::string path = "test_slo_invalid_tmp.json";
  ASSERT_TRUE(write_text_file(path, R"({"p95_ms": "slow"})"));
  EXPECT_FALSE(load_slo_budget(path, budget, error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("p95_ms:"), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cosched
