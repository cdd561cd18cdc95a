// Unit tests of the benchmark's own helpers: the percentile support rule,
// the metric name rules, span self time, the counter readers, and each
// output check rejecting a hand-built bad case.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "bench_lib.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, ExactOrderStatistics) {
  auto p50 = percentile(one_to(100), 50);
  ASSERT_TRUE(p50);
  EXPECT_EQ(p50->value, 50.0);
  EXPECT_EQ(p50->samples, 100u);
  EXPECT_EQ(p50->beyond, 50u);
  auto p90 = percentile(one_to(100), 90);
  ASSERT_TRUE(p90);
  EXPECT_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->beyond, 10u);
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6,
                                  15, 11, 14, 12, 13, 20, 19, 18, 17, 16};
  auto median = percentile(shuffled, 50);
  ASSERT_TRUE(median);
  EXPECT_EQ(median->value, 10.0);
}

TEST(Percentile, RefusesFewerThanTenBeyond) {
  EXPECT_FALSE(percentile(one_to(100), 95));  // 5 beyond
  EXPECT_FALSE(percentile(one_to(100), 91));  // 9 beyond
  EXPECT_TRUE(percentile(one_to(200), 95));   // 10 beyond
  EXPECT_FALSE(percentile(one_to(999), 99));  // 9 beyond
  EXPECT_TRUE(percentile(one_to(1000), 99));  // 10 beyond
  EXPECT_FALSE(percentile(one_to(19), 50));   // rank 10, 9 beyond
  EXPECT_FALSE(percentile({}, 50));
  EXPECT_FALSE(percentile(one_to(100), 0));
}

TEST(MetricNames, Rules) {
  EXPECT_TRUE(valid_metric_name("p50_ms"));
  EXPECT_TRUE(valid_metric_name("core.cache_hit_rate"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_hidden"));
  EXPECT_FALSE(valid_metric_name(".dot"));
  EXPECT_FALSE(valid_metric_name("two words"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));

  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("count/solve"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'x')));
}

TEST(Report, RejectsBadMetricsAndRendersOneJsonLine) {
  Report report;
  report.add("p50_ms", 1.25, "ms");
  EXPECT_THROW(report.add("p50_ms", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(report.add("_x", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(report.add("y", 2.0, "m s"), std::invalid_argument);
  EXPECT_THROW(report.add("z", std::nan(""), "ms"), std::invalid_argument);
  report.attempted = 3;
  EXPECT_EQ(report.render_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  report.fail_check("something");
  EXPECT_FALSE(report.correct());
  const std::string text = report.render();
  EXPECT_EQ(text.substr(text.rfind('\n', text.size() - 2) + 1),
            report.render_json() + "\n");
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<SpanLog::Span> spans = {
      {"root", 0, 100, -1, 7},
      {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},   // overlaps a: union 10..50
      {"c", 90, 120, 0, 7},  // clipped to the parent: 90..100
      {"grandchild", 12, 14, 1, 7},
  };
  std::vector<double> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_EQ(self[1], 20.0 - 2.0);
  EXPECT_EQ(self[2], 30.0);
}

TEST(Counters, PrometheusAndCollapsedProfiles) {
  const std::string page =
      "# HELP x_total t\n"
      "x_total 3\n"
      "x_total_more 100\n"
      "h_seconds_sum 1.5\n"
      "h_seconds_count 4\n"
      "r_total{shard=\"0\"} 2\n"
      "r_total{shard=\"1\"} 5\n";
  EXPECT_EQ(prom_value(page, "x_total"), 3.0);
  EXPECT_EQ(prom_value(page, "h_seconds_sum"), 1.5);
  EXPECT_EQ(prom_value(page, "r_total"), 7.0);
  EXPECT_EQ(prom_value(page, "absent"), 0.0);

  auto before = parse_collapsed("a;b 5\na 3\n");
  auto after = parse_collapsed("a;b 9\na 4\nc;b;d 2\n");
  auto delta = profile_delta(before, after);
  EXPECT_EQ(phase_total_us(delta, "b"), 4.0 + 2.0);
  EXPECT_EQ(phase_total_us(delta, "a"), 4.0 + 1.0);
  EXPECT_EQ(phase_total_us(delta, "d"), 2.0);
  EXPECT_EQ(phase_total_us(delta, "ab"), 0.0);
}

TEST(Digest, Fnv1a) {
  EXPECT_EQ(digest(""), "cbf29ce484222325");
  EXPECT_NE(digest("a"), digest("b"));
}

TEST(Checks, MachineAboveCapacityIsRejected) {
  cosched::ServiceSnapshot snapshot;
  snapshot.machines.resize(2);
  snapshot.machines[0].resize(4);
  snapshot.machines[1].resize(3);
  EXPECT_EQ(check_machine_capacity(snapshot, 4), "");
  snapshot.machines[1].resize(5);  // u + 1
  EXPECT_NE(check_machine_capacity(snapshot, 4), "");
}

TEST(Checks, OastarAboveHastarOrPgIsRejected) {
  EXPECT_EQ(check_bracket(1.0, 1.2, 1.5), "");
  EXPECT_EQ(check_bracket(1.0, 1.0 - 5e-10, 1.0), "");  // within 1e-9
  EXPECT_NE(check_bracket(1.3, 1.2, 1.5), "");
  EXPECT_NE(check_bracket(1.3, 1.4, 1.2), "");
}

TEST(Checks, CompletionsDifferentFromSubmitsAreRejected) {
  EXPECT_EQ(check_completions(10, 10), "");
  EXPECT_NE(check_completions(10, 9), "");
  EXPECT_EQ(check_request_count(7, 7), "");
  EXPECT_NE(check_request_count(7, 8), "");
}

TEST(Checks, PartitionMustCoverEveryProcessOnce) {
  cosched::Solution good;
  good.machines = {{0, 1}, {2, 3}};
  EXPECT_EQ(check_partition(good, 4, 2), "");
  cosched::Solution twice = good;
  twice.machines[1][1] = 0;
  EXPECT_NE(check_partition(twice, 4, 2), "");
  cosched::Solution short_machine;
  short_machine.machines = {{0, 1, 2}, {3}};
  EXPECT_NE(check_partition(short_machine, 4, 2), "");
  cosched::Solution out_of_range = good;
  out_of_range.machines[0][0] = 4;
  EXPECT_NE(check_partition(out_of_range, 4, 2), "");
}

TEST(Checks, FanInSumsMustHold) {
  cosched::MetricsResponse m;
  m.shards.resize(2);
  m.shards[0].requests = 3;
  m.shards[0].arrivals = 3;
  m.shards[1].requests = 2;
  m.shards[1].arrivals = 2;
  m.arrivals = 5;
  EXPECT_EQ(check_fan_in(m, 2, 5), "");
  EXPECT_NE(check_fan_in(m, 2, 6), "");  // routed count differs
  EXPECT_NE(check_fan_in(m, 3, 5), "");  // shard entry missing
  m.arrivals = 6;
  EXPECT_NE(check_fan_in(m, 2, 5), "");  // total differs from the sum
}

}  // namespace
}  // namespace perfbench
