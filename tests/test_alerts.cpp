// AlertEngine: rule-file validation, the inactive → pending → firing →
// resolved state machine, burn-rate semantics and the render surfaces.
// Everything runs on tick(exposition, now) with a synthetic clock. The
// two text parsers the engine trusts (rule files, Prometheus expositions)
// also get a seeded mutation sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/alerts.hpp"
#include "obs/metrics_registry.hpp"
#include "online/journal.hpp"
#include "util/rng.hpp"

namespace cosched {
namespace {

// ---- rule files ------------------------------------------------------------

TEST(AlertRules, ParsesThresholdAndBurnRate) {
  const std::string text = R"({
    "_note": "comments-by-convention are ignored",
    "rules": [
      {"name": "deep_queue", "kind": "threshold", "severity": "warn",
       "metric": "cosched_depth", "agg": "avg", "window_seconds": 30,
       "op": ">", "threshold": 32, "for_seconds": 2},
      {"name": "latency_burn", "kind": "burn_rate", "severity": "critical",
       "histogram": "cosched_lat_seconds", "budget_ms": 100,
       "objective": 0.9, "fast_window_seconds": 5, "slow_window_seconds": 30,
       "burn_factor": 4}
    ]
  })";
  AlertRuleSet rules;
  std::string error;
  ASSERT_TRUE(parse_alert_rules(text, rules, error)) << error;
  ASSERT_EQ(rules.rules.size(), 2u);
  EXPECT_EQ(rules.rules[0].name, "deep_queue");
  EXPECT_EQ(rules.rules[0].kind, AlertRule::Kind::Threshold);
  EXPECT_EQ(rules.rules[0].agg, AlertAgg::Avg);
  EXPECT_DOUBLE_EQ(rules.rules[0].threshold, 32.0);
  EXPECT_DOUBLE_EQ(rules.rules[0].for_seconds, 2.0);
  EXPECT_EQ(rules.rules[1].kind, AlertRule::Kind::BurnRate);
  EXPECT_EQ(rules.rules[1].severity, AlertSeverity::Critical);
  EXPECT_DOUBLE_EQ(rules.rules[1].budget_ms, 100.0);
  EXPECT_DOUBLE_EQ(rules.rules[1].burn_factor, 4.0);
}

TEST(AlertRules, FieldErrorsNameTheField) {
  AlertRuleSet rules;
  std::string error;

  EXPECT_FALSE(parse_alert_rules(R"({"wat": 1})", rules, error));
  EXPECT_NE(error.find("unknown top-level key 'wat'"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "metric": "m", "threshold": 1,
                     "theshold": 2}]})",
      rules, error));
  EXPECT_NE(error.find("unknown rule field 'theshold'"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"metric": "m", "threshold": 1}]})", rules, error));
  EXPECT_NE(error.find("rules.0.name"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "kind": "sideways"}]})", rules, error));
  EXPECT_NE(error.find("rules.0.kind"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "severity": "mild", "metric": "m",
                     "threshold": 1}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.severity"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(R"({"rules": [{"name": "a"}]})", rules,
                                 error));
  EXPECT_NE(error.find("rules.0.metric"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "metric": "m"}]})", rules, error));
  EXPECT_NE(error.find("rules.0.threshold"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "metric": "m", "threshold": 1,
                     "op": ">="}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.op"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "kind": "burn_rate",
                     "histogram": "h", "objective": 1.5}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.objective"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [{"name": "a", "kind": "burn_rate", "histogram": "h",
                     "fast_window_seconds": 60,
                     "slow_window_seconds": 10}]})",
      rules, error));
  EXPECT_NE(error.find("rules.0.slow_window_seconds"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(
      R"({"rules": [
        {"name": "a", "metric": "m", "threshold": 1},
        {"name": "a", "metric": "m", "threshold": 2}]})",
      rules, error));
  EXPECT_NE(error.find("duplicate rule name 'a'"), std::string::npos);

  EXPECT_FALSE(parse_alert_rules(R"({"_note": "nothing"})", rules, error));
  EXPECT_NE(error.find("no rules found"), std::string::npos);
}

TEST(AlertRules, DefaultsGuardTheRpcLatencyHistogram) {
  AlertRuleSet rules = default_alert_rules(250.0);
  ASSERT_EQ(rules.rules.size(), 2u);
  for (const AlertRule& rule : rules.rules) {
    EXPECT_EQ(rule.kind, AlertRule::Kind::BurnRate);
    EXPECT_EQ(rule.histogram, "cosched_rpc_request_seconds");
    EXPECT_DOUBLE_EQ(rule.budget_ms, 250.0);
  }
  EXPECT_NE(rules.rules[0].name, rules.rules[1].name);
}

// ---- state machine ---------------------------------------------------------

AlertEngineOptions threshold_options() {
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "deep_queue";
  rule.kind = AlertRule::Kind::Threshold;
  rule.severity = AlertSeverity::Critical;
  rule.metric = "cosched_depth";
  rule.agg = AlertAgg::Latest;
  rule.above = true;
  rule.threshold = 5.0;
  rule.for_seconds = 2.0;
  rule.clear_seconds = 2.0;
  rule.resolved_hold_seconds = 5.0;
  options.rules.rules.push_back(rule);
  return options;
}

std::string depth(double value) {
  return "cosched_depth " + format_prometheus_value(value) + "\n";
}

TEST(AlertEngine, FullThresholdLifecycle) {
  AlertEngine engine(threshold_options());
  DecisionJournal journal;
  engine.set_journal(&journal);

  auto state = [&] { return engine.views().at(0).state; };

  ASSERT_TRUE(engine.tick(depth(1.0), 0.0));
  EXPECT_EQ(state(), AlertState::Inactive);

  ASSERT_TRUE(engine.tick(depth(10.0), 1.0));
  EXPECT_EQ(state(), AlertState::Pending);
  ASSERT_TRUE(engine.tick(depth(10.0), 2.0));
  EXPECT_EQ(state(), AlertState::Pending);  // held 1 s of the 2 s for-window

  ASSERT_TRUE(engine.tick(depth(10.0), 3.0));
  EXPECT_EQ(state(), AlertState::Firing);
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_EQ(engine.fired_total(), 1u);
  ASSERT_EQ(engine.firing_rules().size(), 1u);
  EXPECT_EQ(engine.firing_rules()[0], "deep_queue");

  // A blip below threshold must clear for clear_seconds before resolving.
  ASSERT_TRUE(engine.tick(depth(1.0), 4.0));
  EXPECT_EQ(state(), AlertState::Firing);
  ASSERT_TRUE(engine.tick(depth(10.0), 5.0));  // re-breach cancels the clear
  EXPECT_EQ(state(), AlertState::Firing);
  ASSERT_TRUE(engine.tick(depth(1.0), 6.0));
  ASSERT_TRUE(engine.tick(depth(1.0), 7.0));
  EXPECT_EQ(state(), AlertState::Firing);  // clear held only 1 s
  ASSERT_TRUE(engine.tick(depth(1.0), 8.0));
  EXPECT_EQ(state(), AlertState::Resolved);
  EXPECT_EQ(engine.firing_count(), 0u);

  // Resolved rests resolved_hold_seconds, then returns to inactive.
  ASSERT_TRUE(engine.tick(depth(1.0), 12.0));
  EXPECT_EQ(state(), AlertState::Resolved);
  ASSERT_TRUE(engine.tick(depth(1.0), 13.0));
  EXPECT_EQ(state(), AlertState::Inactive);

  // Every transition was journalled as a fleet-level Alert event:
  // pending, firing, resolved, inactive.
  EXPECT_EQ(journal.events_total(JournalEventKind::Alert), 4u);
  std::vector<JournalEvent> events = journal.tail(16);
  ASSERT_EQ(events.size(), 4u);
  for (const JournalEvent& event : events) {
    EXPECT_EQ(event.kind, JournalEventKind::Alert);
    EXPECT_EQ(event.job_id, -1);
    EXPECT_EQ(event.policy, "deep_queue");
    EXPECT_NE(event.trace_id, 0u);
  }
  EXPECT_NE(events[1].detail.find("state=firing"), std::string::npos);

  std::map<std::string, std::uint64_t> counts = engine.transition_counts();
  std::uint64_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  EXPECT_EQ(total, 4u);
}

TEST(AlertEngine, PendingFallsBackWithoutFiring) {
  AlertEngine engine(threshold_options());
  ASSERT_TRUE(engine.tick(depth(10.0), 0.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Pending);
  ASSERT_TRUE(engine.tick(depth(1.0), 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  EXPECT_EQ(engine.fired_total(), 0u);
}

TEST(AlertEngine, NoDataNeverFires) {
  AlertEngine engine(threshold_options());
  ASSERT_TRUE(engine.tick("cosched_other 1\n", 0.0));
  ASSERT_TRUE(engine.tick("cosched_other 1\n", 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
}

TEST(AlertEngine, ZeroForSecondsFiresImmediately) {
  AlertEngineOptions options = threshold_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  ASSERT_TRUE(engine.tick(depth(10.0), 0.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  EXPECT_EQ(engine.fired_total(), 1u);
}

// ---- burn-rate rules -------------------------------------------------------

std::string latency_scrape(double good, double all) {
  std::string text;
  text += "cosched_lat_seconds_bucket{le=\"0.1\"} " +
          format_prometheus_value(good) + "\n";
  text += "cosched_lat_seconds_bucket{le=\"+Inf\"} " +
          format_prometheus_value(all) + "\n";
  return text;
}

TEST(AlertEngine, BurnRateFiresOnBothWindowsAndResolvesWhenTrafficDrains) {
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "latency_burn";
  rule.kind = AlertRule::Kind::BurnRate;
  rule.histogram = "cosched_lat_seconds";
  rule.budget_ms = 100.0;  // good = faster than 0.1 s
  rule.objective = 0.9;    // error budget 0.1
  rule.fast_window_seconds = 2.0;
  rule.slow_window_seconds = 4.0;
  rule.burn_factor = 2.0;
  rule.for_seconds = 0.0;
  rule.clear_seconds = 1.0;
  rule.resolved_hold_seconds = 2.0;
  options.rules.rules.push_back(rule);
  AlertEngine engine(options);

  // Every sample blows the budget: bad_fraction 1.0, burn 10 > factor 2.
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 0.0), 0.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 1.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  EXPECT_NE(engine.views().at(0).detail.find("fast_burn=10"),
            std::string::npos);

  // Traffic stops: zero windowed delta is "no evidence", which both keeps
  // the rule from firing on silence and lets a firing rule resolve. At
  // t=2 the fast window still reaches the t=0 baseline, so the burn only
  // clears at t=3 and the clear must then hold clear_seconds.
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 2.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 3.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Firing);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 4.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Resolved);
  ASSERT_TRUE(engine.tick(latency_scrape(0.0, 10.0), 6.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
}

TEST(AlertEngine, BurnRateNeedsBothWindowsHot) {
  AlertEngineOptions options;
  AlertRule rule;
  rule.name = "latency_burn";
  rule.kind = AlertRule::Kind::BurnRate;
  rule.histogram = "cosched_lat_seconds";
  rule.budget_ms = 100.0;
  rule.objective = 0.9;
  rule.fast_window_seconds = 2.0;
  rule.slow_window_seconds = 20.0;
  rule.burn_factor = 2.0;
  rule.for_seconds = 0.0;
  options.rules.rules.push_back(rule);
  AlertEngine engine(options);

  // A long healthy history, then a 1-second bad burst: the fast window
  // burns hot but the slow window stays diluted below the factor.
  double good = 0.0;
  for (int t = 0; t <= 18; ++t) {
    good += 100.0;
    ASSERT_TRUE(engine.tick(latency_scrape(good, good), t));
    ASSERT_EQ(engine.views().at(0).state, AlertState::Inactive);
  }
  ASSERT_TRUE(engine.tick(latency_scrape(good, good + 100.0), 19.0));
  EXPECT_EQ(engine.views().at(0).state, AlertState::Inactive);
}

// ---- render surfaces -------------------------------------------------------

TEST(AlertRender, TextAndJson) {
  std::vector<AlertView> views;
  AlertView firing;
  firing.rule = "deep_queue";
  firing.state = AlertState::Firing;
  firing.severity = AlertSeverity::Critical;
  firing.value = 12.0;
  firing.threshold = 5.0;
  firing.since_seconds = 3.0;
  firing.detail = "agg=latest";
  views.push_back(firing);
  AlertView shard;
  shard.shard_id = 2;
  shard.rule = "latency_burn";
  shard.state = AlertState::Inactive;
  views.push_back(shard);

  std::string text = render_alerts_text(views, true);
  EXPECT_NE(text.find("alerts: 2 rules, 1 firing"), std::string::npos);
  EXPECT_NE(text.find("rule=deep_queue state=firing severity=critical"),
            std::string::npos);
  EXPECT_NE(text.find("rule=latency_burn shard=2 state=inactive"),
            std::string::npos);
  EXPECT_EQ(render_alerts_text({}, false), "alerts disabled\n");

  std::string json = render_alerts_json(views, true);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"firing\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"deep_queue\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":2"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"firing\""), std::string::npos);
}

TEST(AlertRender, EngineMetricsFamilies) {
  AlertEngineOptions options = threshold_options();
  options.rules.rules[0].for_seconds = 0.0;
  AlertEngine engine(options);
  ASSERT_TRUE(engine.tick(depth(10.0), 0.0));
  std::string text = render_alert_metrics(engine);
  EXPECT_NE(text.find("cosched_alerts_firing 1"), std::string::npos);
  EXPECT_NE(text.find("cosched_alert_transitions_total{rule=\"deep_queue\","
                      "state=\"firing\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cosched_tsdb_series"), std::string::npos);
  std::vector<PrometheusSample> samples;
  EXPECT_TRUE(parse_prometheus_text(text, samples));
}

TEST(AlertState, EnumRoundTrips) {
  for (std::uint8_t raw = 0; raw < kAlertStates; ++raw) {
    AlertState state;
    ASSERT_TRUE(alert_state_from(raw, state));
    EXPECT_EQ(static_cast<std::uint8_t>(state), raw);
  }
  AlertState state;
  EXPECT_FALSE(alert_state_from(kAlertStates, state));
  AlertSeverity severity;
  EXPECT_TRUE(parse_alert_severity("critical", severity));
  EXPECT_FALSE(parse_alert_severity("spicy", severity));
  AlertAgg agg;
  EXPECT_TRUE(parse_alert_agg("p95", agg));
  EXPECT_FALSE(parse_alert_agg("median", agg));
}

// ---- untrusted text: seeded mutation sweep ----------------------------------

/// Feeds `parse` every truncation prefix of `text`, `text` plus a trailing
/// byte, and 400 rounds of 1–4 random byte flips. Each input must be parsed
/// or rejected, never crash; ASan/UBSan watch the reads. Returns how many
/// inputs of the first two kinds were accepted.
template <typename Parse>
int mutation_sweep(const std::string& text, Parse parse) {
  Rng rng(0xC05C4ED7E47ULL);
  int accepted = parse(text + "x") ? 1 : 0;
  for (std::size_t n = 0; n < text.size(); ++n)
    accepted += parse(text.substr(0, n)) ? 1 : 0;
  for (int round = 0; round < 400; ++round) {
    std::string flipped = text;
    for (std::uint64_t f = 0, flips = 1 + rng.uniform(4); f < flips; ++f)
      flipped[rng.uniform(flipped.size())] ^=
          static_cast<char>(1 + rng.uniform(255));
    parse(flipped);  // either answer is fine
  }
  return accepted;
}

TEST(TextMutation, AlertRuleParserRejectsOrParsesEveryMutation) {
  const std::string text =
      R"({"_note": "x", "rules": [{"name": "q", "kind": "threshold",)"
      R"( "severity": "warn", "metric": "cosched_depth", "agg": "p95",)"
      R"( "window_seconds": 30, "op": "<", "threshold": -3.5e1,)"
      R"( "for_seconds": 2, "clear_seconds": 1, "resolved_hold_seconds": 4},)"
      R"( {"name": "burn", "kind": "burn_rate", "severity": "critical",)"
      R"( "histogram": "cosched_lat_seconds", "budget_ms": 100,)"
      R"( "objective": 0.99, "fast_window_seconds": 5,)"
      R"( "slow_window_seconds": 30, "burn_factor": 4}]})";
  auto parse = [](const std::string& input) {
    AlertRuleSet out;
    std::string why;
    return parse_alert_rules(input, out, why);
  };
  ASSERT_TRUE(parse(text));
  // One JSON object: no proper prefix closes it, and nothing may follow.
  EXPECT_EQ(mutation_sweep(text, parse), 0);
}

TEST(TextMutation, PrometheusParserRejectsOrParsesEveryMutation) {
  MetricsRegistry registry;
  registry.counter("cosched_requests_total", "Requests served.").inc(1027);
  registry.gauge("cosched_queue_depth", "Queue depth.").set(3.5);
  HistogramMetric& latency = registry.histogram(
      "cosched_request_seconds", "Request latency.", {0.005, 0.1, 1.0});
  latency.observe(0.0031, 0xab);
  latency.observe(7.0);
  const std::string text = registry.render_prometheus(true);
  ASSERT_NE(text.find("trace_id="), std::string::npos) << text;
  auto parse = [](const std::string& input) {
    std::vector<PrometheusSample> out;
    return parse_prometheus_text(input, out);
  };
  ASSERT_TRUE(parse(text));
  // Line-oriented: a prefix cut at a line end is a valid exposition, but
  // a stray byte after the final newline is a sample without a value.
  EXPECT_GT(mutation_sweep(text, parse), 0);
  EXPECT_FALSE(parse(text + "x"));
}

}  // namespace
}  // namespace cosched
