// perfbench: the repository benchmark. Three workloads drive the library
// through its public entry points only and print every metric by name with
// its unit, ending with one JSON result line:
//
//   submit_replan      one closed-loop RPC stream into an embedded
//                      CoschedServer (8 machines x 4 cores, HA*, every-4
//                      admission); every fourth submit carries a replan.
//   sharded_readwrite  a read/write mix into an embedded RouterServer over
//                      4 local shards of 2 x 4 cores: an open loop at a
//                      Poisson rate for latency, a closed loop for capacity.
//   batch_optimal      in-process OA*/HA*/PG on seeded quad-core n = 16
//                      batches mixing serial, PE and PC jobs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (setup_s, ops_per_s,
// cpu_ms_per_op, peak_rss_mb) in the JSON line and prints wall-clock
// latency percentiles and placement quality as "info" lines beside them.
// --trace 1 runs the workload untraced, then again with spans recorded
// around each call into a layer, and reports the per-layer metrics (spans
// are written to kSpansDir). README.md in this directory documents every
// metric and workload.
// Exit status: 0 ok, 1 an output check failed, 2 bad arguments or a
// measurement that could not be taken.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "astar/search.hpp"
#include "baseline/pg_greedy.hpp"
#include "bench_lib.hpp"
#include "cache/machine_config.hpp"
#include "comm/comm_topology.hpp"
#include "comm/decomposition.hpp"
#include "core/degradation_models.hpp"
#include "loadgen/shapes.hpp"
#include "obs/http.hpp"
#include "obs/metrics_registry.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace cosched;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where traced runs write their spans, relative to the working directory.
constexpr const char* kSpansDir = ".bench_build/perfbench-spans";

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Virtual arrival rate stamped on submissions (index / 0.5): keeps a
/// 32-core fleet about a third busy with the shape below.
constexpr double kVirtualRate = 0.5;
constexpr std::uint32_t kCores = 4;

/// Inputs used before the measure window come from this fixed seed, so
/// set-up does the same work whatever --seed is.
constexpr std::uint64_t kWarmupSeed = 0x5EEDULL;
/// The paper's uniform job mix: work U[5, 30], miss rates U[0.15, 0.75],
/// 20% PE jobs of 2-4 processes, 32 tenants. `warmup` jobs drawn from
/// kWarmupSeed come first, then `count` measured jobs; arrivals are stamped
/// index / kVirtualRate across both.
///
/// The measured jobs' attributes are the distributions' quantiles rather
/// than draws: work runs evenly over [5, 30], miss rates over [0.15, 0.75]
/// and the sensitivity term over [-0.15, 0.15], and every fifth job is PE
/// with 2, 3, 4 processes in turn. kWarmupSeed deals them into one fixed
/// order; --seed draws the tenants, which pick the shard a job is routed
/// to. The served scheduler does not read tenants, so every seed replans
/// the same trace. Replans are chaotic in their inputs: when --seed also
/// ordered the jobs, ten seeds' submit_replan throughput spread 0.25
/// (IQR / median) while repeats of one seed held within 2%, and ordering
/// them only within each admission group of four still gave 9.2-11.0
/// submits/s over four seeds.
std::vector<TraceJob> make_jobs(std::uint64_t seed, std::int32_t warmup,
                                std::int32_t count) {
  ShapeSpec spec;
  spec.parallel_fraction = 0.2;
  spec.tenants = 32;
  spec.name_prefix = "pb";
  spec.seed = kWarmupSeed;
  std::vector<TraceJob> jobs = build_jobs(spec, warmup);
  spec.name_prefix = "pm";
  spec.seed = seed;
  std::vector<TraceJob> measured = build_jobs(spec, count);
  std::vector<Real> work, miss, noise;
  std::vector<std::int32_t> processes;
  for (std::int32_t i = 0; i < count; ++i) {
    const Real u = (i + 0.5) / static_cast<Real>(count);
    work.push_back(spec.work_lo + (spec.work_hi - spec.work_lo) * u);
    miss.push_back(spec.miss_rate_lo +
                   (spec.miss_rate_hi - spec.miss_rate_lo) * u);
    noise.push_back(-0.15 + 0.3 * u);
    processes.push_back(i % 5 == 0 ? 2 + (i / 5) % 3 : 1);
  }
  Rng rng(kWarmupSeed);
  for (auto* values : {&work, &miss, &noise})
    std::shuffle(values->begin(), values->end(), rng);
  std::shuffle(processes.begin(), processes.end(), rng);
  for (std::size_t i = 0; i < measured.size(); ++i) {
    measured[i].work = work[i];
    measured[i].miss_rate = miss[i];
    // The sensitivity convention of build_jobs: 0.3 + miss rate + noise.
    measured[i].sensitivity = 0.3 + miss[i] + noise[i];
    measured[i].processes = processes[i];
    measured[i].kind =
        processes[i] > 1 ? JobKind::ParallelNoComm : JobKind::Serial;
  }
  jobs.insert(jobs.end(), measured.begin(), measured.end());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].arrival_time = static_cast<Real>(i) / kVirtualRate;
  return jobs;
}

OnlineSchedulerOptions scheduler_options(std::int32_t machines) {
  OnlineSchedulerOptions o;
  o.cores = kCores;
  o.machines = machines;
  o.solver = OnlineSolverKind::HAStar;
  o.admission.trigger = ReplanTrigger::EveryKArrivals;
  o.admission.every_k = 4;
  o.cache_compaction_jobs = 16;
  o.log_process_finish = false;
  return o;
}

ClientOptions client_options(std::uint16_t port) {
  ClientOptions o;
  o.port = port;
  o.max_attempts = 1;  // every refusal or timeout counts as a failure
  o.request_timeout_seconds = 120.0;
  return o;
}

std::string registry_text() {
  return MetricsRegistry::global().render_prometheus();
}

/// Counter deltas of one Prometheus page between two scrapes.
struct PromDelta {
  std::string before, after;
  double operator()(const std::string& name) const {
    return prom_value(after, name) - prom_value(before, name);
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A figure printed beside the gated metrics: wall-clock latencies and
/// placement quality. Untraced runs print them as "info" lines; traced runs
/// report the latencies as per-layer metrics "bench.<name>".
///
/// They are not end-to-end metrics because they do not hold still from run
/// to run on a shared VM: open-loop sub-millisecond latencies move 2-3x
/// with host load while CPU time per operation moves a few percent, and
/// placement quality on submit_replan is a function of the seed's 240-job
/// trace that varies across seeds far more than any bound allows.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// The exact percentile `p` of `samples`; throws when it is refused.
Figure exact_percentile(const std::string& name,
                        const std::vector<double>& samples, double p,
                        const std::string& what) {
  auto q = percentile(samples, p);
  if (!q)
    throw std::runtime_error(name + ": p" + std::to_string(int(p)) + " of " +
                             std::to_string(samples.size()) + " " + what +
                             " leaves fewer than " +
                             std::to_string(kMinBeyond) + " samples beyond");
  char note[160];
  std::snprintf(note, sizeof(note), "p%g of %zu %s, %zu beyond", p,
                q->samples, what.c_str(), q->beyond);
  return {name, q->value, "ms", note};
}

/// The median over runs of each run's exact percentile `p`; throws when
/// any run's percentile is refused.
Figure median_over_runs(const std::string& name,
                        const std::vector<std::vector<double>>& runs, double p,
                        const std::string& what) {
  std::vector<double> values;
  std::size_t fewest = SIZE_MAX, least_beyond = SIZE_MAX;
  for (const std::vector<double>& samples : runs) {
    Figure one = exact_percentile(name, samples, p, what);
    values.push_back(one.value);
    auto q = percentile(samples, p);
    fewest = std::min(fewest, q->samples);
    least_beyond = std::min(least_beyond, q->beyond);
  }
  char note[200];
  std::snprintf(note, sizeof(note),
                "median over %zu runs of p%g; >= %zu %s and >= %zu beyond "
                "per run",
                runs.size(), p, fewest, what.c_str(), least_beyond);
  return {name, median(values), "ms", note};
}

void report_figures(Report& report, const std::vector<Figure>& figures) {
  for (const Figure& f : figures) report.info(f.name, f.value, f.unit, f.note);
}

double pass_cpu_ms(double cpu_s, std::size_t ops) {
  return ratio(cpu_s * 1e3, static_cast<double>(ops));
}

/// p50 in the per-layer report: 0 when there are no samples.
double p50_or_zero(const std::vector<double>& samples) {
  auto q = percentile(samples, 50.0);
  return q ? q->value : median(samples);
}

void check(Report& report, const std::string& what,
           const std::string& error) {
  if (error.empty())
    report.pass_check(what);
  else
    report.fail_check(what + ": " + error);
}

/// Per-layer metrics every workload prints; a workload overwrites the ones
/// its layers produce and leaves the rest at 0 (no such activity).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"rpc.server_mean_us", "us"},
    {"rpc.wire_p50_us", "us"},
    {"rpc.requests", "count"},
    {"rpc.failed", "count"},
    {"rpc.client_retries", "count"},
    {"shard.submit_p50_us", "us"},
    {"shard.query_p50_us", "us"},
    {"shard.snapshot_p50_us", "us"},
    {"shard.spillovers", "count"},
    {"shard.load_skew", "ratio"},
    {"online.live_submit_p50_us", "us"},
    {"online.live_query_p50_us", "us"},
    {"online.live_query_p99_us", "us"},
    {"online.queue_depth_max", "count"},
    {"online.replans", "count"},
    {"online.replan_p50_ms", "ms"},
    {"online.replan_share", "ratio"},
    {"online.admitted_per_replan", "jobs"},
    {"online.migrations_per_replan", "procs"},
    {"online.mean_queue_wait_s", "virtual_s"},
    {"online.mean_degradation", "eq13"},
    {"vm.alignment_ms_per_replan", "ms"},
    {"astar.search_ms_per_replan", "ms"},
    {"astar.precompute_ms_per_replan", "ms"},
    {"astar.expansions", "count/solve"},
    {"astar.generated", "count/solve"},
    {"astar.heuristic_evals", "count/solve"},
    {"astar.dismissed", "count/solve"},
    {"astar.generated_per_ms", "1/ms"},
    {"astar.visited_ratio", "ratio"},
    {"astar.hastar_ms_per_batch", "ms"},
    {"astar.hastar_gap", "ratio"},
    {"graph.precompute_ms", "ms"},
    {"graph.condensed_skips", "count/solve"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.cache_hit_rate", "ratio"},
    {"core.cache_entries_peak", "count"},
    {"core.cache_evictions", "count"},
    {"core.oracle_calls_per_generated", "ratio"},
    {"core.oracle_ns_per_call", "ns"},
    {"baseline.pg_ms_per_batch", "ms"},
    {"baseline.pg_gap", "ratio"},
    {"bench.p50_ms", "ms"},
    {"bench.tail_ms", "ms"},
    {"bench.side_p50_ms", "ms"},
    {"bench.side_tail_ms", "ms"},
    {"bench.error_rate", "ratio"},
    {"bench.late_send_rate", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.tracer_dropped_events", "count"},
};

/// Per-layer values of one traced run, keyed by kLayerMetrics names.
using Layers = std::map<std::string, double>;

/// The wall-clock latency figures of a traced run's untraced pass, as
/// per-layer metrics.
void layer_figures(Layers& layers, const std::vector<Figure>& figures) {
  for (const Figure& f : figures) layers["bench." + f.name] = f.value;
}

void add_layers(Report& report, const Layers& layers) {
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = layers.find(name);
    report.add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : layers)
    if (std::none_of(kLayerMetrics.begin(), kLayerMetrics.end(),
                     [&](const auto& m) { return m.first == name; }))
      throw std::logic_error("unlisted per-layer metric " + name);
}

void write_spans(const Options& options, const SpanLog& spans) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(kSpansDir, ec);
  const std::string path = std::string(kSpansDir) + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  out << spans.to_json();
  if (out)
    std::cerr << "perfbench: spans written to " << path << "\n";
  else
    std::cerr << "perfbench: could not write " << path << "\n";
}

/// astar.* per solve from the program's search counters.
void add_search_counters(Layers& l, const PromDelta& reg,
                                double search_us) {
  const double searches = reg("cosched_astar_searches_total");
  const double generated = reg("cosched_astar_generated_total");
  const double dismissed = reg("cosched_astar_dismissed_total");
  l["astar.expansions"] = ratio(reg("cosched_astar_expansions_total"), searches);
  l["astar.generated"] = ratio(generated, searches);
  l["astar.heuristic_evals"] =
      ratio(reg("cosched_astar_heuristic_evals_total"), searches);
  l["astar.dismissed"] = ratio(dismissed, searches);
  l["astar.generated_per_ms"] = ratio(generated, search_us / 1e3);
  // The counters carry no visited count: successors that survived
  // dismissal and beam pruning entered the open list.
  l["astar.visited_ratio"] =
      ratio(generated - dismissed - reg("cosched_astar_beam_pruned_total"),
            generated);
}

// ============================================================================
// submit_replan
// ============================================================================

constexpr std::int32_t kReplanMachines = 8;
constexpr std::int32_t kReplanWarmup = 16;
/// Measured submits per second of --seconds. The kReplanPasses served
/// passes and the replay send them six times in all, at ~18 submits/s on a
/// 4-vCPU x86 host at the seed commit. The count is fixed per --seconds so
/// every placement, and the replay digest, repeats from run to run.
constexpr double kReplanSubmitsPerSecond = 6.4;
/// The p95 of the pooled passes keeps 24 samples beyond it.
constexpr std::int32_t kReplanMinSubmits = 96;
/// Served passes of the same submissions per run; a submit's cost is its
/// fastest pass. The host slows down in bursts shorter than a pass, so
/// each further pass gives a replan another chance to run undisturbed.
constexpr int kReplanPasses = 5;

struct ReplanPass {
  double window_s = 0.0;
  std::vector<double> submit_ms;        ///< every measured submit
  std::vector<double> replan_submit_ms; ///< submits answered with a placement
  /// Wall and process CPU time of each measured submit by index; +inf when
  /// it failed.
  std::vector<double> index_ms, index_cpu_s;
  std::uint64_t attempted = 0, failed = 0, retries = 0;
  std::string csv_digest;
  double mean_degradation = 0.0;
  MetricsResponse metrics;
  PromDelta prom, registry;
  std::map<std::string, double> profile;  ///< window delta
  DegradationCache::Stats cache_before, cache_after;
  double cache_entries_peak = 0.0;
};

class ReplanWorkload {
 public:
  ReplanWorkload(const Options& options, Report& report)
      : options_(options),
        report_(report),
        measured_(std::max<std::int32_t>(
            kReplanMinSubmits,
            static_cast<std::int32_t>(
                std::lround(kReplanSubmitsPerSecond * options.seconds)))) {}

  void run() {
    // Each served pass runs on a fresh server right after its set-up; the
    // rest of the kSetupRepeats set-ups follow. Every pass sends the same
    // submissions, so every placement repeats.
    std::vector<double> setups;
    std::vector<ReplanPass> plain;
    // Peak resident set up to the end of the first pass: one server's
    // set-up and run. Later passes and the replay start on a heap the
    // allocator kept from the earlier ones, and stack on top of it.
    double peak_rss = 0.0;
    for (int k = 0; k < kSetupRepeats; ++k) {
      auto start = Clock::now();
      jobs_ = make_jobs(options_.seed, kReplanWarmup, measured_);
      auto server = start_server();
      setups.push_back(seconds_between(start, Clock::now()));
      if (k < kReplanPasses) plain.push_back(measure(*server, nullptr));
      if (k == 0) peak_rss = peak_rss_mb();
      server->stop();
    }
    ReplanPass traced;
    SpanLog spans;
    if (options_.trace) {
      auto server = start_server();
      traced = measure(*server, &spans);
      server->stop();
    }
    // Replay the same submissions in-process: exact replan times and the
    // byte-identical-placement check.
    Replay replay = run_replay(options_.trace ? &spans : nullptr);

    for (const ReplanPass& pass : plain)
      check(report_, "replay digest equals served digest",
            replay.digest == pass.csv_digest
                ? ""
                : "served " + pass.csv_digest + " replayed " + replay.digest);
    if (options_.trace)
      check(report_, "traced pass digest equals replay",
            traced.csv_digest == replay.digest ? "" : "traced " +
                                                          traced.csv_digest);
    std::cout << "deterministic_csv digest " << replay.digest << "\n";

    ReplanPass pooled;  // every pass's samples, for the latency figures
    for (const ReplanPass& pass : plain) {
      pooled.submit_ms.insert(pooled.submit_ms.end(), pass.submit_ms.begin(),
                              pass.submit_ms.end());
      pooled.replan_submit_ms.insert(pooled.replan_submit_ms.end(),
                                     pass.replan_submit_ms.begin(),
                                     pass.replan_submit_ms.end());
    }
    if (options_.trace) {
      report_.attempted = traced.attempted;
      report_.failed = traced.failed;
      add_layers(report_, layers(pooled, traced, replay, spans));
      write_spans(options_, spans);
      return;
    }
    // A submit's cost is its fastest pass: the work is the same in every
    // pass, so slower passes measure interference from the rest of the host.
    double wall_s = 0.0, cpu_s = 0.0;
    std::size_t ok = 0;
    for (std::int32_t i = 0; i < measured_; ++i) {
      double ms = HUGE_VAL, cpu = HUGE_VAL;
      for (const ReplanPass& pass : plain) {
        ms = std::min(ms, pass.index_ms[static_cast<std::size_t>(i)]);
        cpu = std::min(cpu, pass.index_cpu_s[static_cast<std::size_t>(i)]);
      }
      if (!std::isfinite(ms)) continue;
      wall_s += ms / 1e3;
      cpu_s += cpu;
      ++ok;
    }
    for (const ReplanPass& pass : plain) {
      report_.attempted += pass.attempted;
      report_.failed += pass.failed;
    }
    const std::string fastest = std::to_string(measured_) +
                                " submits, each at its fastest of " +
                                std::to_string(kReplanPasses) + " passes";
    report_.add("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) + " set-ups");
    report_.add("ops_per_s", static_cast<double>(ok) / wall_s, "1/s",
                "submits, " + fastest);
    report_.add("cpu_ms_per_op", pass_cpu_ms(cpu_s, ok), "ms",
                "process CPU time per submit, all threads, " + fastest);
    report_.add("peak_rss_mb", peak_rss, "MiB", "up to the end of pass 1");
    report_figures(report_, latency_figures(pooled));
    report_.info("mean_degradation", plain.front().mean_degradation, "eq13",
                 "running_mean_degradation after drain");
  }

 private:
  /// Submit latency, all submits and those answered with a placement.
  static std::vector<Figure> latency_figures(const ReplanPass& pass) {
    return {exact_percentile("p50_ms", pass.submit_ms, 50, "submits"),
            exact_percentile("tail_ms", pass.submit_ms, 95, "submits"),
            exact_percentile("side_p50_ms", pass.replan_submit_ms, 50,
                             "replanning submits"),
            exact_percentile("side_tail_ms", pass.replan_submit_ms, 75,
                             "replanning submits")};
  }

  struct Replay {
    std::string digest;
    std::vector<ReplanRecord> records;
    std::vector<double> submit_us;  ///< in-process submit+pump, measured part
  };

  std::unique_ptr<CoschedServer> start_server() {
    ServerOptions o;
    o.worker_threads = 2;
    o.request_deadline_seconds = 300.0;
    o.service.wall_clock = false;
    o.service.scheduler = scheduler_options(kReplanMachines);
    auto server = std::make_unique<CoschedServer>(o);
    std::string error;
    if (!server->start(error))
      throw std::runtime_error("server start: " + error);
    CoschedClient client(client_options(server->port()));
    for (std::int32_t i = 0; i < kReplanWarmup; ++i) {
      SubmitJobResponse reply;
      RpcError e = client.submit_job(jobs_[static_cast<std::size_t>(i)], reply);
      if (!e.ok()) throw std::runtime_error("warm-up submit: " + e.describe());
    }
    return server;
  }

  ReplanPass measure(CoschedServer& server, SpanLog* spans) {
    ReplanPass pass;
    const std::string host = "127.0.0.1";
    auto scrape = [&] { return http_get(host, server.http_port(), "/metrics"); };
    auto profile = [&] {
      return parse_collapsed(
          http_get(host, server.http_port(), "/debug/profile"));
    };
    const DegradationCache& cache = server.service().oracle_cache();
    CoschedClient client(client_options(server.port()));
    pass.prom.before = scrape();
    pass.registry.before = registry_text();
    auto profile_before = profile();
    pass.cache_before = cache.stats();

    auto t0 = Clock::now();
    pass.index_ms.assign(static_cast<std::size_t>(measured_), HUGE_VAL);
    pass.index_cpu_s.assign(static_cast<std::size_t>(measured_), HUGE_VAL);
    for (std::int32_t i = kReplanWarmup; i < kReplanWarmup + measured_; ++i) {
      const double cpu_before = process_cpu_seconds();
      ScopedSpan span(spans, "rpc.client.submit", i);
      SubmitJobResponse reply;
      auto begin = Clock::now();
      RpcError e = client.submit_job(jobs_[static_cast<std::size_t>(i)], reply);
      double ms = seconds_between(begin, Clock::now()) * 1e3;
      const double cpu_s = process_cpu_seconds() - cpu_before;
      ++pass.attempted;
      pass.retries += static_cast<std::uint64_t>(e.attempts - 1);
      if (!e.ok()) {
        ++pass.failed;
        std::cerr << "perfbench: submit failed: " << e.describe() << "\n";
        continue;
      }
      pass.submit_ms.push_back(ms);
      pass.index_ms[static_cast<std::size_t>(i - kReplanWarmup)] = ms;
      pass.index_cpu_s[static_cast<std::size_t>(i - kReplanWarmup)] = cpu_s;
      if (reply.status.admit_time >= 0.0) pass.replan_submit_ms.push_back(ms);
      if (spans)
        pass.cache_entries_peak = std::max<double>(
            pass.cache_entries_peak, static_cast<double>(cache.stats().entries));
    }
    pass.window_s = seconds_between(t0, Clock::now());

    ServiceSnapshot live;
    RpcError e = client.query_snapshot(live);
    check(report_, "no machine above u processes (end of window)",
          e.ok() ? check_machine_capacity(live, kCores) : e.describe());
    DrainResponse drained;
    e = client.drain(drained);
    if (!e.ok()) throw std::runtime_error("drain: " + e.describe());
    pass.cache_after = cache.stats();
    pass.prom.after = scrape();
    pass.registry.after = registry_text();
    pass.profile = profile_delta(profile_before, profile());

    e = client.get_metrics(pass.metrics);
    if (!e.ok()) throw std::runtime_error("get_metrics: " + e.describe());
    check(report_, "completions equal accepted submits",
          check_completions(kReplanWarmup + pass.submit_ms.size(),
                            drained.completions));
    // Client-side count: warm-up, the measured submits, snapshot, drain.
    check(report_, "server-counted requests equal client-counted",
          check_request_count(
              pass.metrics.rpc_requests_ok + pass.metrics.rpc_requests_failed,
              kReplanWarmup + pass.attempted + 2));
    pass.csv_digest = digest(pass.metrics.deterministic_csv);
    pass.mean_degradation = pass.metrics.running_mean_degradation;

    std::string missing;
    for (std::int64_t id = 0; id < kReplanWarmup + measured_; ++id) {
      JobStatusResponse status;
      e = client.query_job_status(id, status);
      if (!e.ok() || !status.found || status.status.phase != JobPhase::Finished)
        missing = "job " + std::to_string(id) + " not found finished";
    }
    check(report_, "every issued id reads back found", missing);
    ServiceSnapshot final_snapshot;
    e = client.query_snapshot(final_snapshot);
    check(report_, "no machine above u processes (after drain)",
          e.ok() ? check_machine_capacity(final_snapshot, kCores)
                 : e.describe());
    return pass;
  }

  Replay run_replay(SpanLog* spans) {
    Replay replay;
    OnlineScheduler scheduler(scheduler_options(kReplanMachines));
    scheduler.begin();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      auto begin = Clock::now();
      std::int64_t id = scheduler.submit(jobs_[i]);
      scheduler.pump(scheduler.job_status(id).arrival_time);
      auto end = Clock::now();
      if (i >= static_cast<std::size_t>(kReplanWarmup)) {
        replay.submit_us.push_back(seconds_between(begin, end) * 1e6);
        if (spans)
          spans->add("online.scheduler.submit", static_cast<std::int64_t>(i),
                     begin, end);
      }
    }
    scheduler.finish();
    replay.digest = digest(scheduler.metrics().render_deterministic_csv());
    replay.records = scheduler.metrics().replan_records();
    return replay;
  }

  Layers layers(const ReplanPass& plain, const ReplanPass& traced,
                const Replay& replay, const SpanLog& spans) {
    Layers l;
    const PromDelta& prom = traced.prom;
    const double requests = prom("cosched_rpc_request_seconds_count");
    l["rpc.server_mean_us"] =
        ratio(prom("cosched_rpc_request_seconds_sum"), requests) * 1e6;
    l["rpc.wire_p50_us"] = p50_or_zero(spans.durations_us("rpc.client.submit")) -
                           p50_or_zero(replay.submit_us);
    l["rpc.requests"] = prom("cosched_rpc_requests_ok_total") +
                        prom("cosched_rpc_requests_failed_total");
    l["rpc.failed"] = prom("cosched_rpc_requests_failed_total");
    l["rpc.client_retries"] = static_cast<double>(traced.retries);

    std::vector<double> replan_ms;
    double replan_wall = 0.0, admitted = 0.0, migrations = 0.0;
    for (const ReplanRecord& r : replay.records) {
      replan_ms.push_back(r.solve_wall_seconds * 1e3);
      replan_wall += r.solve_wall_seconds;
      admitted += r.admitted;
      migrations += r.migrations;
    }
    const double replans = static_cast<double>(replay.records.size());
    l["online.replans"] = replans;
    l["online.replan_p50_ms"] = p50_or_zero(replan_ms);
    // Served replans inside the measure window, from the program's own
    // wall-clock replan histogram.
    const PromDelta& reg = traced.registry;
    const double window_replans = reg("cosched_replan_duration_seconds_count");
    l["online.replan_share"] =
        reg("cosched_replan_duration_seconds_sum") / traced.window_s;
    l["online.admitted_per_replan"] = ratio(admitted, replans);
    l["online.migrations_per_replan"] = ratio(migrations, replans);
    l["online.mean_queue_wait_s"] =
        ratio(reg("cosched_replan_queue_wait_seconds_sum"),
              reg("cosched_replan_queue_wait_seconds_count"));
    l["online.mean_degradation"] = traced.mean_degradation;
    l["vm.alignment_ms_per_replan"] =
        ratio(phase_total_us(traced.profile, "replan.alignment"),
              window_replans) / 1e3;
    const double search_us = phase_total_us(traced.profile, "astar.search");
    l["astar.search_ms_per_replan"] = ratio(search_us, window_replans) / 1e3;
    l["astar.precompute_ms_per_replan"] =
        ratio(phase_total_us(traced.profile, "astar.precompute"),
              window_replans) / 1e3;
    add_search_counters(l, reg, search_us);

    const double hits = static_cast<double>(traced.cache_after.hits -
                                            traced.cache_before.hits);
    const double misses = static_cast<double>(traced.cache_after.misses -
                                              traced.cache_before.misses);
    l["core.cache_hits"] = hits;
    l["core.cache_misses"] = misses;
    l["core.cache_hit_rate"] = ratio(hits, hits + misses);
    l["core.cache_entries_peak"] = traced.cache_entries_peak;
    l["core.cache_evictions"] = static_cast<double>(
        traced.cache_after.evictions - traced.cache_before.evictions);
    l["core.oracle_calls_per_generated"] =
        ratio(hits + misses, reg("cosched_astar_generated_total"));
    l["bench.error_rate"] = ratio(static_cast<double>(traced.failed),
                                  static_cast<double>(traced.attempted));
    l["obs.trace_overhead"] =
        mean(traced.submit_ms) / mean(plain.submit_ms) - 1.0;
    layer_figures(l, latency_figures(plain));
    l["obs.tracer_dropped_events"] = prom("cosched_tracer_dropped_events_total");
    return l;
  }

 private:
  const Options& options_;
  Report& report_;
  const std::int32_t measured_;  ///< submits in the measure window
  std::vector<TraceJob> jobs_;
};

// ============================================================================
// sharded_readwrite
// ============================================================================

constexpr std::size_t kShards = 4;
constexpr std::int32_t kShardMachines = 2;
constexpr std::size_t kGenerators = 4;  // threads and connections (nproc)
constexpr std::int32_t kShardWarmup = 256;
/// Offered rate of the open loop, requests per second. Four closed-loop
/// connections carried the mix at 5,300-13,400/s on a 4-vCPU x86 VM at
/// the seed commit, depending on host load, but an open loop at 6,500/s
/// already fell behind (58% of sends over 1 ms late, p50 2.7 ms), because
/// every sleeping generator pays a wake-up per request. 3,000/s keeps late
/// sends near 5%.
constexpr double kShardRate = 3000.0;
/// Closed-loop requests per second of --seconds, split evenly over the
/// chunks. A chunk sends a fixed count over one connection on a fresh
/// fleet, so every chunk of every run sends the same requests in the same
/// order against the same fleet state. At ~12,000 requests/s the closed
/// loop takes about a fifth of the run.
constexpr double kClosedRate = 2500.0;
constexpr double kLateMs = 1.0;
/// Rounds per untraced invocation. Each round is an open-loop run on a
/// fresh fleet with a window of --seconds / (2 * kShardRounds), then
/// kClosedPerRound closed-loop chunks, each on a fleet of its own, so the
/// chunks are spread over the run.
constexpr int kShardRounds = 4;
constexpr int kClosedPerRound = 4;

/// Open: requests sent at their Poisson due times, timed from when due.
/// Closed: one generator sends its next request as soon as the last one is
/// answered, for a fixed count of requests. One stream keeps the client,
/// a router worker and a shard thread to three busy threads on a 4-vCPU
/// host: with four streams, twelve threads contended for four vCPUs and
/// ten seeds' capacity spread 0.32 (IQR / median).
enum class Loop { Open, Closed };
enum class OpKind { Submit, Query, Snapshot };
/// Which entry point an operation goes through in the traced pass.
enum class Entry { Rpc, Router, Service };

struct ShardOp {
  OpKind kind = OpKind::Submit;
  double due_s = 0.0;        ///< offset from the window start
  std::int32_t job = -1;     ///< index into the job list (submits)
  std::uint64_t pick = 0;    ///< read target draw (queries)
};

struct OpResult {
  bool ok = false;
  bool late = false;
  double latency_ms = 0.0;  ///< from when the op was due
  double cpu_s = 0.0;       ///< process CPU time, all threads, while sent
  Entry entry = Entry::Rpc;
};

struct ShardPass {
  double window_s = 0.0;
  std::vector<OpResult> results;  ///< by plan index
  std::uint64_t attempted = 0, failed = 0, retries = 0, late = 0;
  std::size_t queue_depth_max = 0;
  /// RouterServer request counts of the window, read after the server
  /// stopped: its total less the warm-up and the closing requests.
  std::uint64_t server_requests = 0, server_failed = 0;
  MetricsResponse metrics;
  PromDelta router_page, registry;
  std::map<std::string, double> profile;
  RouterStats stats_before, stats_after;
  DegradationCache::Stats cache_before, cache_after;
  double cache_entries_peak = 0.0;
};

class ShardWorkload {
 public:
  ShardWorkload(const Options& options, Report& report)
      : options_(options),
        report_(report),
        window_s_(options.trace ? options.seconds / 2
                                : options.seconds / (2 * kShardRounds)) {}

  void run() {
    std::vector<double> setups;
    auto set_up = [&] {
      auto start = Clock::now();
      auto fleet = start_fleet();
      setups.push_back(seconds_between(start, Clock::now()));
      return fleet;
    };
    auto open_run = [&](SpanLog* spans) {
      auto fleet = set_up();
      ShardPass pass = drive(*fleet, Loop::Open, open_ops_, spans);
      finish(*fleet, pass);
      return pass;
    };
    if (options_.trace) {
      ShardPass plain = open_run(nullptr);
      SpanLog spans;
      ShardPass traced = open_run(&spans);
      report_.attempted = traced.attempted;
      report_.failed = traced.failed;
      add_layers(report_, layers(plain, traced, spans));
      write_spans(options_, spans);
      return;
    }
    std::vector<ShardPass> open, closed;
    for (int k = 0; k < kShardRounds; ++k) {
      open.push_back(open_run(nullptr));
      for (int j = 0; j < kClosedPerRound; ++j) {
        auto fleet = set_up();
        closed.push_back(drive(*fleet, Loop::Closed, closed_ops_, nullptr));
        finish(*fleet, closed.back());
      }
    }
    // A request's cost is its fastest chunk, for wall and for CPU time:
    // every chunk sends it in the same state, so slower chunks measure
    // interference from the rest of the host.
    double wall_s = 0.0, cpu_s = 0.0;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < closed_ops_; ++i) {
      double ms = HUGE_VAL, cpu = HUGE_VAL;
      for (const ShardPass& pass : closed) {
        const OpResult& r = pass.results[i];
        if (!r.ok) continue;
        ms = std::min(ms, r.latency_ms);
        cpu = std::min(cpu, r.cpu_s);
      }
      if (!std::isfinite(ms)) continue;
      wall_s += ms / 1e3;
      cpu_s += cpu;
      ++ok;
    }
    std::vector<double> degradation;
    std::uint64_t late = 0, sent_open = 0;
    for (const ShardPass& pass : open) {
      late += pass.late;
      sent_open += pass.attempted;
      degradation.push_back(pass.metrics.running_mean_degradation);
    }
    for (const auto* passes : {&open, &closed})
      for (const ShardPass& pass : *passes) {
        report_.attempted += pass.attempted;
        report_.failed += pass.failed;
      }
    const std::string fastest =
        std::to_string(closed_ops_) + " requests over one connection, each "
        "at its fastest of " + std::to_string(closed.size()) + " chunks";
    report_.add("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()) + " set-ups");
    report_.add("ops_per_s", static_cast<double>(ok) / wall_s, "1/s",
                "closed-loop requests, " + fastest);
    report_.add("cpu_ms_per_op", pass_cpu_ms(cpu_s, ok), "ms",
                "process CPU time per closed-loop request, all threads, " +
                    fastest);
    report_.add("peak_rss_mb", peak_rss_mb(), "MiB");
    const std::string runs =
        "median of " + std::to_string(kShardRounds) + " open-loop runs";
    report_figures(report_, latency_figures(open));
    report_.info("mean_degradation", median(degradation), "eq13",
                 "fleet running_mean_degradation after drain, " + runs);
    report_.info("late_send_rate",
                 ratio(static_cast<double>(late),
                       static_cast<double>(sent_open)),
                 "ratio", "open-loop requests sent over 1 ms after due");
  }

 private:
  /// Open-loop submit and point-read latency from when each request was
  /// due, the median over runs of each run's percentile.
  std::vector<Figure> latency_figures(const std::vector<ShardPass>& passes) {
    std::vector<std::vector<double>> submits, queries;
    for (const ShardPass& pass : passes) {
      submits.emplace_back();
      queries.emplace_back();
      for (std::size_t i = 0; i < pass.results.size(); ++i) {
        const OpResult& r = pass.results[i];
        if (!r.ok || r.entry != Entry::Rpc) continue;
        const OpKind kind = ops_[i].kind;
        if (kind == OpKind::Submit) submits.back().push_back(r.latency_ms);
        if (kind == OpKind::Query) queries.back().push_back(r.latency_ms);
      }
    }
    return {median_over_runs("p50_ms", submits, 50, "submits"),
            median_over_runs("tail_ms", submits, 99, "submits"),
            median_over_runs("side_p50_ms", queries, 50, "point reads"),
            median_over_runs("side_tail_ms", queries, 99, "point reads")};
  }

  /// Poisson due times at kShardRate; every 16th op a snapshot fan-in, and
  /// each submit followed by two point reads of earlier ids. The open loop
  /// sends the ops due inside the window; each closed-loop chunk sends the
  /// first closed_ops_ ops, ignoring their due times.
  void plan() {
    ops_.clear();
    open_ops_ = 0;
    Rng rng(options_.seed ^ 0x5eedULL);
    closed_ops_ =
        options_.trace ? std::size_t{0}
                       : static_cast<std::size_t>(
                             kClosedRate * options_.seconds /
                             (kShardRounds * kClosedPerRound));
    double t = 0.0;
    std::int32_t submits = kShardWarmup;
    for (std::size_t i = 0;; ++i) {
      t += -std::log(1.0 - rng.uniform01()) / kShardRate;
      if (t < window_s_) open_ops_ = i + 1;
      if (t >= window_s_ && i >= closed_ops_) break;
      ShardOp op;
      op.due_s = t;
      if (i % 16 == 15)
        op.kind = OpKind::Snapshot;
      else if ((i % 16) % 3 == 0)
        op.kind = OpKind::Submit, op.job = submits++;
      else
        op.kind = OpKind::Query, op.pick = rng.next();
      ops_.push_back(op);
    }
    jobs_ = make_jobs(options_.seed, kShardWarmup, submits - kShardWarmup);
  }

  struct Fleet {
    std::unique_ptr<ShardRouter> router;
    std::unique_ptr<RouterServer> server;
    std::vector<std::int64_t> acked;  ///< global ids accepted so far
    std::mutex mutex;
    std::uint64_t rpc_sent = 0;         ///< window requests sent over RPC
    std::uint64_t service_submits = 0;  ///< accepted straight by a shard
  };

  /// Set-up: input generation, fleet start and warm-up.
  std::unique_ptr<Fleet> start_fleet() {
    plan();
    auto owned = std::make_unique<Fleet>();
    Fleet& fleet = *owned;
    RouterOptions ro;
    ro.shard_timeout_seconds = 300.0;
    fleet.router = std::make_unique<ShardRouter>(ro);
    for (std::size_t s = 0; s < kShards; ++s) {
      LiveServiceOptions service;
      service.wall_clock = false;
      service.scheduler = scheduler_options(kShardMachines);
      fleet.router->add_local_shard(service);
    }
    RouterServerOptions so;
    so.worker_threads = kGenerators;
    so.request_deadline_seconds = 300.0;
    fleet.server = std::make_unique<RouterServer>(*fleet.router, so);
    std::string error;
    if (!fleet.server->start(error))
      throw std::runtime_error("router start: " + error);
    CoschedClient client(client_options(fleet.server->port()));
    for (std::int32_t i = 0; i < kShardWarmup; ++i) {
      SubmitJobResponse reply;
      RpcError e = client.submit_job(jobs_[static_cast<std::size_t>(i)], reply);
      if (!e.ok()) throw std::runtime_error("warm-up submit: " + e.describe());
      fleet.acked.push_back(reply.job_id);
    }
    return owned;
  }

  LiveSchedulerService& service(Fleet& fleet, std::size_t shard) {
    return static_cast<LocalShard&>(fleet.router->shard(shard)).service();
  }

  /// Keeps the first fleet snapshot with a machine above u processes.
  void note_snapshot(Fleet& fleet, const ServiceSnapshot& snapshot) {
    std::string error = check_machine_capacity(snapshot, kCores);
    std::lock_guard<std::mutex> lock(fleet.mutex);
    if (capacity_violation_.empty()) capacity_violation_ = std::move(error);
  }

  /// Runs op `i` through `entry`; fills `r.ok` (and counts a retry).
  void execute(Fleet& fleet, CoschedClient& client, std::size_t i, Entry entry,
               SpanLog* spans, OpResult& r, std::uint64_t* retries = nullptr,
               std::uint64_t* service_submits = nullptr) {
    const ShardOp& op = ops_[i];
    const auto op_id = static_cast<std::int64_t>(i);
    std::string error;
    std::int64_t target = -1;
    if (op.kind == OpKind::Query) {
      std::lock_guard<std::mutex> lock(fleet.mutex);
      target = fleet.acked[op.pick % fleet.acked.size()];
    }
    const TraceJob* job =
        op.job >= 0 ? &jobs_[static_cast<std::size_t>(op.job)] : nullptr;
    std::int64_t new_id = -1;
    auto note_rpc = [&](const RpcError& e) {
      if (retries) *retries += static_cast<std::uint64_t>(e.attempts - 1);
      return e.ok();
    };
    switch (entry) {
      case Entry::Rpc: {
        if (op.kind == OpKind::Submit) {
          ScopedSpan span(spans, "rpc.client.submit", op_id);
          SubmitJobResponse reply;
          r.ok = note_rpc(client.submit_job(*job, reply));
          new_id = reply.job_id;
        } else if (op.kind == OpKind::Query) {
          ScopedSpan span(spans, "rpc.client.query", op_id);
          JobStatusResponse reply;
          r.ok = note_rpc(client.query_job_status(target, reply)) && reply.found;
        } else {
          ScopedSpan span(spans, "rpc.client.snapshot", op_id);
          ServiceSnapshot snapshot;
          r.ok = note_rpc(client.query_snapshot(snapshot));
          if (r.ok) note_snapshot(fleet, snapshot);
        }
        break;
      }
      case Entry::Router: {
        ShardRouter& router = *fleet.router;
        if (op.kind == OpKind::Submit) {
          ScopedSpan span(spans, "shard.submit", op_id);
          SubmitJobResponse reply;
          r.ok = router.submit(*job, reply, error) == RpcStatus::Ok;
          new_id = reply.job_id;
        } else if (op.kind == OpKind::Query) {
          ScopedSpan span(spans, "shard.query", op_id);
          JobStatusResponse reply;
          r.ok = router.job_status(target, reply, error) == RpcStatus::Ok &&
                 reply.found;
        } else {
          ScopedSpan span(spans, "shard.snapshot", op_id);
          ServiceSnapshot snapshot;
          r.ok = router.snapshot(snapshot, error) == RpcStatus::Ok;
          if (r.ok) note_snapshot(fleet, snapshot);
        }
        break;
      }
      case Entry::Service: {
        // One layer below the router: the tenant's ring shard directly;
        // global id = local id * shards + shard.
        if (op.kind == OpKind::Submit) {
          const auto shard =
              static_cast<std::size_t>(fleet.router->ring_shard(job->name));
          ScopedSpan span(spans, "online.live_submit", op_id);
          SubmitOutcome out;
          r.ok = service(fleet, shard).submit(*job, out, 300.0) &&
                 out.error == SubmitError::None;
          new_id = out.job_id * static_cast<std::int64_t>(kShards) +
                   static_cast<std::int64_t>(shard);
          if (r.ok && service_submits) ++*service_submits;
        } else if (op.kind == OpKind::Query) {
          const auto shard = static_cast<std::size_t>(target) % kShards;
          ScopedSpan span(spans, "online.live_query", op_id);
          StatusOutcome out;
          r.ok = service(fleet, shard).job_status(
                     target / static_cast<std::int64_t>(kShards), out, 300.0) &&
                 out.found;
        } else {
          ScopedSpan span(spans, "online.live_snapshot", op_id);
          ServiceSnapshot snapshot;
          r.ok = service(fleet, i / 16 % kShards).snapshot(snapshot, 300.0);
        }
        break;
      }
    }
    if (r.ok && op.kind == OpKind::Submit) {
      std::lock_guard<std::mutex> lock(fleet.mutex);
      fleet.acked.push_back(new_id);
    }
  }

  DegradationCache::Stats cache_stats(Fleet& fleet) {
    DegradationCache::Stats sum;
    for (std::size_t s = 0; s < kShards; ++s) {
      DegradationCache::Stats one = service(fleet, s).oracle_cache().stats();
      sum.hits += one.hits;
      sum.misses += one.misses;
      sum.entries += one.entries;
      sum.evictions += one.evictions;
    }
    return sum;
  }

  /// Sends plan ops [0, count): the open loop through kGenerators
  /// connections, the closed loop through one.
  ShardPass drive(Fleet& fleet, Loop loop, std::size_t count,
                  SpanLog* spans) {
    ShardPass pass;
    const std::string host = "127.0.0.1";
    const std::uint16_t http = fleet.server->http_port();
    pass.router_page.before = http_get(host, http, "/metrics");
    pass.registry.before = registry_text();
    profile_before_ = parse_collapsed(http_get(host, http, "/debug/profile"));
    pass.stats_before = fleet.router->stats();
    pass.cache_before = cache_stats(fleet);
    pass.results.resize(count);

    std::atomic<std::size_t> next{0};
    std::mutex merge;
    auto t0 = Clock::now();
    Clock::time_point last_done = t0;
    std::vector<std::thread> threads;
    const std::size_t generators = loop == Loop::Closed ? 1 : kGenerators;
    for (std::size_t g = 0; g < generators; ++g)
      threads.emplace_back([&] {
        CoschedClient client(client_options(fleet.server->port()));
        std::uint64_t retries = 0, service_submits = 0, late = 0;
        std::size_t depth_max = 0;
        double peak_entries = 0.0;
        Clock::time_point done_at = t0;
        for (std::size_t i; (i = next++) < count;) {
          auto due = Clock::now();
          if (loop == Loop::Open) {
            due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(ops_[i].due_s));
            std::this_thread::sleep_until(due);
          }
          OpResult& r = pass.results[i];
          r.late = seconds_between(due, Clock::now()) * 1e3 > kLateMs;
          late += r.late;
          // Traced pass: the first half all over RPC (comparable with the
          // untraced pass), the second half one layer down in turn.
          if (spans && ops_[i].due_s >= window_s_ / 2)
            r.entry = static_cast<Entry>(i % 3);
          if (spans)
            for (std::size_t s = 0; s < kShards; ++s)
              depth_max = std::max(depth_max, service(fleet, s).queue_depth());
          const double cpu0 = process_cpu_seconds();
          execute(fleet, client, i, r.entry, spans, r, &retries,
                  &service_submits);
          done_at = Clock::now();
          r.cpu_s = process_cpu_seconds() - cpu0;
          r.latency_ms = seconds_between(due, done_at) * 1e3;
          if (spans && ops_[i].kind == OpKind::Submit)
            peak_entries = std::max(
                peak_entries, static_cast<double>(cache_stats(fleet).entries));
        }
        std::lock_guard<std::mutex> lock(merge);
        pass.retries += retries;
        fleet.service_submits += service_submits;
        pass.late += late;
        pass.queue_depth_max = std::max(pass.queue_depth_max, depth_max);
        pass.cache_entries_peak = std::max(pass.cache_entries_peak, peak_entries);
        last_done = std::max(last_done, done_at);
      });
    for (auto& t : threads) t.join();
    pass.window_s = seconds_between(t0, last_done);
    for (const OpResult& r : pass.results) {
      ++pass.attempted;
      if (!r.ok) ++pass.failed;
      if (r.entry == Entry::Rpc) ++fleet.rpc_sent;
    }
    check(report_, "no machine above u processes (window snapshots)",
          capacity_violation_);
    return pass;
  }

  /// Drains the fleet, runs the output checks, stops the server and reads
  /// the program's counters into the fleet's last `pass`.
  void finish(Fleet& fleet, ShardPass& pass) {
    const std::string host = "127.0.0.1";
    const std::uint16_t http = fleet.server->http_port();
    std::uint64_t closing = 0;  // requests sent after the window
    {
      CoschedClient client(client_options(fleet.server->port()));
      DrainResponse drained;
      RpcError e = client.drain(drained);
      ++closing;
      if (!e.ok()) throw std::runtime_error("drain: " + e.describe());
      pass.cache_after = cache_stats(fleet);
      pass.router_page.after = http_get(host, http, "/metrics");
      pass.registry.after = registry_text();
      pass.profile = profile_delta(
          profile_before_,
          parse_collapsed(http_get(host, http, "/debug/profile")));
      pass.stats_after = fleet.router->stats();

      e = client.get_metrics(pass.metrics);
      ++closing;
      if (!e.ok()) throw std::runtime_error("get_metrics: " + e.describe());
      const std::uint64_t accepted = fleet.acked.size();
      check(report_, "completions equal accepted submits",
            check_completions(accepted, drained.completions));
      check(report_, "router fan-in sums hold",
            check_fan_in(pass.metrics, kShards,
                         accepted - fleet.service_submits));

      std::string missing;
      for (std::int64_t id : fleet.acked) {
        JobStatusResponse status;
        e = client.query_job_status(id, status);
        ++closing;
        if (!e.ok() || !status.found ||
            status.status.phase != JobPhase::Finished)
          missing = "job " + std::to_string(id) + " not found finished";
      }
      check(report_, "every issued id reads back found", missing);
      ServiceSnapshot final_snapshot;
      e = client.query_snapshot(final_snapshot);
      ++closing;
      check(report_, "no machine above u processes (after drain)",
            e.ok() ? check_machine_capacity(final_snapshot, kCores)
                   : e.describe());
    }
    // The server counts a request after writing its reply; once stop() has
    // joined its workers every count has landed.
    fleet.server->stop();
    const RouterServerStats served = fleet.server->stats();
    const std::uint64_t total = served.requests_ok + served.requests_failed;
    check(report_, "server-counted requests equal client-counted",
          check_request_count(total, kShardWarmup + fleet.rpc_sent + closing));
    pass.server_requests =
        total - std::min<std::uint64_t>(total, kShardWarmup + closing);
    pass.server_failed = served.requests_failed;
  }

  Layers layers(const ShardPass& plain, const ShardPass& traced,
                const SpanLog& spans) {
    Layers l;
    const PromDelta& page = traced.router_page;
    l["rpc.server_mean_us"] =
        ratio(page("cosched_router_request_seconds_sum"),
              page("cosched_router_request_seconds_count")) * 1e6;
    l["rpc.wire_p50_us"] = p50_or_zero(spans.durations_us("rpc.client.query")) -
                           p50_or_zero(spans.durations_us("shard.query"));
    l["rpc.requests"] = static_cast<double>(traced.server_requests);
    l["rpc.failed"] = static_cast<double>(traced.server_failed);
    l["rpc.client_retries"] = static_cast<double>(traced.retries);
    l["shard.submit_p50_us"] = p50_or_zero(spans.durations_us("shard.submit"));
    l["shard.query_p50_us"] = p50_or_zero(spans.durations_us("shard.query"));
    l["shard.snapshot_p50_us"] =
        p50_or_zero(spans.durations_us("shard.snapshot"));
    l["shard.spillovers"] = static_cast<double>(
        traced.stats_after.spillovers - traced.stats_before.spillovers);
    std::vector<double> routed;
    for (std::size_t s = 0; s < kShards; ++s)
      routed.push_back(static_cast<double>(
          traced.stats_after.per_shard_requests[s] -
          traced.stats_before.per_shard_requests[s]));
    l["shard.load_skew"] =
        ratio(*std::max_element(routed.begin(), routed.end()), mean(routed));
    l["online.live_submit_p50_us"] =
        p50_or_zero(spans.durations_us("online.live_submit"));
    const std::vector<double> live_queries =
        spans.durations_us("online.live_query");
    l["online.live_query_p50_us"] = p50_or_zero(live_queries);
    auto p99 = percentile(live_queries, 99.0);
    l["online.live_query_p99_us"] = p99 ? p99->value : 0.0;
    l["online.queue_depth_max"] = static_cast<double>(traced.queue_depth_max);

    const PromDelta& reg = traced.registry;
    const double replans = reg("cosched_replan_duration_seconds_count");
    l["online.replans"] = replans;
    l["online.replan_share"] =
        reg("cosched_replan_duration_seconds_sum") / traced.window_s;
    l["online.admitted_per_replan"] = ratio(
        static_cast<double>(traced.metrics.admissions),
        static_cast<double>(traced.metrics.replans));
    l["online.migrations_per_replan"] = ratio(
        static_cast<double>(traced.metrics.migrations),
        static_cast<double>(traced.metrics.replans));
    l["online.mean_queue_wait_s"] =
        ratio(reg("cosched_replan_queue_wait_seconds_sum"),
              reg("cosched_replan_queue_wait_seconds_count"));
    l["online.mean_degradation"] = traced.metrics.running_mean_degradation;
    l["vm.alignment_ms_per_replan"] =
        ratio(phase_total_us(traced.profile, "replan.alignment"), replans) / 1e3;
    const double search_us = phase_total_us(traced.profile, "astar.search");
    l["astar.search_ms_per_replan"] = ratio(search_us, replans) / 1e3;
    l["astar.precompute_ms_per_replan"] =
        ratio(phase_total_us(traced.profile, "astar.precompute"), replans) / 1e3;
    add_search_counters(l, reg, search_us);

    const double hits = static_cast<double>(traced.cache_after.hits -
                                            traced.cache_before.hits);
    const double misses = static_cast<double>(traced.cache_after.misses -
                                              traced.cache_before.misses);
    l["core.cache_hits"] = hits;
    l["core.cache_misses"] = misses;
    l["core.cache_hit_rate"] = ratio(hits, hits + misses);
    l["core.cache_entries_peak"] = traced.cache_entries_peak;
    l["core.cache_evictions"] = static_cast<double>(
        traced.cache_after.evictions - traced.cache_before.evictions);
    l["core.oracle_calls_per_generated"] =
        ratio(hits + misses, reg("cosched_astar_generated_total"));
    l["bench.error_rate"] = ratio(static_cast<double>(traced.failed),
                                  static_cast<double>(traced.attempted));
    l["bench.late_send_rate"] = ratio(static_cast<double>(traced.late),
                                      static_cast<double>(traced.attempted));
    // Overhead on equal load: the traced pass's all-RPC first half against
    // the whole untraced pass.
    std::vector<double> traced_ms, plain_ms;
    for (std::size_t i = 0; i < plain.results.size(); ++i) {
      if (plain.results[i].ok) plain_ms.push_back(plain.results[i].latency_ms);
      if (traced.results[i].ok && ops_[i].due_s < window_s_ / 2)
        traced_ms.push_back(traced.results[i].latency_ms);
    }
    l["obs.trace_overhead"] = mean(traced_ms) / mean(plain_ms) - 1.0;
    layer_figures(l, latency_figures({plain}));
    l["obs.tracer_dropped_events"] = reg("cosched_tracer_dropped_events_total");
    return l;
  }

  const Options& options_;
  Report& report_;
  const double window_s_;  ///< one run's measure window
  std::vector<ShardOp> ops_;
  std::size_t open_ops_ = 0;    ///< ops due inside the window
  std::size_t closed_ops_ = 0;  ///< ops of one closed-loop chunk
  std::map<std::string, double> profile_before_;  ///< of the last drive()
  std::vector<TraceJob> jobs_;
  std::string capacity_violation_;
};

// ============================================================================
// batch_optimal
// ============================================================================

constexpr std::int32_t kBatchProcesses = 16;

/// Counts and times every oracle call of a search (traced runs only).
class CountingModel final : public DegradationModel {
 public:
  explicit CountingModel(DegradationModelPtr base) : base_(std::move(base)) {}
  Real degradation(ProcessId i, std::span<const ProcessId> co) const override {
    ++calls_;
    auto start = Clock::now();
    Real d = base_->degradation(i, co);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
               .count();
    return d;
  }
  Real solo_time(ProcessId i) const override { return base_->solo_time(i); }
  Real pressure(ProcessId i) const override { return base_->pressure(i); }
  std::uint64_t calls() const { return calls_; }
  std::int64_t ns() const { return ns_; }

 private:
  DegradationModelPtr base_;
  mutable std::uint64_t calls_ = 0;
  mutable std::int64_t ns_ = 0;
};

/// Jobs per batch: 8 serial jobs, one PC job and one PE job.
constexpr std::size_t kBatchJobs = 10;

/// (miss rate, sensitivity) of `count` jobs: a bimodal miss rate, U[0.15,
/// 0.33] or U[0.57, 0.75] with equal odds, and sensitivity 0.3 + miss rate
/// + U[-0.15, 0.15]. Both are the distributions' quantiles rather than
/// draws, shuffled by `seed`, so every seed's pool holds the same values
/// and differs only in how they are grouped into batches.
std::vector<std::pair<Real, Real>> batch_jobs(std::uint64_t seed,
                                              std::size_t count) {
  std::vector<Real> miss, noise;
  for (std::size_t k = 0; k < count; ++k) {
    const Real u = (static_cast<Real>(k) + 0.5) / static_cast<Real>(count);
    miss.push_back(u < 0.5 ? 0.15 + 0.18 * u / 0.5
                           : 0.57 + 0.18 * (u - 0.5) / 0.5);
    noise.push_back(-0.15 + 0.3 * u);
  }
  Rng rng(seed);
  std::shuffle(miss.begin(), miss.end(), rng);
  std::shuffle(noise.begin(), noise.end(), rng);
  std::vector<std::pair<Real, Real>> jobs;
  for (std::size_t k = 0; k < count; ++k)
    jobs.emplace_back(miss[k], 0.3 + miss[k] + noise[k]);
  return jobs;
}

/// One quad-core batch of n = 16 from kBatchJobs (miss rate, sensitivity)
/// pairs, shaped like the 16-process rows of the paper's Table II: a
/// 4-process PC job (Eq. 9 halo exchange on a 2x2 grid), a 4-process PE job
/// and 8 serial jobs, over the threshold-shaped synthetic contention model.
/// As in build_synthetic_problem, serial jobs are numbered heaviest first,
/// so each graph level is led by the heaviest job left.
Problem make_batch(std::span<const std::pair<Real, Real>> jobs) {
  constexpr std::int32_t pc_size = 4, pe_size = 4;
  std::vector<std::pair<Real, Real>> serial(jobs.begin(), jobs.end() - 2);
  std::sort(serial.begin(), serial.end(), std::greater<>());
  auto parallel = jobs.end() - 2;

  Problem p;
  p.machine = machine_by_cores(kCores);
  std::vector<Real> rates, sens;
  for (std::size_t s = 0; s < serial.size(); ++s) {
    p.batch.add_job("s" + std::to_string(s), JobKind::Serial, 1);
    rates.push_back(serial[s].first);
    sens.push_back(serial[s].second);
  }
  auto topology = std::make_shared<CommTopology>();
  for (auto [kind, size] : {std::pair{JobKind::ParallelComm, pc_size},
                            std::pair{JobKind::ParallelNoComm, pe_size}}) {
    JobId job = p.batch.add_job(kind == JobKind::ParallelComm ? "pc" : "pe",
                                kind, size);
    if (kind == JobKind::ParallelComm)
      topology->attach(job, p.batch.job(job).processes.front(),
                       make_grid_pattern(size, 2, 5.0e7));
    // Workers of one parallel job run the same code on equal shards.
    auto [rate, sen] = *parallel++;
    rates.insert(rates.end(), static_cast<std::size_t>(size), rate);
    sens.insert(sens.end(), static_cast<std::size_t>(size), sen);
  }
  auto contention = std::make_shared<SyntheticDegradationModel>(
      std::move(rates), std::move(sens), 0.45 * (kCores - 1),
      SyntheticLandscape::Threshold);
  p.contention_model = contention;
  p.topology = topology;
  p.full_model = std::make_shared<CommAwareDegradationModel>(
      contention, topology, p.machine.network_bandwidth);
  p.check();
  return p;
}

/// Rounds over the batch pool per pass; a batch's cost is its fastest round.
constexpr int kBatchRounds = 5;
/// Pool batches per second of --seconds. OA* + HA* + PG run ~30-40
/// batches/s on a 4-vCPU x86 host at the seed commit, so the kBatchRounds
/// rounds take about 1.3 times --seconds.
constexpr double kBatchesPerSecond = 10.0;

struct BatchPass {
  double window_s = 0.0;  ///< all rounds
  std::size_t solves = 0;
  /// Per pool batch: wall and process CPU time of its fastest round.
  std::vector<double> batch_s, batch_cpu_s;
  std::vector<double> oastar_ms, hastar_ms, pg_ms;  ///< every solve
  std::vector<double> gap, pg_gap;
  SearchStats oa;  ///< summed over solves
  std::uint64_t oracle_calls = 0;
  std::int64_t oracle_ns = 0;
  double seconds() const {
    double sum = 0.0;
    for (double t : batch_s) sum += t;
    return sum;
  }
};

class BatchWorkload {
 public:
  BatchWorkload(const Options& options, Report& report)
      : options_(options),
        report_(report),
        pool_size_(static_cast<std::size_t>(
            std::max(1L, std::lround(kBatchesPerSecond * options.seconds)))) {}

  void run() {
    BatchPass plain = measure(nullptr);
    SpanLog spans;
    BatchPass traced;
    if (options_.trace) traced = measure(&spans);
    const BatchPass& main = options_.trace ? traced : plain;
    report_.attempted = main.solves;
    report_.failed = 0;
    if (options_.trace) {
      add_layers(report_, layers(plain, traced));
      write_spans(options_, spans);
      return;
    }
    const auto batches = static_cast<double>(pool_size_);
    const std::string fastest =
        std::to_string(pool_size_) + " batches, each at its fastest of " +
        std::to_string(kBatchRounds) + " rounds";
    double cpu_s = 0.0;
    for (double t : main.batch_cpu_s) cpu_s += t;
    report_.add("setup_s", median(setups_), "s",
                "median of " + std::to_string(setups_.size()) + " set-ups");
    report_.add("ops_per_s", batches / main.seconds(), "1/s",
                "batches (OA* + HA* + PG), " + fastest);
    report_.add("cpu_ms_per_op", cpu_s * 1e3 / batches, "ms",
                "process CPU time per batch, " + fastest);
    report_.add("peak_rss_mb", peak_rss_mb(), "MiB");
    report_figures(report_, latency_figures(main));
    report_.info("hastar_gap", mean(main.gap), "ratio",
                 "mean over batches of HA* / OA* objective - 1");
    report_.info("pg_gap", mean(main.pg_gap), "ratio",
                 "mean over batches of PG / OA* objective - 1");
  }

 private:
  /// OA* and HA* solve latency, every solve of every round.
  static std::vector<Figure> latency_figures(const BatchPass& pass) {
    return {exact_percentile("p50_ms", pass.oastar_ms, 50, "OA* solves"),
            exact_percentile("tail_ms", pass.oastar_ms, 95, "OA* solves"),
            exact_percentile("side_p50_ms", pass.hastar_ms, 50, "HA* solves"),
            exact_percentile("side_tail_ms", pass.hastar_ms, 95,
                             "HA* solves")};
  }

  /// Set-up: generates the pool and warms up the solvers.
  void set_up() {
    auto start = Clock::now();
    pool_.clear();
    const auto jobs = batch_jobs(options_.seed, pool_size_ * kBatchJobs);
    for (std::size_t b = 0; b < pool_size_; ++b)
      pool_.push_back(make_batch(
          std::span(jobs).subspan(b * kBatchJobs, kBatchJobs)));
    constexpr std::size_t warm_batches = 8;
    const auto warm = batch_jobs(kWarmupSeed, warm_batches * kBatchJobs);
    for (std::size_t b = 0; b < warm_batches; ++b)
      solve(make_batch(std::span(warm).subspan(b * kBatchJobs, kBatchJobs)),
            nullptr, -1, nullptr);
    setups_.push_back(seconds_between(start, Clock::now()));
  }

  /// Solves one batch three ways and checks the outputs.
  void solve(const Problem& base, BatchPass* pass, std::int64_t op,
             SpanLog* spans) {
    ScopedSpan batch_span(spans, "batch", op);
    const std::int64_t parent = batch_span.index();
    Problem p = base;
    std::shared_ptr<CountingModel> counter;
    if (spans) {
      counter = std::make_shared<CountingModel>(base.full_model);
      p.full_model = counter;
    }
    SearchOptions oa_options;
    oa_options.dismiss = DismissPolicy::ParetoDominance;  // exact with PE/PC
    oa_options.condense = true;
    oa_options.use_comm_model = true;

    auto t0 = Clock::now();
    SearchResult oa = solve_oastar(p, oa_options);
    auto t1 = Clock::now();
    if (spans) spans->add("astar.oastar", op, t0, t1, parent);
    SearchResult ha = solve_hastar(base);
    auto t2 = Clock::now();
    if (spans) spans->add("astar.hastar", op, t1, t2, parent);
    Solution pg = solve_pg_greedy(base);
    auto t3 = Clock::now();
    if (spans) spans->add("baseline.pg", op, t2, t3, parent);

    ScopedSpan eval_span(spans, "core.evaluate", op, parent);
    const std::int32_t n = base.n(), u = base.u();
    std::string error;
    if (!oa.found || !ha.found) error = "search found no schedule";
    for (const Solution* s : {&oa.solution, &ha.solution, &pg})
      if (error.empty()) error = check_partition(*s, n, u);
    double oa_obj = 0.0, ha_obj = 0.0, pg_obj = 0.0;
    if (error.empty()) {
      oa_obj = evaluate_solution(base, oa.solution).total;
      ha_obj = evaluate_solution(base, ha.solution).total;
      pg_obj = evaluate_solution(base, pg).total;
      error = check_bracket(oa_obj, ha_obj, pg_obj);
    }
    if (!error.empty() && first_error_.empty())
      first_error_ = "batch " + std::to_string(op) + ": " + error;
    if (!pass) return;
    pass->oastar_ms.push_back(seconds_between(t0, t1) * 1e3);
    pass->hastar_ms.push_back(seconds_between(t1, t2) * 1e3);
    pass->pg_ms.push_back(seconds_between(t2, t3) * 1e3);
    pass->gap.push_back(oa_obj > 0.0 ? ha_obj / oa_obj - 1.0 : 0.0);
    pass->pg_gap.push_back(oa_obj > 0.0 ? pg_obj / oa_obj - 1.0 : 0.0);
    const SearchStats& s = oa.stats;
    pass->oa.expanded += s.expanded;
    pass->oa.generated += s.generated;
    pass->oa.visited_paths += s.visited_paths;
    pass->oa.dismissed += s.dismissed;
    pass->oa.condensed_skips += s.condensed_skips;
    pass->oa.heuristic_evals += s.heuristic_evals;
    pass->oa.precompute_seconds += s.precompute_seconds;
    pass->oa.search_seconds += s.search_seconds;
    if (counter) {
      pass->oracle_calls += counter->calls();
      pass->oracle_ns += counter->ns();
    }
    ++pass->solves;
  }

  /// kBatchRounds rounds over the pool, each after a fresh set-up, then
  /// the rest of the kSetupRepeats set-ups. A batch's cost is its fastest
  /// round: the work is the same every round, so slower rounds measure
  /// interference from the rest of the host.
  BatchPass measure(SpanLog* spans) {
    BatchPass pass;
    first_error_.clear();
    pass.batch_s.assign(pool_size_, HUGE_VAL);
    pass.batch_cpu_s.assign(pool_size_, HUGE_VAL);
    for (int round = 0; round < kSetupRepeats; ++round) {
      set_up();
      if (round >= kBatchRounds) continue;
      auto t0 = Clock::now();
      for (std::size_t b = 0; b < pool_size_; ++b) {
        const double cpu0 = process_cpu_seconds();
        auto start = Clock::now();
        solve(pool_[b], &pass, static_cast<std::int64_t>(pass.solves), spans);
        pass.batch_s[b] =
            std::min(pass.batch_s[b], seconds_between(start, Clock::now()));
        pass.batch_cpu_s[b] =
            std::min(pass.batch_cpu_s[b], process_cpu_seconds() - cpu0);
      }
      pass.window_s += seconds_between(t0, Clock::now());
    }
    check(report_,
          "every solution partitions n processes into n/u machines; "
          "OA* <= HA* and OA* <= PG",
          first_error_);
    return pass;
  }

  Layers layers(const BatchPass& plain, const BatchPass& traced) {
    Layers l;
    const double solves = static_cast<double>(traced.solves);
    // This path starts no server, router, cache decorator or replan, so
    // the rpc.*, shard.*, online.* and core.cache_* metrics stay at 0 by
    // construction; they are not measured here.
    const SearchStats& s = traced.oa;
    l["astar.expansions"] = ratio(static_cast<double>(s.expanded), solves);
    l["astar.generated"] = ratio(static_cast<double>(s.generated), solves);
    l["astar.heuristic_evals"] =
        ratio(static_cast<double>(s.heuristic_evals), solves);
    l["astar.dismissed"] = ratio(static_cast<double>(s.dismissed), solves);
    l["astar.generated_per_ms"] =
        ratio(static_cast<double>(s.generated), s.search_seconds * 1e3);
    l["astar.visited_ratio"] = ratio(static_cast<double>(s.visited_paths),
                                     static_cast<double>(s.generated));
    l["astar.hastar_ms_per_batch"] = mean(traced.hastar_ms);
    l["astar.hastar_gap"] = mean(traced.gap);
    l["graph.precompute_ms"] = s.precompute_seconds * 1e3 / solves;
    l["graph.condensed_skips"] =
        ratio(static_cast<double>(s.condensed_skips), solves);
    l["core.oracle_calls_per_generated"] =
        ratio(static_cast<double>(traced.oracle_calls),
              static_cast<double>(s.generated));
    l["core.oracle_ns_per_call"] =
        ratio(static_cast<double>(traced.oracle_ns),
              static_cast<double>(traced.oracle_calls));
    l["baseline.pg_ms_per_batch"] = mean(traced.pg_ms);
    l["baseline.pg_gap"] = mean(traced.pg_gap);
    l["obs.trace_overhead"] = traced.seconds() / plain.seconds() - 1.0;
    layer_figures(l, latency_figures(plain));
    return l;
  }

  const Options& options_;
  Report& report_;
  const std::size_t pool_size_;
  std::vector<Problem> pool_;
  std::vector<double> setups_;
  std::string first_error_;
};

// ============================================================================

bool parse_args(int argc, char** argv, Options& o, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload")
        o.workload = value();
      else if (flag == "--seed")
        o.seed = std::stoull(value());
      else if (flag == "--seconds")
        o.seconds = std::stod(value());
      else if (flag == "--trace")
        o.trace = std::stoi(value()) != 0;
      else
        throw std::invalid_argument("unknown flag " + flag);
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  }
  if (o.workload != "submit_replan" && o.workload != "sharded_readwrite" &&
      o.workload != "batch_optimal") {
    error = "--workload must be submit_replan, sharded_readwrite or "
            "batch_optimal";
    return false;
  }
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) {
    error = "--seconds must be in (0, 120]";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  Report report;
  try {
    if (options.workload == "submit_replan") {
      ReplanWorkload(options, report).run();
    } else if (options.workload == "sharded_readwrite") {
      ShardWorkload(options, report).run();
    } else {
      BatchWorkload(options, report).run();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::cout << report.render() << std::flush;
  return report.correct() ? 0 : 1;
}
