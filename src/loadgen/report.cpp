#include "loadgen/report.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace cosched {

LatencySummary LatencySummary::from(const Histogram& histogram) {
  LatencySummary s;
  s.mean = histogram.mean();
  s.p50 = histogram.quantile(0.5);
  s.p95 = histogram.quantile(0.95);
  s.p99 = histogram.quantile(0.99);
  s.max = histogram.max();
  return s;
}

std::string BenchReport::to_json() const {
  std::ostringstream json;
  json.setf(std::ios::fixed);
  json.precision(4);
  json << "{\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"mode\": \"" << mode << "\",\n"
       << "  \"deployment\": \"" << deployment << "\",\n"
       << "  \"clients\": " << clients << ",\n"
       << "  \"jobs_per_client\": " << jobs_per_client << ",\n"
       << "  \"requests_ok\": " << requests_ok << ",\n"
       << "  \"requests_failed\": " << requests_failed << ",\n"
       << "  \"warmup_requests\": " << warmup_requests << ",\n"
       << "  \"cooldown_requests\": " << cooldown_requests << ",\n"
       << "  \"late_sends\": " << late_sends << ",\n"
       << "  \"max_late_ms\": " << max_late_ms << ",\n"
       << "  \"offered_rps\": " << offered_rps << ",\n"
       << "  \"achieved_rps\": " << achieved_rps << ",\n"
       << "  \"throughput_rps\": " << achieved_rps << ",\n"
       << "  \"wall_seconds\": " << wall_seconds << ",\n"
       << "  \"latency_ms\": {\n"
       << "    \"mean\": " << latency.mean << ",\n"
       << "    \"p50\": " << latency.p50 << ",\n"
       << "    \"p95\": " << latency.p95 << ",\n"
       << "    \"p99\": " << latency.p99 << ",\n"
       << "    \"max\": " << latency.max << "\n"
       << "  }\n"
       << "}\n";
  return json.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

BaselineStats extract_baseline(const FlatJson& json) {
  BaselineStats stats;
  if (!json.has_number("latency_ms.p95")) return stats;
  stats.ok = true;
  stats.throughput_rps =
      json.number("achieved_rps", json.number("throughput_rps", 0.0));
  stats.p50_ms = json.number("latency_ms.p50", 0.0);
  stats.p95_ms = json.number("latency_ms.p95", 0.0);
  stats.p99_ms = json.number("latency_ms.p99", 0.0);
  return stats;
}

std::string CompareResult::describe() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(2);
  for (const CompareCheck& check : checks)
    out << "  " << (check.pass ? "ok  " : "FAIL") << " " << check.name
        << ": current " << check.current << " vs baseline " << check.baseline
        << " (limit " << check.limit << ")\n";
  return out.str();
}

CompareResult compare_to_baseline(const BenchReport& current,
                                  const BaselineStats& baseline,
                                  Real tolerance) {
  COSCHED_EXPECTS(tolerance >= 0.0);
  CompareResult result;
  auto gate = [&result](const std::string& name, Real base, Real value,
                        Real limit, bool is_floor) {
    CompareCheck check;
    check.name = name;
    check.baseline = base;
    check.current = value;
    check.limit = limit;
    check.pass = is_floor ? value >= limit : value <= limit;
    result.pass = result.pass && check.pass;
    result.checks.push_back(std::move(check));
  };
  gate("throughput_rps", baseline.throughput_rps, current.achieved_rps,
       baseline.throughput_rps * (1.0 - tolerance), /*is_floor=*/true);
  gate("latency_p95_ms", baseline.p95_ms, current.latency.p95,
       baseline.p95_ms * (1.0 + tolerance) + kCompareLatencySlackMs,
       /*is_floor=*/false);
  gate("latency_p99_ms", baseline.p99_ms, current.latency.p99,
       baseline.p99_ms * (1.0 + tolerance) + kCompareLatencySlackMs,
       /*is_floor=*/false);
  return result;
}

}  // namespace cosched
