#include "bench_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

std::optional<Percentile> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 100.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  Percentile out;
  out.value = samples[rank - 1];
  out.samples = n;
  out.beyond = n - rank;
  if (out.beyond < kMinBeyond) return std::nullopt;
  return out;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- the report ------------------------------------------------------------

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string format_number(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (!((first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') ||
        (first >= '0' && first <= '9')))
    return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  insert(name, value, unit, note, true);
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  insert(name, value, unit, note, false);
}

void Report::insert(const std::string& name, double value,
                    const std::string& unit, const std::string& note,
                    bool in_json) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name: " + name);
  if (!valid_unit(unit)) throw std::invalid_argument("bad unit: " + unit);
  if (has(name)) throw std::invalid_argument("duplicate metric: " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for " + name);
  entries_.push_back({name, value, unit, note, in_json});
}

void Report::fail_check(const std::string& what) {
  failed_checks_.push_back(what);
}

void Report::pass_check(const std::string& what) {
  passed_checks_.push_back(what);
}

bool Report::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::string Report::render() const {
  std::ostringstream out;
  for (const std::string& check : passed_checks_)
    out << "check ok    " << check << "\n";
  for (const std::string& check : failed_checks_)
    out << "check FAIL  " << check << "\n";
  out << "attempted " << attempted << " failed " << failed << "\n";
  for (const Entry& e : entries_) {
    out << (e.in_json ? "" : "info ") << e.name << " "
        << format_number(e.value) << " " << e.unit;
    if (!e.note.empty()) out << "  (" << e.note << ")";
    out << "\n";
  }
  out << render_json() << "\n";
  return out.str();
}

std::string Report::render_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.in_json) continue;
    if (!first) out += ", ";
    first = false;
    out += json_string(e.name) + ": {\"value\": " + format_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}}";
}

// ---- spans -----------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int64_t SpanLog::open(const std::string& name, std::int64_t op,
                           std::int64_t parent) {
  Span span{name, now_ns(), -1, parent, op};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::int64_t SpanLog::add(const std::string& name, std::int64_t op,
                          Clock::time_point start, Clock::time_point end,
                          std::int64_t parent) {
  auto since = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, since(start), since(end), parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns >= s.start_ns)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

std::vector<double> self_times_ns(const std::vector<SpanLog::Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanLog::Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(std::max<std::int64_t>(hi - lo, 0) - covered);
  }
  return self;
}

std::map<std::string, SpanLog::Summary> SpanLog::summarize() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_ns(all);
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Summary& s = out[all[i].name];
    ++s.count;
    s.total_us += static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e3;
    s.self_us += self[i] / 1e3;
  }
  return out;
}

std::string SpanLog::to_json() const {
  std::ostringstream out;
  out << "{\"spans\": [";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i
        << ", \"name\": " << json_string(s.name) << ", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "],\n\"summary\": {";
  bool first = true;
  for (const auto& [name, s] : summarize()) {
    out << (first ? "\n" : ",\n") << json_string(name)
        << ": {\"count\": " << s.count
        << ", \"total_us\": " << format_number(s.total_us)
        << ", \"self_us\": " << format_number(s.self_us) << "}";
    first = false;
  }
  out << "}}\n";
  return out.str();
}

// ---- output checks ---------------------------------------------------------

std::string check_machine_capacity(const cosched::ServiceSnapshot& snapshot,
                                   std::uint32_t cores) {
  for (std::size_t m = 0; m < snapshot.machines.size(); ++m)
    if (snapshot.machines[m].size() > cores)
      return "machine " + std::to_string(m) + " hosts " +
             std::to_string(snapshot.machines[m].size()) +
             " processes on " + std::to_string(cores) + " cores";
  return "";
}

std::string check_completions(std::uint64_t accepted,
                              std::uint64_t completions) {
  if (accepted == completions) return "";
  return std::to_string(accepted) + " accepted submits but " +
         std::to_string(completions) + " completions after drain";
}

std::string check_fan_in(const cosched::MetricsResponse& metrics,
                         std::size_t shards, std::uint64_t routed_submits) {
  if (metrics.shards.size() != shards)
    return std::to_string(metrics.shards.size()) + " shard entries, want " +
           std::to_string(shards);
  cosched::ShardMetricsEntry sum;
  for (const cosched::ShardMetricsEntry& e : metrics.shards) {
    sum.requests += e.requests;
    sum.arrivals += e.arrivals;
    sum.admissions += e.admissions;
    sum.completions += e.completions;
    sum.replans += e.replans;
    sum.migrations += e.migrations;
  }
  if (sum.arrivals != metrics.arrivals ||
      sum.admissions != metrics.admissions ||
      sum.completions != metrics.completions ||
      sum.replans != metrics.replans || sum.migrations != metrics.migrations)
    return "fleet totals differ from the sum of shard entries";
  if (sum.requests != routed_submits)
    return "shards counted " + std::to_string(sum.requests) +
           " routed submits, the router was sent " +
           std::to_string(routed_submits);
  return "";
}

std::string check_partition(const cosched::Solution& solution, std::int32_t n,
                            std::int32_t u) {
  if (u <= 0 || n % u != 0) return "n is not a multiple of u";
  if (solution.machines.size() != static_cast<std::size_t>(n / u))
    return std::to_string(solution.machines.size()) + " machines, want " +
           std::to_string(n / u);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (const auto& machine : solution.machines) {
    if (machine.size() != static_cast<std::size_t>(u))
      return "a machine holds " + std::to_string(machine.size()) +
             " processes, want " + std::to_string(u);
    for (cosched::ProcessId p : machine) {
      if (p < 0 || p >= n) return "process id " + std::to_string(p) +
                                  " out of range";
      if (seen[static_cast<std::size_t>(p)]++)
        return "process " + std::to_string(p) + " placed twice";
    }
  }
  return "";
}

std::string check_bracket(double oastar, double hastar, double pg) {
  constexpr double kTolerance = 1e-9;
  if (oastar > hastar + kTolerance)
    return "OA* objective " + format_number(oastar) + " above HA* " +
           format_number(hastar);
  if (oastar > pg + kTolerance)
    return "OA* objective " + format_number(oastar) + " above PG " +
           format_number(pg);
  return "";
}

std::string check_request_count(std::uint64_t server, std::uint64_t client) {
  if (server == client) return "";
  return "server counted " + std::to_string(server) +
         " requests, clients sent " + std::to_string(client);
}

// ---- program counters ------------------------------------------------------

double prom_value(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    std::size_t value_at = line.find(' ', line.find('}') == std::string::npos
                                              ? name.size()
                                              : line.find('}'));
    if (value_at == std::string::npos) continue;
    total += std::strtod(line.c_str() + value_at + 1, nullptr);
  }
  return total;
}

std::map<std::string, double> parse_collapsed(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double phase_total_us(const std::map<std::string, double>& profile,
                      const std::string& name) {
  double total = 0.0;
  for (const auto& [path, self_us] : profile) {
    std::size_t begin = 0;
    while (begin <= path.size()) {
      std::size_t end = path.find(';', begin);
      if (end == std::string::npos) end = path.size();
      if (path.compare(begin, end - begin, name) == 0 &&
          end - begin == name.size()) {
        total += self_us;
        break;
      }
      begin = end + 1;
    }
  }
  return total;
}

std::map<std::string, double> profile_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> out = after;
  for (const auto& [path, us] : before) out[path] -= us;
  return out;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

}  // namespace perfbench
