#include "harness/experiment.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace cosched {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string name = arg.substr(2);
    std::string value;
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    args_.emplace_back(std::move(name), std::move(value));
  }
}

namespace {

/// Parses all of `text` as a T, or exits 2 naming the flag.
template <typename T>
T parse_number_or_exit(const std::string& name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    std::cerr << "--" << name << " expects a number, got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

/// True iff `usage` spells "--<flag>" as a whole token ("--tsdb" is not
/// mentioned by "--tsdb-raw").
bool usage_mentions(const std::string& usage, const std::string& flag) {
  if (flag.empty()) return false;
  const std::string token = "--" + flag;
  for (std::size_t at = usage.find(token); at != std::string::npos;
       at = usage.find(token, at + 1)) {
    std::size_t end = at + token.size();
    if (end == usage.size() ||
        !(std::isalnum(static_cast<unsigned char>(usage[end])) ||
          usage[end] == '-'))
      return true;
  }
  return false;
}

}  // namespace

void ArgParser::enforce_usage(const std::string& usage) const {
  if (has("help")) {
    std::cout << usage;
    std::exit(0);
  }
  for (const auto& [name, value] : args_) {
    if (usage_mentions(usage, name)) continue;
    std::cerr << "unknown flag --" << name << "\n" << usage;
    std::exit(2);
  }
}

bool ArgParser::has(const std::string& name) const {
  for (const auto& [k, v] : args_)
    if (k == name) return true;
  return false;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  for (const auto& [k, v] : args_)
    if (k == name) return v;
  return fallback;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  for (const auto& [k, v] : args_)
    if (k == name && !v.empty())
      return parse_number_or_exit<std::int64_t>(name, v);
  return fallback;
}

Real ArgParser::get_real(const std::string& name, Real fallback) const {
  for (const auto& [k, v] : args_)
    if (k == name && !v.empty()) return parse_number_or_exit<Real>(name, v);
  return fallback;
}

void print_experiment_header(const std::string& artefact,
                             const std::string& description) {
  std::cout << "==============================================================\n"
            << " Reproducing: " << artefact << "\n"
            << " " << description << "\n"
            << "==============================================================\n";
}

bool write_text_file(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  std::ofstream out(path);
  if (out) out << content;
  if (!out) std::cerr << "warning: cannot write " << path << "\n";
  return static_cast<bool>(out);
}

std::string write_csv(const std::string& out_dir, const std::string& name,
                      const TextTable& table) {
  std::string path = out_dir + "/" + name + ".csv";
  if (!write_text_file(path, table.render_csv())) return {};
  std::cout << "[csv] " << path << "\n";
  return path;
}

}  // namespace cosched
