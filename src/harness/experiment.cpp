#include "harness/experiment.hpp"

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

}  // namespace

void ArgParser::exit_on_help(const std::string& usage) const {
  if (!has("help")) return;
  std::cout << usage;
  std::exit(0);
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

std::string write_csv(const std::string& out_dir, const std::string& name,
                      const TextTable& table) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  std::string path = out_dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return {};
  }
  out << table.render_csv();
  std::cout << "[csv] " << path << "\n";
  return path;
}

}  // namespace cosched
