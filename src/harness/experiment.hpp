// Shared glue for the bench binaries: a tiny flag parser, experiment
// banners, and CSV output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/table.hpp"

namespace cosched {

/// Minimal "--name value" / "--flag" parser. Unknown flags are ignored
/// unless the binary calls enforce_usage(), so every bench accepts at least
/// --scale and --out-dir. A numeric flag whose value does not parse in full
/// ("abc", "12abc") is a usage error: the getter prints "--<name> expects a
/// number, got '<value>'" and exits 2.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  /// Holds the command line to `usage`: with --help, prints it and exits 0;
  /// otherwise any --flag that `usage` does not mention is a usage error
  /// (prints "unknown flag --<name>" and the usage, exits 2).
  void enforce_usage(const std::string& usage) const;

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  Real get_real(const std::string& name, Real fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Prints the standard banner identifying the paper artefact a bench
/// regenerates.
void print_experiment_header(const std::string& artefact,
                             const std::string& description);

/// Writes `content` to `path`, creating missing parent directories. False
/// (with a stderr warning) on I/O failure. Every report, trace, profile and
/// scraped page a binary drops goes through here.
bool write_text_file(const std::string& path, const std::string& content);

/// Writes `table` as CSV to `<out_dir>/<name>.csv` (no-op with a warning if
/// the directory cannot be written). Returns the path written.
std::string write_csv(const std::string& out_dir, const std::string& name,
                      const TextTable& table);

}  // namespace cosched
