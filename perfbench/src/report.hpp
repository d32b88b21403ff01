// A run's outcome: every metric it measured (with unit and the sample count
// behind it), the operation ledger, the output checks, and the machine and
// run metadata. emit() prints a human-readable report, writes the full
// record as JSON under the output directory, and ends stdout with one JSON
// line holding every metric; perfbench/run.py narrows that line to the
// metric lists in BENCHMARK.json.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::filesystem::path out_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value
  std::string note;   ///< how it was measured, tail figures, probe label
};

class Result {
 public:
  void metric(std::string name, double value, std::string unit, std::size_t n,
              std::string note = "");
  /// median -> `<name>` plus a note carrying the supported tail and n.
  void timing(std::string name, const std::vector<double>& samples,
              std::string unit, std::string note = "");
  /// Records an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Free-form report line (printed, and kept in the JSON record).
  void line(std::string text) { lines_.push_back(std::move(text)); }

  OpLedger ops;
  bool correct() const { return errors_.empty(); }

  /// Prints the report and the final JSON line; writes the JSON record.
  /// Returns the process exit code (0 iff every output check passed and no
  /// operation failed).
  int emit(const RunContext& ctx) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> lines_;
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// One-line JSON object with machine and run metadata.
std::string metadata_json(const RunContext& ctx);

/// Shortest round-trip decimal text for a double (JSON-safe: non-finite
/// values become null).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
