// Host speed, sampled while a workload runs.
//
// The benchmark runs on a few vCPUs of a shared host. Co-tenants contend
// for its caches and memory: a memory-bound loop swings by up to 2x from
// one few-hundred-millisecond stretch to the next while a pure compute loop
// stays within 5%, steal time stays near zero, and the mix of fast and
// slow stretches drifts over tens of seconds, so whole 20 s runs of the
// same code differ by 15-25%.
//
// A fixed piece of reference work, owned by the benchmark and independent
// of the library, is timed at operation boundaries all through the timed
// loop, and the end-to-end figures are adjusted by its median slowdown
// against a nominal time, raised to kExponent. A change to the library
// moves the workload's time and not the reference work's, so it shows in
// full.
//
// Why an exponent below 1: the reference work is more memory-bound than
// the workloads and slows more than they do on a contended host, so the
// full ratio over-corrects. Over three sets of ten 30 s runs per
// workload, the interquartile spread of ops_per_s over its median within a
// set (investigate / protect / service), and how far a set's median moved
// against the previous set's:
//   raw     0.22-0.47, 0.12-0.18, 0.08-0.34; medians moved up to 36%
//   ^0.5    0.07-0.11, 0.03-0.08, 0.06-0.17; up to 17%
//   ^0.75   0.04-0.06, 0.05-0.07, 0.05-0.09; up to 10%
//   ^1      0.08-0.14, 0.01-0.16, 0.04-0.12; up to 9%
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace perfbench {

/// The reference work: hash-set inserts, small heap blocks and an ordered
/// map, the mix of the explorer's own hot paths, 7-20 ms on a 2.0 GHz Xeon
/// vCPU depending on contention. Deterministic; returns a checksum of what
/// it built.
std::uint64_t reference_work();

/// Reference work for set-ups made of system calls rather than
/// computation: four rounds of creating and removing a directory pair under
/// `dir`, and of waking a new thread through a socket pair. A daemon start
/// (directories, sockets, threads) follows the host's file-system and
/// scheduler state, which drifts by up to 3x between runs, with a spread
/// of 0.67 over six runs; divided by this reference it spread by 0.04.
/// Returns its wall time in ms.
double syscall_reference_ms(const std::filesystem::path& dir);
/// syscall_reference_ms() on the host the benchmark was sized on.
constexpr double kSyscallNominalMs = 2.0;

class HostSpeed {
 public:
  /// Reference-work time on the host the benchmark was sized on (4-vCPU
  /// Intel Xeon, 2.0 GHz class, gcc 12, Release). Only a scale: adjusted
  /// figures read as if measured on a host running the work this fast.
  static constexpr double kNominalMs = 12.0;
  /// Samples are at least this far apart, so short operations are not
  /// outweighed by the reference work.
  static constexpr double kGapMs = 250.0;
  /// See the note at the top of this file.
  static constexpr double kExponent = 0.75;
  /// Reference-work runs per sample, each recorded: one run jitters by
  /// +-20%, and an investigate run has only one boundary per search.
  static constexpr int kRunsPerSample = 3;

  /// Runs the reference work kRunsPerSample times and records each time.
  /// Returns the median of these runs, in ms.
  double sample();
  /// sample() if kGapMs have passed since the last one (or none was taken).
  void maybe_sample();

  /// Median reference-work time; kNominalMs before the first sample.
  double median_ms() const;
  /// How much slower than nominal the reference work ran.
  double slowdown() const { return median_ms() / kNominalMs; }
  /// The factor the end-to-end figures are adjusted by: a time measured in
  /// the run is divided by it, a rate multiplied by it.
  double adjustment() const { return adjustment_for(median_ms()); }
  /// The adjustment for one reference-work time.
  static double adjustment_for(double reference_ms) {
    return std::pow(reference_ms / kNominalMs, kExponent);
  }
  std::size_t samples() const { return samples_ms_.size(); }
  /// Wall time spent in sample() so far, which loops exclude.
  double spent_s() const { return spent_s_; }

 private:
  std::vector<double> samples_ms_;
  double spent_s_ = 0;
  std::chrono::steady_clock::time_point last_{};
  std::uint64_t checksum_ = 0;  ///< keeps the reference work observable
};

}  // namespace perfbench
