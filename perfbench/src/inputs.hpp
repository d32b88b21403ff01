// Seeded workload inputs. The benchmark draws everything the library sees
// from the workload seed through these generators, and nothing else: the
// same seed gives byte-identical inputs (describe() is what the tests
// compare).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/wire.hpp"

namespace perfbench {

/// The protect workload's run kinds: one fault-free long run of the fixed
/// kv-store and the six fig4 fault scenarios.
enum class ProtectKind : std::uint8_t {
  kFaultFree,
  kRepCounter,
  kElection,
  kKvReorder,
  kKvLagDelay,
  kElectSplit,
  kKvLagRestart,
};
inline constexpr int kProtectKinds = 7;
const char* to_string(ProtectKind k);

struct ProtectRun {
  ProtectKind kind = ProtectKind::kFaultFree;
  /// Picks among the environment seeds the set-up scan found for this kind
  /// (kElection, kKvReorder: env modulo their count); the fault-free run's
  /// world seed.
  std::uint64_t env = 0;
};

/// Environment seeds the set-up scans try per scenario: a fixed range, so
/// set-up does the same work for every workload seed, which only picks
/// among the seeds found.
inline constexpr std::uint64_t kEnvSeedsScanned = 64;

/// Fault-free runs per protect round. With one, forward execution under
/// protection takes about four fifths of a round and the six recoveries
/// the rest, so both show in the round rate.
inline constexpr int kFaultFreePerRound = 1;

/// One round: kFaultFreePerRound fault-free runs and every fault scenario
/// once, in a seeded order, so the mix is fixed per round and only the
/// order and the environments vary with the seed.
std::vector<ProtectRun> protect_round(std::uint64_t seed, std::uint64_t round);

/// One service round: four two-pc n=5 jobs plus one each of two-pc n=4,
/// token-ring and election (size and version drawn), in a seeded order.
/// Four long jobs out of seven keep the median job a two-pc n=5 job, well
/// clear of the client's poll-interval steps.
std::vector<fixd::svc::JobSpec> service_round(std::uint64_t seed,
                                              std::uint64_t round);

/// Canonical text of the first `rounds` rounds of a workload's inputs.
std::string describe(const std::string& workload, std::uint64_t seed,
                     std::uint64_t rounds);

/// A stable key for a job spec (the service check caches references by it).
std::string spec_key(const fixd::svc::JobSpec& s);

}  // namespace perfbench
