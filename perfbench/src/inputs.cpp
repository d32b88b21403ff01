#include "inputs.hpp"

#include <algorithm>
#include <sstream>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace perfbench {

using fixd::Rng;

const char* to_string(ProtectKind k) {
  switch (k) {
    case ProtectKind::kFaultFree: return "kv-store(fault-free)";
    case ProtectKind::kRepCounter: return "rep-counter";
    case ProtectKind::kElection: return "election";
    case ProtectKind::kKvReorder: return "kv-store(reorder)";
    case ProtectKind::kKvLagDelay: return "kv-lag(delay)";
    case ProtectKind::kElectSplit: return "elect-split(cut)";
    case ProtectKind::kKvLagRestart: return "kv-lag(restart)";
  }
  return "?";
}

namespace {
Rng round_rng(std::uint64_t seed, std::uint64_t round, std::uint64_t salt) {
  return Rng(fixd::hash_combine(fixd::hash_combine(seed, salt), round));
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}
}  // namespace

std::vector<ProtectRun> protect_round(std::uint64_t seed, std::uint64_t round) {
  Rng rng = round_rng(seed, round, 0x9e07);
  std::vector<ProtectRun> runs;
  for (int i = 0; i < kFaultFreePerRound; ++i) {
    runs.push_back({ProtectKind::kFaultFree, 1 + rng.next_below(1u << 20)});
  }
  for (int k = 1; k < kProtectKinds; ++k) {
    runs.push_back({static_cast<ProtectKind>(k), rng.next_u64()});
  }
  shuffle(runs, rng);
  return runs;
}

std::vector<fixd::svc::JobSpec> service_round(std::uint64_t seed,
                                              std::uint64_t round) {
  Rng rng = round_rng(seed, round, 0x5e41);
  const auto job = [&](const char* scenario, std::uint32_t n,
                       std::int32_t version) {
    fixd::svc::JobSpec s;
    s.scenario = scenario;
    s.n = n;
    s.version = version;
    s.order = fixd::mc::SearchOrder::kBfs;
    s.trail_frontier = true;
    return s;
  };
  std::vector<fixd::svc::JobSpec> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(job("two-pc", 5, 2));
  jobs.push_back(job("two-pc", 4, 2));
  jobs.push_back(job("token-ring",
                     3 + static_cast<std::uint32_t>(rng.next_below(3)),
                     1 + static_cast<std::int32_t>(rng.next_below(2))));
  jobs.push_back(job("election",
                     3 + static_cast<std::uint32_t>(rng.next_below(3)),
                     1 + static_cast<std::int32_t>(rng.next_below(2))));
  shuffle(jobs, rng);
  return jobs;
}

std::string spec_key(const fixd::svc::JobSpec& s) {
  std::ostringstream os;
  os << s.scenario << " n=" << s.n << " v=" << s.version
     << " order=" << static_cast<int>(s.order) << " trail=" << s.trail_frontier
     << " workers=" << s.workers << " max_states=" << s.max_states
     << " max_depth=" << s.max_depth << " max_violations=" << s.max_violations
     << " seed=" << s.seed << " ckpt=" << s.checkpoint_states;
  return os.str();
}

std::string describe(const std::string& workload, std::uint64_t seed,
                     std::uint64_t rounds) {
  std::ostringstream os;
  os << workload << " seed=" << seed << "\n";
  if (workload == "protect") {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const ProtectRun& run : protect_round(seed, r)) {
        os << r << " " << to_string(run.kind) << " env=" << run.env << "\n";
      }
    }
  } else if (workload == "service") {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const fixd::svc::JobSpec& s : service_round(seed, r)) {
        os << r << " " << spec_key(s) << "\n";
      }
    }
  } else {
    // investigate: one fixed world, seed-independent by construction.
    os << "two-pc n=6 v=2 total_txns=1 bfs snapshot-frontier\n";
  }
  return os.str();
}

}  // namespace perfbench
