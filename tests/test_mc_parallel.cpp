// Parallel SystemExplorer: differential equivalence against the one-worker
// search, trail replay of parallel-found violations, seeded stress over
// randomized option mixes, and pinned one-worker outputs.
//
// The determinism contract under test (see SysExploreOptions::workers):
// with dedup on, no sleep sets, and budgets that don't truncate, a graph
// search sharded across N workers visits *exactly* the one-worker
// search's canonical-state set, with identical state/transition/
// duplicate counts — and every violation it reports carries a trail that
// re-executes to the same violation on a fresh world (replay_trail).
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>

#include "apps/kv_store.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mc/sysmodel.hpp"

namespace fixd::mc {
namespace {

using apps::KvConfig;
using apps::make_kv_world;
using apps::make_token_ring_world;
using apps::make_two_pc_world;
using apps::TokenRingConfig;
using apps::TwoPcConfig;

struct ModelCase {
  const char* name;
  std::function<std::unique_ptr<rt::World>()> make;
  std::function<void(rt::World&)> installer;
};

/// Small models whose full reachable graphs fit a test budget. A mix of
/// clean and buggy protocols: buggy ones exercise concurrent violation
/// collection (max_violations is effectively unbounded so the searches
/// still run to completion and stay comparable).
std::vector<ModelCase> small_models() {
  std::vector<ModelCase> out;
  out.push_back({"token-ring-v2-n3",
                 [] {
                   TokenRingConfig cfg;
                   cfg.target_rounds = 1;
                   return make_token_ring_world(3, 2, cfg);
                 },
                 apps::install_token_ring_invariants});
  out.push_back({"2pc-v2-n3",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(3, 2, cfg);
                 },
                 apps::install_two_pc_invariants});
  out.push_back({"2pc-v1-n3",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(3, 1, cfg);
                 },
                 apps::install_two_pc_invariants});
  // Large enough (~8k states) that all workers stay busy for a while —
  // the case that exercises sustained stealing and visited-set contention.
  out.push_back({"2pc-v2-n5",
                 [] {
                   TwoPcConfig cfg;
                   cfg.total_txns = 1;
                   return make_two_pc_world(5, 2, cfg);
                 },
                 apps::install_two_pc_invariants});
  out.push_back({"kv-v1-n2",
                 [] {
                   KvConfig cfg;
                   cfg.total_ops = 2;
                   cfg.key_space = 1;
                   rt::WorldOptions opts;
                   opts.net = net::NetworkOptions::reordering();
                   return make_kv_world(2, 1, cfg, opts);
                 },
                 apps::install_kv_invariants});
  return out;
}

SysExploreOptions differential_opts(SearchOrder order, bool trail,
                                    std::size_t workers) {
  SysExploreOptions o;
  o.order = order;
  o.max_states = 400000;
  o.max_depth = 300;  // far beyond these protocols' diameters: no
                      // truncation, so the visited set is order-free
  o.max_violations = ~std::size_t{0};  // never stop early
  o.trail_frontier = trail;
  o.anchor_interval = 4;
  o.workers = workers;
  o.collect_visited = true;
  return o;
}

// ---------------------------------------------------------------------------
// Differential: N workers == one worker
// ---------------------------------------------------------------------------

class ParallelDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(ParallelDifferential, VisitedSetAndCountsMatchSequential) {
  auto [model_idx, order_idx, trail] = GetParam();
  const ModelCase mc = small_models()[model_idx];
  const SearchOrder order = order_idx == 0   ? SearchOrder::kBfs
                            : order_idx == 1 ? SearchOrder::kDfs
                                             : SearchOrder::kPriority;

  auto configure = [&](SysExploreOptions& o) {
    o.install_invariants = mc.installer;
    if (order == SearchOrder::kPriority) {
      // A deterministic, thread-safe heuristic: the sharded best-effort
      // heaps may pop in a different order than the one-worker heap, but
      // a dedup'd exhaustive search must visit the identical set anyway
      // — exactly what this differential pins.
      o.priority = [](const rt::World& world) {
        return static_cast<double>(world.network().pending_count());
      };
    }
  };

  auto w = mc.make();
  auto seq_opts = differential_opts(order, trail, 1);
  configure(seq_opts);
  SystemExplorer seq(*w, seq_opts);
  auto ref = seq.explore();
  ASSERT_FALSE(ref.stats.truncated) << mc.name << ": budget too small";
  ASSERT_GT(ref.stats.states, 1u);
  EXPECT_GT(ref.stats.visited_resident_bytes, 0u);

  for (std::size_t workers : {2u, 4u, 8u}) {
    auto par_opts = differential_opts(order, trail, workers);
    configure(par_opts);
    SystemExplorer par(*w, par_opts);
    auto got = par.explore();
    SCOPED_TRACE(std::string(mc.name) + " workers=" +
                 std::to_string(workers) + (trail ? " trail" : " snap"));
    EXPECT_FALSE(got.stats.truncated);
    EXPECT_EQ(got.stats.states, ref.stats.states);
    EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
    EXPECT_EQ(got.stats.duplicates, ref.stats.duplicates);
    EXPECT_EQ(got.stats.max_depth, ref.stats.max_depth);
    EXPECT_EQ(got.visited, ref.visited);
    EXPECT_EQ(got.stats.workers, workers);
    // Both sides agree on whether the model has a bug at all.
    EXPECT_EQ(got.found_violation(), ref.found_violation());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ParallelDifferential,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(0, 1, 2),
                       ::testing::Bool()));

// Randomized differential: seed-perturbed variants of the kv model (the
// one with a COW heap, so cross-thread page sharing is exercised) must
// also match, loss modeling included.
class RandomizedDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedDifferential, PerturbedKvModelsMatch) {
  Rng rng(GetParam());
  KvConfig cfg;
  cfg.total_ops = 2;
  cfg.key_space = 1 + rng.next_below(2);
  rt::WorldOptions wopts;
  wopts.net = net::NetworkOptions::reordering();
  wopts.seed = 1 + rng.next_u64() % 1000;
  const int version = rng.next_bool(0.5) ? 1 : 2;
  auto w = make_kv_world(2, version, cfg, wopts);

  const SearchOrder order =
      rng.next_bool(0.5) ? SearchOrder::kBfs : SearchOrder::kDfs;
  const bool trail = rng.next_bool(0.5);
  auto seq_opts = differential_opts(order, trail, 1);
  seq_opts.model_message_loss = rng.next_bool(0.5);
  seq_opts.install_invariants = apps::install_kv_invariants;
  SystemExplorer seq(*w, seq_opts);
  auto ref = seq.explore();
  ASSERT_FALSE(ref.stats.truncated);

  auto par_opts = seq_opts;
  par_opts.workers = 2 + rng.next_below(5);
  SystemExplorer par(*w, par_opts);
  auto got = par.explore();
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.visited, ref.visited);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDifferential,
                         ::testing::Values(5, 17, 43, 91));

// ---------------------------------------------------------------------------
// Differential: the enabled-event index changes no visited state set
// ---------------------------------------------------------------------------

// Every model × order × frontier × worker-count combination must visit the
// same canonical state set whether enabled_events() materializes from the
// incremental index or rescans from scratch (World::set_use_enabled_index
// routes it through the uncached oracle; the installer hook reaches every
// scratch/worker world the explorer creates).
TEST(EnabledIndexDifferential, VisitedSetsUnchangedByIndex) {
  const auto models = small_models();
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    const ModelCase& mc = models[mi];
    for (SearchOrder order : {SearchOrder::kBfs, SearchOrder::kDfs}) {
      for (std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE(std::string(mc.name) + " " + to_string(order) +
                     " workers=" + std::to_string(workers));
        auto w = mc.make();
        auto opts = differential_opts(order, /*trail=*/false, workers);
        // The reordering kv model also exercises the environment-model
        // action enumeration (drop actions come off the deliverable
        // index when it is in use, off the rescan when bypassed).
        opts.model_message_loss = mi == 4;
        opts.install_invariants = mc.installer;
        SystemExplorer with_index(*w, opts);
        auto ref = with_index.explore();
        ASSERT_FALSE(ref.stats.truncated);

        auto no_idx_opts = opts;
        no_idx_opts.install_invariants = [&mc](rt::World& world) {
          mc.installer(world);
          world.set_use_enabled_index(false);
        };
        SystemExplorer without_index(*w, no_idx_opts);
        auto got = without_index.explore();
        EXPECT_EQ(got.stats.states, ref.stats.states);
        EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
        EXPECT_EQ(got.stats.duplicates, ref.stats.duplicates);
        EXPECT_EQ(got.visited, ref.visited);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel random walk: sharded walks == one-worker walks
// ---------------------------------------------------------------------------

// Each walk draws from an RNG derived from (seed, walk index), so worker
// count cannot change any trajectory. With an unbounded violation budget
// every walk runs on both sides: stats and the walk-ordered violation
// report must match the one-worker walk exactly.
class ParallelRandomWalk : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelRandomWalk, MatchesSequentialWalks) {
  const std::size_t workers = GetParam();
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, /*version=*/1, cfg);

  auto walk_opts = [&](std::size_t nw) {
    SysExploreOptions o;
    o.order = SearchOrder::kRandomWalk;
    o.max_depth = 40;
    o.walk_restarts = 48;
    o.seed = 9;
    o.max_violations = ~std::size_t{0};  // run every walk on both sides
    o.workers = nw;
    o.install_invariants = apps::install_token_ring_invariants;
    return o;
  };

  SystemExplorer seq(*w, walk_opts(1));
  auto ref = seq.explore();
  ASSERT_TRUE(ref.found_violation());  // buggy ring: walks do hit it

  SystemExplorer par(*w, walk_opts(workers));
  auto got = par.explore();
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.stats.max_depth, ref.stats.max_depth);
  EXPECT_EQ(got.stats.workers, workers);
  ASSERT_EQ(got.violations.size(), ref.violations.size());
  for (std::size_t i = 0; i < ref.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].violation.invariant,
              ref.violations[i].violation.invariant);
    EXPECT_EQ(got.violations[i].depth, ref.violations[i].depth);
    EXPECT_EQ(got.violations[i].trail.length(),
              ref.violations[i].trail.length());
  }
  // Parallel-found trails replay on a fresh world.
  for (std::size_t i = 0; i < std::min<std::size_t>(got.violations.size(), 4);
       ++i) {
    auto reproduced = SystemExplorer::replay_trail(
        *w, got.violations[i].trail, apps::install_token_ring_invariants);
    EXPECT_FALSE(reproduced.empty()) << got.violations[i].trail.render();
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelRandomWalk,
                         ::testing::Values(2u, 4u, 8u));

// A violation-budgeted parallel walk still stops early and stays sound.
TEST(ParallelRandomWalk, BudgetedStopStaysSound) {
  TokenRingConfig cfg;
  cfg.target_rounds = 2;
  auto w = make_token_ring_world(3, 1, cfg);
  SysExploreOptions o;
  o.order = SearchOrder::kRandomWalk;
  o.max_depth = 40;
  o.walk_restarts = 200;
  o.seed = 9;
  o.max_violations = 2;
  o.workers = 4;
  o.install_invariants = apps::install_token_ring_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  for (const auto& v : res.violations) {
    auto reproduced = SystemExplorer::replay_trail(
        *w, v.trail, apps::install_token_ring_invariants);
    EXPECT_FALSE(reproduced.empty()) << v.trail.render();
  }
}

// ---------------------------------------------------------------------------
// Parallel frontier metering: restored peak_frontier_bytes at workers > 1
// ---------------------------------------------------------------------------

TEST(ParallelFrontierMeter, SumOfPeaksReportedAtEveryWorkerCount) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(4, 2, cfg);

  auto opts = differential_opts(SearchOrder::kBfs, /*trail=*/false, 1);
  opts.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer seq(*w, opts);
  auto ref = seq.explore();
  ASSERT_GT(ref.stats.peak_frontier_bytes, 0u);
  // One worker: the largest worker share is the whole (exact) peak.
  EXPECT_EQ(ref.stats.peak_frontier_bytes_max_worker,
            ref.stats.peak_frontier_bytes);

  // The merged parallel number bounds *that run's* retained frontier from
  // above (it is not comparable to the one-worker run's peak: workers
  // drain the frontier while it is produced, so the parallel frontier can
  // genuinely stand lower). What must hold: metering is on (nonzero), the
  // per-worker max is a consistent share of the sum, and a single node's
  // worth of frontier is always covered.
  for (std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto par_opts =
        differential_opts(SearchOrder::kBfs, /*trail=*/false, workers);
    par_opts.install_invariants = apps::install_two_pc_invariants;
    SystemExplorer par(*w, par_opts);
    auto got = par.explore();
    EXPECT_EQ(got.stats.states, ref.stats.states);
    EXPECT_GT(got.stats.peak_frontier_bytes, 0u);
    EXPECT_GT(got.stats.peak_frontier_bytes_max_worker, 0u);
    EXPECT_LE(got.stats.peak_frontier_bytes_max_worker,
              got.stats.peak_frontier_bytes);
  }
}

// ---------------------------------------------------------------------------
// Violation trails from any worker replay on a fresh world
// ---------------------------------------------------------------------------

class ParallelReplay : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelReplay, EveryParallelViolationTrailReproduces) {
  const bool trail_frontier = GetParam();
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(3, 1, cfg);

  SysExploreOptions o;
  o.order = SearchOrder::kBfs;
  o.max_states = 100000;
  o.max_depth = 64;
  o.max_violations = 5;
  o.trail_frontier = trail_frontier;
  o.workers = 4;
  o.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer ex(*w, o);
  auto res = ex.explore();
  ASSERT_TRUE(res.found_violation());
  for (const auto& v : res.violations) {
    auto reproduced = SystemExplorer::replay_trail(
        *w, v.trail, apps::install_two_pc_invariants);
    ASSERT_FALSE(reproduced.empty())
        << "parallel trail did not reproduce:\n" << v.trail.render();
    bool same = false;
    for (const auto& rv : reproduced) {
      if (rv.invariant == v.violation.invariant) same = true;
    }
    EXPECT_TRUE(same) << v.violation.invariant;
  }
}

INSTANTIATE_TEST_SUITE_P(Frontiers, ParallelReplay, ::testing::Bool());

// ---------------------------------------------------------------------------
// Seeded stress: odd option mixes under small budgets must never crash
// ---------------------------------------------------------------------------

TEST(ParallelStress, HundredRandomConfigsNoCrash) {
  Rng rng(20260728);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::unique_ptr<rt::World> w;
    std::function<void(rt::World&)> installer;
    switch (rng.next_below(3)) {
      case 0: {
        TokenRingConfig cfg;
        cfg.target_rounds = 1 + rng.next_below(2);
        w = make_token_ring_world(3, 2, cfg);
        installer = apps::install_token_ring_invariants;
        break;
      }
      case 1: {
        TwoPcConfig cfg;
        cfg.total_txns = 1;
        w = make_two_pc_world(3, 2, cfg);
        installer = apps::install_two_pc_invariants;
        break;
      }
      default: {
        KvConfig cfg;
        cfg.total_ops = 2;
        cfg.key_space = 1;
        w = make_kv_world(2, 2, cfg);
        installer = apps::install_kv_invariants;
        break;
      }
    }

    SysExploreOptions o;
    switch (rng.next_below(3)) {
      case 0: o.order = SearchOrder::kBfs; break;
      case 1: o.order = SearchOrder::kDfs; break;
      default: o.order = SearchOrder::kPriority; break;
    }
    o.max_states = 50 + rng.next_below(150);
    o.max_depth = 4 + rng.next_below(20);
    o.max_violations = 1 + rng.next_below(3);
    o.model_message_loss = rng.next_bool(0.4);
    o.model_message_duplication = rng.next_bool(0.3);
    o.dedup = rng.next_bool(0.8);
    o.sleep_sets = rng.next_bool(0.3);
    o.trail_frontier = rng.next_bool(0.5);
    o.anchor_interval = 1 + rng.next_below(8);
    static const std::size_t kWorkers[] = {1, 2, 3, 4, 8};
    o.workers = kWorkers[rng.next_below(5)];
    o.install_invariants = installer;
    if (o.order == SearchOrder::kPriority && rng.next_bool(0.7)) {
      o.priority = [](const rt::World& world) {
        return static_cast<double>(world.network().pending_count());
      };
    }

    SystemExplorer ex(*w, o);
    SysExploreResult res;
    ASSERT_NO_THROW(res = ex.explore());
    EXPECT_GT(res.stats.states, 0u);
    // Budget overshoot is bounded by one in-flight state per worker, and
    // a full (non-truncated) search never exceeds the budget.
    EXPECT_LE(res.stats.states, o.max_states + o.workers);
    if (!res.stats.truncated) {
      EXPECT_LE(res.stats.states, o.max_states);
    }
    if (res.stats.states > o.max_states) {
      EXPECT_TRUE(res.stats.truncated);
    }
    EXPECT_EQ(res.stats.workers, o.workers);
  }
}

// With dedup off the state count equals transitions + 1 (a pure tree
// walk), at one worker or several — a cheap structural invariant that
// catches double-counted or dropped nodes under concurrency.
TEST(ParallelStress, TreeSearchCountsConsistent) {
  TokenRingConfig cfg;
  cfg.target_rounds = 1;
  for (std::size_t workers : {1u, 4u}) {
    auto w = make_token_ring_world(3, 2, cfg);
    SysExploreOptions o;
    o.order = SearchOrder::kBfs;
    o.dedup = false;
    o.max_states = 3000;
    o.max_depth = 10;
    o.max_violations = ~std::size_t{0};
    o.workers = workers;
    o.install_invariants = apps::install_token_ring_invariants;
    SystemExplorer ex(*w, o);
    auto res = ex.explore();
    EXPECT_EQ(res.stats.duplicates, 0u) << "workers=" << workers;
    EXPECT_EQ(res.stats.states, res.stats.transitions + 1)
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// SingleWorkerGolden: pinned one-worker outputs
// ---------------------------------------------------------------------------

// Every worker count runs the same search core, so a one-worker run has no
// second implementation to be compared against. These rows pin its output
// instead: counters, peak frontier bytes, replay work, a digest of the
// sorted visited set and an order-sensitive digest of the rendered
// violations (invariant, trail and depth, in report order). They were
// recorded from the former sequential explorer before it was deleted, so a
// one-worker search still reports exactly what it did. The byte figures
// follow the 64-bit libstdc++ layout of the frontier structures.
enum class GoldenVariant { kPlain, kPor, kPorSleep, kVisitedBudget,
                           kFrontierBudget };

struct GoldenRow {
  int model;
  SearchOrder order;
  bool trail;
  GoldenVariant variant;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t peak_frontier_bytes = 0;
  std::uint64_t replayed_actions = 0;
  std::uint64_t visited_digest = 0;
  std::uint64_t violations_digest = 0;
};

SysExploreOptions golden_opts(const ModelCase& mc, const GoldenRow& row) {
  auto o = differential_opts(row.order, row.trail, 1);
  // Replay warming is off, so the pinned trail-mode peak_frontier_bytes
  // measure the cold frontier. Warm sharing is history-independent (see
  // ReplayWarmExplorerHistory in test_replay_warm.cpp) but would pin the
  // ring's retention policy here too. Nothing else pinned depends on it.
  o.install_invariants = [installer = mc.installer](rt::World& world) {
    installer(world);
    world.set_replay_warm(false);
  };
  if (row.order == SearchOrder::kPriority) {
    o.priority = [](const rt::World& world) {
      return static_cast<double>(world.network().pending_count());
    };
  }
  switch (row.variant) {
    case GoldenVariant::kPlain: break;
    case GoldenVariant::kPor: o.por = true; break;
    case GoldenVariant::kPorSleep: o.por = o.sleep_sets = true; break;
    case GoldenVariant::kVisitedBudget: o.visited_budget_bytes = 4096; break;
    case GoldenVariant::kFrontierBudget: o.frontier_budget_bytes = 8192; break;
  }
  return o;
}

std::uint64_t visited_digest(const SysExploreResult& r) {
  Hasher h;
  for (std::uint64_t d : r.visited) h.update_u64(d);
  return h.digest();
}

std::uint64_t violations_digest(const SysExploreResult& r) {
  Hasher h;
  for (const SysViolation& v : r.violations) {
    h.update_string(v.render());
    h.update_u64(v.depth);
  }
  return h.digest();
}

/// Every small model × order × frontier, plus POR, POR+sleep and both
/// beyond-RAM budgets per model.
const GoldenRow kGolden[] = {
    {0, SearchOrder::kBfs, false, GoldenVariant::kPlain,
     40, 127, 88, 12, 5774, 0, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kBfs, true, GoldenVariant::kPlain,
     40, 127, 88, 12, 4168, 202, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kDfs, false, GoldenVariant::kPlain,
     40, 127, 88, 12, 10110, 0, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kDfs, true, GoldenVariant::kPlain,
     40, 127, 88, 12, 5062, 202, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kPriority, false, GoldenVariant::kPlain,
     40, 127, 88, 12, 9378, 0, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kPriority, true, GoldenVariant::kPlain,
     40, 127, 88, 12, 6309, 202, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kBfs, false, GoldenVariant::kPor,
     17, 26, 10, 12, 2458, 0, 0x3af3197fa680c6cbull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kDfs, true, GoldenVariant::kPorSleep,
     17, 26, 10, 12, 2467, 53, 0x3af3197fa680c6cbull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kDfs, false, GoldenVariant::kVisitedBudget,
     40, 127, 88, 12, 10110, 0, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {0, SearchOrder::kBfs, true, GoldenVariant::kFrontierBudget,
     40, 127, 88, 12, 8701, 202, 0x9c1c343e34f7add2ull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kBfs, false, GoldenVariant::kPlain,
     128, 237, 110, 14, 24796, 0, 0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kBfs, true, GoldenVariant::kPlain,
     128, 237, 110, 14, 14440, 484,
     0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kDfs, false, GoldenVariant::kPlain,
     128, 237, 110, 14, 14060, 0, 0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kDfs, true, GoldenVariant::kPlain,
     128, 237, 110, 14, 5948, 484,
     0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kPriority, false, GoldenVariant::kPlain,
     128, 237, 110, 14, 21156, 0, 0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kPriority, true, GoldenVariant::kPlain,
     128, 237, 110, 14, 16880, 484,
     0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kBfs, false, GoldenVariant::kPor,
     44, 48, 5, 14, 6600, 0, 0x1c8db58f55e3e775ull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kDfs, true, GoldenVariant::kPorSleep,
     44, 48, 5, 14, 5172, 126, 0x1c8db58f55e3e775ull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kDfs, false, GoldenVariant::kVisitedBudget,
     128, 237, 110, 14, 14060, 0, 0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {1, SearchOrder::kBfs, true, GoldenVariant::kFrontierBudget,
     128, 237, 110, 14, 10540, 640,
     0xbe4a961a077e7edfull, 0xd62ca163104063f0ull},
    {2, SearchOrder::kBfs, false, GoldenVariant::kPlain,
     128, 237, 110, 14, 24796, 0, 0x6e918678243aeb8full, 0x16f74626cd41bedbull},
    {2, SearchOrder::kBfs, true, GoldenVariant::kPlain,
     128, 237, 110, 14, 14440, 484,
     0x6e918678243aeb8full, 0x16f74626cd41bedbull},
    {2, SearchOrder::kDfs, false, GoldenVariant::kPlain,
     128, 237, 110, 14, 14060, 0, 0x6e918678243aeb8full, 0x0d3ab0c2f6bccc4cull},
    {2, SearchOrder::kDfs, true, GoldenVariant::kPlain,
     128, 237, 110, 14, 5948, 484,
     0x6e918678243aeb8full, 0x0d3ab0c2f6bccc4cull},
    {2, SearchOrder::kPriority, false, GoldenVariant::kPlain,
     128, 237, 110, 14, 21156, 0, 0x6e918678243aeb8full, 0x48bfe6c6881da7f8ull},
    {2, SearchOrder::kPriority, true, GoldenVariant::kPlain,
     128, 237, 110, 14, 16880, 484,
     0x6e918678243aeb8full, 0x48bfe6c6881da7f8ull},
    {2, SearchOrder::kBfs, false, GoldenVariant::kPor,
     44, 48, 5, 14, 6600, 0, 0xb5143709c6e42290ull, 0xe989e3ca759fd423ull},
    {2, SearchOrder::kDfs, true, GoldenVariant::kPorSleep,
     44, 48, 5, 14, 5172, 126, 0xb5143709c6e42290ull, 0x01202a854124acd5ull},
    {2, SearchOrder::kDfs, false, GoldenVariant::kVisitedBudget,
     128, 237, 110, 14, 14060, 0, 0x6e918678243aeb8full, 0x0d3ab0c2f6bccc4cull},
    {2, SearchOrder::kBfs, true, GoldenVariant::kFrontierBudget,
     128, 237, 110, 14, 10540, 640,
     0x6e918678243aeb8full, 0x16f74626cd41bedbull},
    {3, SearchOrder::kBfs, false, GoldenVariant::kPlain,
     8168, 30226, 22059, 26, 1374632, 0,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kBfs, true, GoldenVariant::kPlain,
     8168, 30226, 22059, 26, 954984, 46589,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kDfs, false, GoldenVariant::kPlain,
     8168, 30226, 22059, 26, 51816, 0,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kDfs, true, GoldenVariant::kPlain,
     8168, 30226, 22059, 26, 13968, 46589,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kPriority, false, GoldenVariant::kPlain,
     8168, 30226, 22059, 26, 571716, 0,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kPriority, true, GoldenVariant::kPlain,
     8168, 30226, 22059, 26, 462780, 46589,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kBfs, false, GoldenVariant::kPor,
     261, 449, 189, 26, 40716, 0, 0x4d4b6898fea02b72ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kDfs, true, GoldenVariant::kPorSleep,
     261, 449, 189, 26, 8076, 960,
     0x4d4b6898fea02b72ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kDfs, false, GoldenVariant::kVisitedBudget,
     8168, 30226, 22059, 26, 51816, 0,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {3, SearchOrder::kBfs, true, GoldenVariant::kFrontierBudget,
     8168, 30226, 22059, 26, 67060, 81461,
     0xe25a13ffc9ed8b73ull, 0xd62ca163104063f0ull},
    {4, SearchOrder::kBfs, false, GoldenVariant::kPlain,
     18, 25, 8, 7, 32833, 0, 0xe1bd6f492795fa5eull, 0x2784a4c5f28abb49ull},
    {4, SearchOrder::kBfs, true, GoldenVariant::kPlain,
     18, 25, 8, 7, 27326, 59, 0xe1bd6f492795fa5eull, 0x2784a4c5f28abb49ull},
    {4, SearchOrder::kDfs, false, GoldenVariant::kPlain,
     18, 25, 8, 7, 41375, 0, 0xe1bd6f492795fa5eull, 0x1defb16eb2c091d6ull},
    {4, SearchOrder::kDfs, true, GoldenVariant::kPlain,
     18, 25, 8, 7, 23150, 59, 0xe1bd6f492795fa5eull, 0x1defb16eb2c091d6ull},
    {4, SearchOrder::kPriority, false, GoldenVariant::kPlain,
     18, 25, 8, 7, 37709, 0, 0xe1bd6f492795fa5eull, 0x7fbabae8ad4d7102ull},
    {4, SearchOrder::kPriority, true, GoldenVariant::kPlain,
     18, 25, 8, 7, 28613, 59, 0xe1bd6f492795fa5eull, 0x7fbabae8ad4d7102ull},
    {4, SearchOrder::kBfs, false, GoldenVariant::kPor,
     9, 9, 1, 7, 13973, 0, 0xe39d895057a55aeeull, 0xd62ca163104063f0ull},
    {4, SearchOrder::kDfs, true, GoldenVariant::kPorSleep,
     9, 9, 1, 7, 18256, 24, 0xe39d895057a55aeeull, 0xd62ca163104063f0ull},
    {4, SearchOrder::kDfs, false, GoldenVariant::kVisitedBudget,
     18, 25, 8, 7, 41375, 0, 0xe1bd6f492795fa5eull, 0x1defb16eb2c091d6ull},
    {4, SearchOrder::kBfs, true, GoldenVariant::kFrontierBudget,
     18, 25, 8, 7, 3632, 59, 0xe1bd6f492795fa5eull, 0x2784a4c5f28abb49ull},
};

TEST(SingleWorkerGolden, MatchesRecordedOutputs) {
  const auto models = small_models();
  for (std::size_t row = 0; row < std::size(kGolden); ++row) {
    const GoldenRow& want = kGolden[row];
    const ModelCase& mc = models[want.model];
    auto w = mc.make();
    SystemExplorer ex(*w, golden_opts(mc, want));
    const SysExploreResult r = ex.explore();
    SCOPED_TRACE("kGolden[" + std::to_string(row) + "] " + mc.name);
    EXPECT_EQ(r.stats.workers, 1u);
    EXPECT_EQ(r.stats.states, want.states);
    EXPECT_EQ(r.stats.transitions, want.transitions);
    EXPECT_EQ(r.stats.duplicates, want.duplicates);
    EXPECT_EQ(r.stats.max_depth, want.max_depth);
    EXPECT_EQ(r.stats.peak_frontier_bytes, want.peak_frontier_bytes);
    EXPECT_EQ(r.stats.replayed_actions, want.replayed_actions);
    EXPECT_EQ(visited_digest(r), want.visited_digest);
    EXPECT_EQ(violations_digest(r), want.violations_digest);
  }
}

}  // namespace
}  // namespace fixd::mc
