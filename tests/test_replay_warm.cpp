// Replay-warmed captures: after restoring a WorldSnapshot, a
// deterministic re-execution keys every dispatched event; the capture
// cache / warm rings then share bit-identical checkpoints and message
// objects across sibling replays of the same prefix (rt::World
// set_replay_warm, net::SimNetwork begin_warm_step). These suites pin the
// machinery's correctness contract:
//
//  - Property: after every materialization (restore + replay) and every
//    capture, whatever sits in the capture cache — warm-shared or fresh —
//    passes the bit-exact verify_capture_cache oracle, across randomized
//    trails that interleave crashes, timed mode, direct network
//    mutation, and process pokes (each of which must *invalidate*
//    warmth, not corrupt it).
//  - Differential: a warm explorer visits exactly the cold explorer's
//    canonical state set (and the warm run's frontier never retains more
//    than the cold run's).
//  - Engagement: the machinery actually fires (hit counters grow) — a
//    silently-dead cache would pass every correctness test.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "apps/kv_store.hpp"
#include "apps/token_ring.hpp"
#include "apps/two_phase_commit.hpp"
#include "common/rng.hpp"
#include "mc/sysmodel.hpp"

namespace fixd::rt {
namespace {

using apps::KvConfig;
using apps::make_kv_world;
using apps::make_token_ring_world;
using apps::make_two_pc_world;
using apps::TokenRingConfig;
using apps::TwoPcConfig;

void verify_all(World& w, const char* where) {
  for (ProcessId pid = 0; pid < w.size(); ++pid) {
    ASSERT_TRUE(w.verify_capture_cache(pid))
        << where << ": capture cache diverged for p" << pid;
  }
  ASSERT_EQ(w.digest(), w.digest_uncached()) << where;
  ASSERT_EQ(w.mc_digest(), w.mc_digest_uncached()) << where;
}

/// Execute `k` events chosen by `rng` (abstract-time enabled set).
std::size_t run_random_events(World& w, Rng& rng, std::size_t k) {
  std::size_t done = 0;
  for (; done < k; ++done) {
    auto evs = w.enabled_events();
    if (evs.empty()) break;
    w.execute_event(evs[rng.next_below(evs.size())]);
  }
  return done;
}

// ---------------------------------------------------------------------------
// Property: randomized replay trails keep the capture cache bit-exact
// ---------------------------------------------------------------------------

class ReplayWarmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayWarmProperty, WarmedCapturesStayBitExact) {
  Rng rng(GetParam());

  // Rotate over the three app families; the kv world carries a COW heap,
  // so the heap-digest validation path in the warm lookup is exercised.
  std::unique_ptr<World> w;
  switch (GetParam() % 3) {
    case 0: {
      TwoPcConfig cfg;
      cfg.total_txns = 1;
      w = make_two_pc_world(4, 2, cfg);
      break;
    }
    case 1: {
      TokenRingConfig cfg;
      cfg.target_rounds = 2;
      w = make_token_ring_world(4, 2, cfg);
      break;
    }
    default: {
      KvConfig cfg;
      cfg.total_ops = 2;
      cfg.key_space = 2;
      w = make_kv_world(3, 2, cfg);
      break;
    }
  }
  // Timed trails for a third of the seeds (the warp selection changes
  // which events are enabled, not the warm contract).
  w->set_abstract_time(GetParam() % 3 != 1);
  w->run(2);  // move off the initial state

  WorldSnapshot anchor = w->snapshot(/*cow=*/true);

  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    w->restore(anchor);
    run_random_events(*w, rng, 1 + rng.next_below(6));

    // Occasionally interleave a warmth-invalidating mutation; the oracle
    // below must still hold (the machinery's job is to *invalidate*, not
    // to survive, exogenous changes).
    switch (rng.next_below(8)) {
      case 0:
        w->set_crashed(0, !w->is_crashed(0));
        break;
      case 1: {
        // Direct network surgery through the warm-breaking accessor.
        auto pending = w->network().deliverable();
        if (!pending.empty()) {
          w->network().mutate(pending[0], [](net::Message& m) {
            m.payload.push_back(std::byte{0x5a});
          });
        }
        break;
      }
      case 2:
        // A mutable process poke (marks dirty + breaks the chain).
        (void)w->process(static_cast<ProcessId>(
            rng.next_below(w->size())));
        break;
      default:
        break;
    }

    // Capture everything: each per-process capture either shares a
    // warm entry or captures fresh; both must describe the live process
    // bit-exactly.
    WorldSnapshot snap = w->snapshot(/*cow=*/true);
    verify_all(*w, "post-capture");

    // Sometimes advance the anchor so later rounds replay a different
    // prefix chain.
    if (rng.next_below(4) == 0) anchor = std::move(snap);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayWarmProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9));

// Re-executing the same prefix from the same snapshot must hit the warm
// rings (captures AND messages) — the engagement check that keeps the
// machinery from dying silently.
TEST(ReplayWarm, SiblingReplaysShareCaptures) {
  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(4, 2, cfg);
  w->set_abstract_time(true);
  w->run(2);
  WorldSnapshot anchor = w->snapshot(/*cow=*/true);

  auto replay_and_capture = [&]() -> WorldSnapshot {
    w->restore(anchor);
    auto evs = w->enabled_events();
    EXPECT_GE(evs.size(), 1u);
    w->execute_event(evs[0]);
    auto evs2 = w->enabled_events();
    EXPECT_FALSE(evs2.empty());
    w->execute_event(evs2[0]);
    return w->snapshot(/*cow=*/true);
  };

  WorldSnapshot a = replay_and_capture();
  const std::uint64_t hits_before = w->replay_warm_hits();
  const std::uint64_t msg_hits_before = w->network().warm_hits();
  WorldSnapshot b = replay_and_capture();

  EXPECT_GT(w->replay_warm_hits(), hits_before)
      << "second identical replay produced no shared captures";
  EXPECT_GE(w->network().warm_hits(), msg_hits_before);

  // The sibling snapshots must share checkpoint entries by pointer for
  // every process (identical prefix => identical content => one object).
  std::size_t shared = 0;
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    if (a.procs[i] == b.procs[i]) ++shared;
  }
  EXPECT_EQ(shared, a.procs.size());
  verify_all(*w, "after sibling replays");
}

// Messages created during a replayed prefix are the same objects across
// re-executions (the network's warm ring), so sibling anchors share them.
TEST(ReplayWarm, ReplayedMessagesAreShared) {
  TokenRingConfig cfg;
  cfg.target_rounds = 3;
  auto w = make_token_ring_world(3, 2, cfg);
  w->set_abstract_time(true);
  w->run(3);
  WorldSnapshot anchor = w->snapshot(/*cow=*/true);

  auto run_prefix = [&]() {
    w->restore(anchor);
    for (int i = 0; i < 3; ++i) {
      auto evs = w->enabled_events();
      if (evs.empty()) break;
      w->execute_event(evs[0]);
    }
    return w->snapshot(/*cow=*/true);
  };
  WorldSnapshot a = run_prefix();
  WorldSnapshot b = run_prefix();
  ASSERT_TRUE(a.net && b.net);
  ASSERT_EQ(a.net->messages.size(), b.net->messages.size());
  for (std::size_t i = 0; i < a.net->messages.size(); ++i) {
    EXPECT_EQ(a.net->messages[i].second, b.net->messages[i].second)
        << "message #" << a.net->messages[i].first
        << " was re-allocated instead of shared";
  }
}

// Toggling warming off must clear all warm state and behave identically.
TEST(ReplayWarm, WarmOffMatchesWarmOnBitExactly) {
  for (int version : {1, 2}) {
    TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto warm = make_two_pc_world(4, version, cfg);
    auto cold = make_two_pc_world(4, version, cfg);
    cold->set_replay_warm(false);
    warm->set_abstract_time(true);
    cold->set_abstract_time(true);

    Rng rng(99 + version);
    warm->run(2);
    cold->run(2);
    WorldSnapshot wa = warm->snapshot(true);
    WorldSnapshot ca = cold->snapshot(true);
    for (int round = 0; round < 12; ++round) {
      warm->restore(wa);
      cold->restore(ca);
      Rng r2 = rng;  // identical choices on both worlds
      run_random_events(*warm, rng, 4);
      run_random_events(*cold, r2, 4);
      ASSERT_EQ(warm->mc_digest(), cold->mc_digest()) << "round " << round;
      ASSERT_EQ(warm->digest_uncached(), cold->digest_uncached());
      verify_all(*warm, "warm world");
      verify_all(*cold, "cold world");
    }
    EXPECT_EQ(cold->replay_warm_hits(), 0u);
  }
}

}  // namespace
}  // namespace fixd::rt

// ---------------------------------------------------------------------------
// Explorer differential: warm == cold visited sets, lower retention
// ---------------------------------------------------------------------------

namespace fixd::mc {
namespace {

using apps::make_two_pc_world;
using apps::TwoPcConfig;

class ReplayWarmExplorer
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(ReplayWarmExplorer, WarmAndColdExploreIdenticalStateSets) {
  auto [order_idx, trail, workers] = GetParam();
  const SearchOrder order =
      order_idx == 0 ? SearchOrder::kBfs : SearchOrder::kDfs;

  TwoPcConfig cfg;
  cfg.total_txns = 1;
  auto w = make_two_pc_world(4, 2, cfg);

  auto opts = [&](bool warm) {
    SysExploreOptions o;
    o.order = order;
    o.max_states = 400000;
    o.max_depth = 300;
    o.max_violations = ~std::size_t{0};
    o.trail_frontier = trail;
    o.anchor_interval = 4;
    o.workers = static_cast<std::size_t>(workers);
    o.collect_visited = true;
    o.install_invariants = [warm](rt::World& world) {
      apps::install_two_pc_invariants(world);
      world.set_replay_warm(warm);
    };
    return o;
  };

  SystemExplorer cold(*w, opts(false));
  auto ref = cold.explore();
  ASSERT_FALSE(ref.stats.truncated);

  SystemExplorer warm(*w, opts(true));
  auto got = warm.explore();
  EXPECT_EQ(got.stats.states, ref.stats.states);
  EXPECT_EQ(got.stats.transitions, ref.stats.transitions);
  EXPECT_EQ(got.stats.duplicates, ref.stats.duplicates);
  EXPECT_EQ(got.visited, ref.visited);
  if (trail && workers == 1) {
    // Sequential trail peaks are exact meters; warming must never
    // retain more than cold (it only replaces fresh allocations with
    // shared ones).
    EXPECT_LE(got.stats.peak_frontier_bytes, ref.stats.peak_frontier_bytes);
  }
}

// The message ring keys messages by replay keys seeded from process-wide
// snapshot serials. Sharing must depend only on which keys repeat, not on
// their bit patterns, so an unrelated search in between cannot change a
// warm trail search's retained frontier.
TEST(ReplayWarmExplorerHistory, TrailPeakIndependentOfEarlierSearches) {
  auto trail_peak = [] {
    TwoPcConfig cfg;
    cfg.total_txns = 1;
    auto w = make_two_pc_world(5, 2, cfg);
    SysExploreOptions o;
    o.order = SearchOrder::kBfs;
    o.trail_frontier = true;
    o.install_invariants = apps::install_two_pc_invariants;
    SystemExplorer ex(*w, o);
    auto r = ex.explore();
    EXPECT_FALSE(r.stats.truncated);
    return r.stats.peak_frontier_bytes;
  };
  const std::uint64_t first = trail_peak();

  // Unrelated snapshot-mode search: it only advances the snapshot serials.
  TwoPcConfig small;
  small.total_txns = 1;
  auto w3 = make_two_pc_world(3, 2, small);
  SysExploreOptions o3;
  o3.order = SearchOrder::kBfs;
  o3.install_invariants = apps::install_two_pc_invariants;
  SystemExplorer(*w3, o3).explore();

  EXPECT_EQ(trail_peak(), first);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ReplayWarmExplorer,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 4)));

}  // namespace
}  // namespace fixd::mc
