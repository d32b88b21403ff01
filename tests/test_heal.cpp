// The Healer: dynamic updates, state transforms, safety checks.
#include <gtest/gtest.h>

#include <utility>

#include "apps/kv_store.hpp"
#include "apps/rep_counter.hpp"
#include "apps/token_ring.hpp"
#include "ckpt/speculation.hpp"
#include "heal/healer.hpp"

namespace fixd::heal {
namespace {

using apps::CounterConfig;
using apps::make_counter_world;

TEST(Healer, UpdatesTypeAndVersionInPlace) {
  auto w = make_counter_world(3, 1, CounterConfig{2});
  Healer healer(*w);
  HealReport rep = healer.apply(0, apps::counter_fix_patch(CounterConfig{2}));
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(w->process(0).version(), 2u);
  EXPECT_EQ(w->process(1).version(), 1u);  // others untouched
  EXPECT_EQ(w->process(0).type_name(), "rep-counter");
}

TEST(Healer, StatePreservedAcrossUpdate) {
  auto w = make_counter_world(3, 1, CounterConfig{2});
  w->set_stop_on_violation(false);
  w->run();  // quiesce: no in-flight traffic, update point trivially safe
  const auto& before = dynamic_cast<const apps::ICounter&>(w->process(1));
  std::uint64_t total = before.total();
  std::uint64_t handled = w->events_handled(1);

  Healer healer(*w);
  HealReport rep = healer.apply(1, apps::counter_fix_patch(CounterConfig{2}));
  ASSERT_TRUE(rep.ok) << rep.error;
  const auto& after = dynamic_cast<const apps::ICounter&>(w->process(1));
  EXPECT_EQ(after.total(), total);
  EXPECT_EQ(w->events_handled(1), handled);  // runtime info preserved
}

TEST(Healer, RefusesNonQuiescentInbound) {
  auto w = make_counter_world(2, 1, CounterConfig{1});
  w->run(2);  // starts executed: INC messages in flight to both
  Healer healer(*w);
  HealReport rep = healer.apply(0, apps::counter_fix_patch(CounterConfig{1}));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("in flight"), std::string::npos);
}

TEST(Healer, QuiescenceCheckCanBeWaived) {
  auto w = make_counter_world(2, 1, CounterConfig{1});
  w->run(2);
  HealOptions o;
  o.require_quiescent_inbound = false;
  Healer healer(*w, o);
  HealReport rep = healer.apply(0, apps::counter_fix_patch(CounterConfig{1}));
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(Healer, RefusesProcessInsideSpeculation) {
  auto w = make_counter_world(2, 1, CounterConfig{1});
  ckpt::SpeculationManager specs;
  specs.attach(*w);
  // Put p0 into a speculation manually via the hooks.
  w->spec_hooks()->begin(*w, 0, "test");
  HealOptions o;
  o.require_quiescent_inbound = false;
  Healer healer(*w, o);
  HealReport rep =
      healer.apply(0, apps::counter_fix_patch(CounterConfig{1}), &specs);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("speculation"), std::string::npos);
}

TEST(Healer, VersionMismatchRefused) {
  auto w = make_counter_world(2, 2, CounterConfig{1});  // already v2
  Healer healer(*w);
  HealReport rep = healer.apply(0, apps::counter_fix_patch(CounterConfig{1}));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("v2"), std::string::npos);
}

TEST(Healer, ApplyAllIsAtomic) {
  auto w = make_counter_world(3, 1, CounterConfig{2});
  Healer healer(*w);
  HealReport rep =
      healer.apply_all(apps::counter_fix_patch(CounterConfig{2}));
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.updated.size(), 3u);
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(w->process(p).version(), 2u);
}

TEST(Healer, ApplyAllNoMatchFails) {
  auto w = make_counter_world(2, 2, CounterConfig{1});
  Healer healer(*w);
  HealReport rep =
      healer.apply_all(apps::counter_fix_patch(CounterConfig{1}));
  EXPECT_FALSE(rep.ok);
}

TEST(Healer, TransformRejectionBlocksUpdate) {
  auto w = make_counter_world(2, 1, CounterConfig{1});
  UpdatePatch p = apps::counter_fix_patch(CounterConfig{1});
  p.transform = [](BinaryReader&, BinaryWriter&) { return false; };
  Healer healer(*w);
  HealReport rep = healer.apply(0, p);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("transform"), std::string::npos);
  EXPECT_EQ(w->process(0).version(), 1u);  // unchanged
}

TEST(Healer, ValidatorRejectionBlocksUpdate) {
  auto w = make_counter_world(2, 1, CounterConfig{1});
  UpdatePatch p = apps::counter_fix_patch(CounterConfig{1});
  p.validate = [](const rt::Process&) -> std::optional<std::string> {
    return "nope";
  };
  Healer healer(*w);
  HealReport rep = healer.apply(0, p);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("nope"), std::string::npos);
}

TEST(Healer, PostUpdateInvariantFailureRollsSwapBack) {
  auto w = make_counter_world(2, 1, CounterConfig{1});
  // An invariant that rejects any v2 process: the update must be undone.
  w->invariants().add_global(
      "no-v2", [](const rt::World& world) -> std::optional<std::string> {
        for (ProcessId p = 0; p < world.size(); ++p) {
          if (world.process(p).version() == 2) return "v2 found";
        }
        return std::nullopt;
      });
  Healer healer(*w);
  HealReport rep = healer.apply(0, apps::counter_fix_patch(CounterConfig{1}));
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(w->process(0).version(), 1u);
  EXPECT_FALSE(w->has_violation());  // probe violations cleaned up
}

TEST(Healer, HealedWorldRunsToCorrectCompletion) {
  auto w = make_counter_world(3, 1, CounterConfig{4});
  Healer healer(*w);
  ASSERT_TRUE(healer.apply_all(apps::counter_fix_patch(CounterConfig{4})).ok);
  rt::RunResult res = w->run();
  EXPECT_EQ(res.reason, rt::StopReason::kAllHalted);
  EXPECT_FALSE(w->has_violation());
}

TEST(Healer, HeapCarriedAcrossKvUpdate) {
  apps::KvConfig cfg;
  cfg.total_ops = 10;
  cfg.key_space = 4;
  auto w = apps::make_kv_world(2, 1, cfg);
  w->run();  // FIFO: v1 completes fine, store populated
  const auto& rep_before =
      dynamic_cast<const apps::IKvReplica&>(w->process(1));
  std::uint64_t digest = rep_before.content_digest();
  std::uint64_t keys = rep_before.keys_stored();
  ASSERT_GT(keys, 0u);

  Healer healer(*w);
  HealReport hr = healer.apply(1, apps::kv_fix_patch(cfg));
  ASSERT_TRUE(hr.ok) << hr.error;
  const auto& rep_after =
      dynamic_cast<const apps::IKvReplica&>(w->process(1));
  EXPECT_EQ(rep_after.content_digest(), digest);
  EXPECT_EQ(rep_after.keys_stored(), keys);
  EXPECT_EQ(w->process(1).version(), 2u);
}

/// Non-control pending messages bound for `dst`, recounted from pending().
std::uint64_t recount_inflight(const net::SimNetwork& net, ProcessId dst) {
  std::uint64_t n = 0;
  for (const net::Message* m : net.pending()) {
    if (m->dst == dst && !m->control) ++n;
  }
  return n;
}

TEST(Healer, InflightCounterMatchesOracle) {
  // The update-point quiescence check asks how much non-control traffic
  // is in flight to a process; this walks a real run step by step and
  // holds inflight_to to a recount of the pending set at every state.
  auto w = make_counter_world(3, 1, CounterConfig{4});
  w->set_stop_on_violation(false);
  const auto& net = std::as_const(*w).network();
  for (int i = 0; i < 200; ++i) {
    for (ProcessId p = 0; p < w->size(); ++p) {
      ASSERT_EQ(net.inflight_to(p), recount_inflight(net, p))
          << "step " << i << " dst p" << p;
    }
    if (!w->step()) break;
  }
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_EQ(net.inflight_to(p), recount_inflight(net, p));
  }
}

TEST(Healer, InflightCounterMatchesOracleUnderPartitionChurn) {
  // Partition-suppressed deliveries are deferred, never dropped, so
  // inflight_to must keep counting traffic a link mask is holding back —
  // and stay equal to the recount through cut/heal churn.
  auto w = make_counter_world(3, 1, CounterConfig{4});
  w->set_stop_on_violation(false);
  const auto& net = std::as_const(*w).network();
  bool saw_deferred = false;
  for (int i = 0; i < 200; ++i) {
    if (i == 4) {
      w->model_cut_link(0, 1);
      w->model_cut_link(1, 0);
    }
    if (i == 9) w->model_heal_link(0, 1);
    if (i == 12) {
      w->model_heal_link(1, 0);
      w->model_cut_link(2, 1);
    }
    if (i == 17) w->model_heal_link(2, 1);
    for (ProcessId p = 0; p < w->size(); ++p) {
      ASSERT_EQ(net.inflight_to(p), recount_inflight(net, p))
          << "step " << i << " dst p" << p;
    }
    for (const net::Message* m : net.pending()) {
      if (net.link_blocked(m->src, m->dst)) saw_deferred = true;
    }
    if (!w->step()) break;
  }
  for (ProcessId p = 0; p < w->size(); ++p) {
    EXPECT_EQ(net.inflight_to(p), recount_inflight(net, p));
  }
  // The schedule really did hold traffic behind a cut at some point, and
  // every cut was healed — nothing was lost along the way.
  EXPECT_TRUE(saw_deferred);
  EXPECT_EQ(net.blocked_link_count(), 0u);
  EXPECT_EQ(net.stats().dropped_forced, 0u);
}

TEST(PatchRegistry, FindsByTypeAndVersion) {
  PatchRegistry reg;
  reg.add(apps::counter_fix_patch(CounterConfig{1}));
  reg.add(apps::token_ring_fix_patch());
  auto w = make_counter_world(2, 1, CounterConfig{1});
  EXPECT_NE(reg.find(w->process(0)), nullptr);
  auto w2 = make_counter_world(2, 2, CounterConfig{1});
  EXPECT_EQ(reg.find(w2->process(0)), nullptr);  // no patch from v2
  EXPECT_EQ(reg.size(), 2u);
}

TEST(IdentityTransform, CopiesBytesVerbatim) {
  BinaryWriter in;
  in.write_u64(42);
  in.write_string("state");
  BinaryReader r(in.bytes());
  BinaryWriter out;
  ASSERT_TRUE(identity_transform(r, out));
  EXPECT_EQ(out.bytes(), in.bytes());
}

}  // namespace
}  // namespace fixd::heal
