// Tests for the benchmark's own helpers: the percentile rule, span self
// time, error-rate accounting and seeded input generation.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "hostspeed.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 0.90), 90);
  EXPECT_DOUBLE_EQ(percentile(one_to(1000), 0.99), 990);
  EXPECT_DOUBLE_EQ(percentile(one_to(10), 0.5), 5);
  EXPECT_DOUBLE_EQ(median(one_to(10)), 5.5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  // Fewer than 20 samples: not even the median has ten beyond it.
  EXPECT_EQ(highest_supported_tail(one_to(19)).label(), "none");
  EXPECT_EQ(highest_supported_tail(one_to(20)).label(), "p50");
  EXPECT_EQ(highest_supported_tail(one_to(99)).label(), "p75");
  const Tail p90 = highest_supported_tail(one_to(100));
  EXPECT_EQ(p90.label(), "p90");
  EXPECT_DOUBLE_EQ(p90.value, 90);
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_EQ(highest_supported_tail(one_to(999)).label(), "p90");
  EXPECT_EQ(highest_supported_tail(one_to(1000)).label(), "p99");
  EXPECT_EQ(highest_supported_tail(one_to(10000)).label(), "p99.9");
  const Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
                std::int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, DurationMinusCoveredChildTime) {
  const std::vector<SpanRecord> spans = {
      span(1, 0, 0, 100),
      span(2, 1, 10, 30),   // child
      span(3, 1, 20, 50),   // overlaps child 2: 10..50 covered once
      span(4, 1, 90, 120),  // sticks out of the parent: clipped to 90..100
      span(5, 2, 12, 14),   // grandchild: counts against 2, not 1
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

TEST(SelfTime, TracerNestsSpansAndDisabledRecordsNothing) {
  Tracer on(true);
  const std::uint64_t op = on.new_op();
  {
    Span outer(on, "outer", op);
    Span inner(on, "inner", op);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, on.spans()[0].id);
  EXPECT_EQ(on.spans()[1].op, op);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);

  Tracer off(false);
  { Span s(off, "x", off.new_op()); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(ErrorRate, FailedOverAttempted) {
  OpLedger l;
  EXPECT_EQ(l.error_rate(), 0);
  l.ok();
  l.ok();
  l.ok();
  l.fail();
  EXPECT_EQ(l.attempted(), 4u);
  EXPECT_EQ(l.failed(), 1u);
  EXPECT_DOUBLE_EQ(l.error_rate(), 0.25);
}

TEST(Inputs, SameSeedSameBytes) {
  for (const char* w : {"investigate", "protect", "service"}) {
    EXPECT_EQ(describe(w, 7, 5), describe(w, 7, 5)) << w;
  }
  EXPECT_NE(describe("protect", 7, 5), describe("protect", 8, 5));
  EXPECT_NE(describe("service", 7, 5), describe("service", 8, 5));
}

TEST(Inputs, RoundsHaveAFixedMix) {
  for (std::uint64_t round = 0; round < 20; ++round) {
    std::vector<int> kinds(kProtectKinds, 0);
    for (const ProtectRun& r : protect_round(3, round)) {
      ++kinds[static_cast<int>(r.kind)];
    }
    std::vector<int> expected(kProtectKinds, 1);
    expected[static_cast<int>(ProtectKind::kFaultFree)] = kFaultFreePerRound;
    EXPECT_EQ(kinds, expected);
    int n5 = 0;
    for (const auto& s : service_round(3, round)) {
      n5 += s.scenario == "two-pc" && s.n == 5;
      EXPECT_TRUE(s.trail_frontier);
      EXPECT_EQ(s.checkpoint_states, 512u);
    }
    EXPECT_EQ(n5, 4);
  }
}

TEST(HostSpeed, AdjustsByPowerOfMedianSlowdown) {
  HostSpeed h;
  EXPECT_DOUBLE_EQ(h.adjustment(), 1.0);  // no sample yet: nominal
  h.maybe_sample();
  EXPECT_EQ(h.samples(), static_cast<std::size_t>(HostSpeed::kRunsPerSample));
  EXPECT_GT(h.spent_s(), 0);
  h.maybe_sample();  // within kGapMs of the last sample: skipped
  EXPECT_EQ(h.samples(), static_cast<std::size_t>(HostSpeed::kRunsPerSample));
  EXPECT_DOUBLE_EQ(h.slowdown(), h.median_ms() / HostSpeed::kNominalMs);
  EXPECT_DOUBLE_EQ(h.adjustment(),
                   std::pow(h.slowdown(), HostSpeed::kExponent));
  EXPECT_DOUBLE_EQ(HostSpeed::adjustment_for(HostSpeed::kNominalMs), 1.0);
}

TEST(HostSpeed, ReferenceWorkIsDeterministic) {
  EXPECT_EQ(reference_work(), reference_work());
}

}  // namespace
}  // namespace perfbench
