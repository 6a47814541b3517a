// Unit tests for the deterministic fault-injection layer: spec parsing
// (including malformed input), trigger semantics (hit lists, every-N,
// Bernoulli), seed determinism, fire bounding, counters, the observer
// hook, and the disabled fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/fault.h"

namespace cwc::fault {
namespace {

/// Every test leaves the process-global injector disarmed and empty, so
/// suites sharing the binary never see armed leftovers.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }
};

TEST_F(FaultTest, ParseSpecCoversTheGrammar) {
  const auto rules = parse_fault_spec(
      "socket_write:reset@p=0.02;"
      "keepalive_send:drop@every=4@limit=6;"
      "socket_connect:drop@n=1,3;"
      "journal_append:partial@n=2;"
      "scheduler_pack:delay(2.5)");
  ASSERT_EQ(rules.size(), 5u);

  EXPECT_EQ(rules[0].point, FaultPoint::kSocketWrite);
  EXPECT_EQ(rules[0].action.kind, FaultAction::Kind::kReset);
  EXPECT_DOUBLE_EQ(rules[0].probability, 0.02);

  EXPECT_EQ(rules[1].point, FaultPoint::kKeepAliveSend);
  EXPECT_EQ(rules[1].action.kind, FaultAction::Kind::kDrop);
  EXPECT_EQ(rules[1].every, 4u);
  EXPECT_EQ(rules[1].max_fires, 6u);

  EXPECT_EQ(rules[2].point, FaultPoint::kSocketConnect);
  EXPECT_EQ(rules[2].hits, (std::vector<std::uint64_t>{1, 3}));

  EXPECT_EQ(rules[3].point, FaultPoint::kJournalAppend);
  EXPECT_EQ(rules[3].action.kind, FaultAction::Kind::kPartial);

  EXPECT_EQ(rules[4].point, FaultPoint::kSchedulerPack);
  EXPECT_EQ(rules[4].action.kind, FaultAction::Kind::kDelay);
  EXPECT_DOUBLE_EQ(rules[4].action.delay_ms, 2.5);
}

TEST_F(FaultTest, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("flux_capacitor:drop"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write:explode"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write:drop@zeal=9"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write:delay(abc)"), std::invalid_argument);
  // Non-finite values: NaN slips past a plain range check (and a rule with
  // no trigger fires on every hit); an infinite delay sleeps forever.
  EXPECT_THROW(parse_fault_spec("socket_write:reset@p=nan"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write:delay(inf)"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write:reset@p=0.5x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("socket_write:reset@n=1,2x"), std::invalid_argument);
}

TEST_F(FaultTest, PointNamesRoundTrip) {
  for (std::size_t p = 0; p < kFaultPointCount; ++p) {
    const auto point = static_cast<FaultPoint>(p);
    FaultPoint back = FaultPoint::kSocketConnect;
    ASSERT_TRUE(fault_point_from_name(fault_point_name(point), back))
        << fault_point_name(point);
    EXPECT_EQ(back, point);
  }
  FaultPoint ignored;
  EXPECT_FALSE(fault_point_from_name("not_a_point", ignored));
}

TEST_F(FaultTest, DisarmedFastPathIsANoOp) {
  FaultInjector& injector = FaultInjector::global();
  injector.add_rules(parse_fault_spec("socket_write:drop"));
  // Never armed: check() returns kNone and does not even count the hit.
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(static_cast<bool>(check(FaultPoint::kSocketWrite)));
  EXPECT_EQ(injector.hits(FaultPoint::kSocketWrite), 0u);
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST_F(FaultTest, HitIndicesFireExactlyWhereListed) {
  FaultInjector& injector = FaultInjector::global();
  injector.add_rules(parse_fault_spec("socket_read:drop@n=2,5"));
  injector.arm(1);
  std::vector<std::size_t> fired;
  for (std::size_t hit = 1; hit <= 6; ++hit) {
    if (check(FaultPoint::kSocketRead)) fired.push_back(hit);
  }
  EXPECT_EQ(fired, (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(injector.hits(FaultPoint::kSocketRead), 6u);
  EXPECT_EQ(injector.fires(FaultPoint::kSocketRead), 2u);
}

TEST_F(FaultTest, EveryNWithLimitStopsFiring) {
  FaultInjector& injector = FaultInjector::global();
  injector.add_rules(parse_fault_spec("frame_decode:drop@every=3@limit=2"));
  injector.arm(1);
  std::vector<std::size_t> fired;
  for (std::size_t hit = 1; hit <= 12; ++hit) {
    if (check(FaultPoint::kFrameDecode)) fired.push_back(hit);
  }
  // every=3 would fire at 3, 6, 9, 12; limit=2 stops after two fires.
  EXPECT_EQ(fired, (std::vector<std::size_t>{3, 6}));
  EXPECT_EQ(injector.total_fires(), 2u);
}

TEST_F(FaultTest, BernoulliScheduleIsSeedDeterministic) {
  FaultInjector& injector = FaultInjector::global();
  const auto rules = parse_fault_spec("socket_write:reset@p=0.3");

  const auto sample = [&](std::uint64_t seed) {
    injector.reset();
    injector.add_rules(rules);
    injector.arm(seed);
    std::vector<bool> fires;
    fires.reserve(200);
    for (int i = 0; i < 200; ++i) {
      fires.push_back(static_cast<bool>(check(FaultPoint::kSocketWrite)));
    }
    return fires;
  };

  const auto first = sample(42);
  const auto replay = sample(42);
  EXPECT_EQ(first, replay);  // same seed -> identical schedule

  const std::size_t fired =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 20u);  // p=0.3 over 200 hits: far from 0...
  EXPECT_LT(fired, 120u);  // ...and far from always
}

TEST_F(FaultTest, ObserverSeesEveryFire) {
  FaultInjector& injector = FaultInjector::global();
  injector.add_rules(parse_fault_spec("journal_append:partial@n=1,3"));
  int calls = 0;
  FaultPoint last_point = FaultPoint::kSocketConnect;
  FaultAction::Kind last_kind = FaultAction::Kind::kNone;
  injector.set_observer([&](FaultPoint point, const FaultAction& action) {
    ++calls;
    last_point = point;
    last_kind = action.kind;
  });
  injector.arm(7);
  for (int i = 0; i < 4; ++i) check(FaultPoint::kJournalAppend);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(last_point, FaultPoint::kJournalAppend);
  EXPECT_EQ(last_kind, FaultAction::Kind::kPartial);
}

TEST_F(FaultTest, ResetClearsRulesCountersAndObserver) {
  FaultInjector& injector = FaultInjector::global();
  injector.add_rules(parse_fault_spec("socket_write:drop"));
  int calls = 0;
  injector.set_observer([&](FaultPoint, const FaultAction&) { ++calls; });
  injector.arm(1);
  ASSERT_TRUE(static_cast<bool>(check(FaultPoint::kSocketWrite)));
  ASSERT_EQ(calls, 1);

  injector.reset();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.hits(FaultPoint::kSocketWrite), 0u);
  EXPECT_EQ(injector.total_fires(), 0u);
  // Re-armed with no rules: nothing fires, the old observer stays gone.
  injector.arm(1);
  EXPECT_FALSE(static_cast<bool>(check(FaultPoint::kSocketWrite)));
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace cwc::fault
