// The healthy-peer liveness invariant (exit 15): which schedules it judges
// — only those whose every rule degrades a named phone — and its place in
// the exit-code contract CI keys off.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "soak/soak.h"

namespace cwc::soak {
namespace {

SoakSchedule schedule_of(std::vector<std::string> events) {
  SoakSchedule schedule;
  schedule.seed = 1;
  schedule.events = std::move(events);
  return schedule;
}

TEST(SoakHealthyPeer, ExitCodeIsFifteen) {
  EXPECT_EQ(exit_code(Invariant::kHealthyPeerLost), 15);
  EXPECT_STREQ(invariant_name(Invariant::kHealthyPeerLost), "healthy_peer_lost");
}

TEST(SoakHealthyPeer, NamedPhonesOfATargetedSchedule) {
  const SoakSchedule targeted = schedule_of({"link:phone=3:slow@latency=80ms,dir=to",
                                             "link:phone=1:partition@t=1s,dur=2s,dir=from",
                                             "link:phone=3:burst@p=0.2"});
  const auto named = targeted.named_phones();
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(*named, (std::set<PhoneId>{1, 3}));
  // No rule at all: every phone is healthy.
  EXPECT_EQ(schedule_of({}).named_phones(), std::set<PhoneId>{});
}

TEST(SoakHealthyPeer, UntargetedSchedulesAreNotJudged) {
  // A '*' rule, a point fault, a server kill or churn can legitimately
  // cost any phone its liveness.
  const SoakSchedule wildcard = schedule_of({"link:phone=3:slow@latency=80ms", "link:*:burst"});
  EXPECT_FALSE(wildcard.named_phones().has_value());
  const SoakSchedule point = schedule_of({"link:phone=3:slow@latency=80ms", "socket_write:reset"});
  EXPECT_FALSE(point.named_phones().has_value());
  SoakSchedule killed = schedule_of({"link:phone=3:slow@latency=80ms"});
  killed.kill_server = true;
  EXPECT_FALSE(killed.named_phones().has_value());
  SoakSchedule churned = schedule_of({"link:phone=3:slow@latency=80ms"});
  churned.churn = 1;
  EXPECT_FALSE(churned.named_phones().has_value());
}

}  // namespace
}  // namespace cwc::soak
