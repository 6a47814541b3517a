// A stalled server loop must not lose a healthy fleet. One report handler
// blocks the loop thread for five keep-alive periods while four healthy
// agents keep acking; the catch-up after the stall must count at most one
// miss per phone, so no phone is declared lost and no agent has to
// reconnect.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "tasks/generators.h"
#include "tasks/registry.h"

namespace cwc::net {
namespace {

class LoopStallLive : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::global().reset(); }
  void TearDown() override { fault::FaultInjector::global().reset(); }
};

TEST_F(LoopStallLive, ReportHandlerStallLosesNoPhone) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  fault::FaultInjector& injector = fault::FaultInjector::global();
  // The second report the server handles sleeps 500 ms on the loop
  // thread: five periods of the 100 ms keep-alive below.
  injector.add_rules(fault::parse_fault_spec("report_handling:delay(500)@n=2"));
  injector.arm(1);

  ServerConfig config;
  config.port = 0;
  config.keepalive_period = 100.0;
  config.keepalive_misses = 3;
  config.scheduling_period = 500.0;
  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, config);
  Rng rng(3);
  for (int j = 0; j < 8; ++j) {
    server.submit("prime-count", tasks::make_integer_input(rng, 512.0));
  }

  std::vector<std::unique_ptr<PhoneAgent>> agents;
  for (int i = 0; i < 4; ++i) {
    PhoneAgentConfig pc;
    pc.id = static_cast<PhoneId>(i);
    pc.emulated_compute_ms_per_kb = 2.0;
    // Agents may reconnect, so a regression fails the loss assertion below
    // instead of stalling the batch.
    pc.max_reconnects = 5;
    pc.reconnect_backoff = 50.0;
    agents.push_back(std::make_unique<PhoneAgent>(server.port(), pc, &registry));
    agents.back()->start();
  }

  const double drops_before = obs::counter("net.server.keepalive.drops").value();
  const bool completed = server.run(4, seconds(60.0));
  agents.clear();

  ASSERT_TRUE(completed);
  ASSERT_GE(injector.fires(fault::FaultPoint::kReportHandling), 1u) << "the stall never ran";
  EXPECT_EQ(server.phones_lost(), 0u);
  EXPECT_EQ(obs::counter("net.server.keepalive.drops").value(), drops_before);
}

}  // namespace
}  // namespace cwc::net
