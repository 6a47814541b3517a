// Live telemetry plane, end to end: a real CwcServer with real PhoneAgents
// over loopback, an ObsHttpServer exposing the registries, and a raw HTTP
// client (the same framing cwc_top uses) asserting that keep-alive RTT
// histograms and per-phone gauges show up in /metrics mid-run, and that an
// attached endpoint writes a large response to a slow scraper without
// blocking its loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/obs_http.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "tasks/generators.h"

namespace cwc::net {
namespace {

ServerConfig fast_config() {
  ServerConfig config;
  config.keepalive_period = 50.0;
  config.keepalive_misses = 3;
  config.scheduling_period = 50.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 16 * 1024;
  return config;
}

PhoneAgentConfig agent_config(PhoneId id, MsPerKb compute) {
  PhoneAgentConfig config;
  config.id = id;
  config.cpu_mhz = 1000.0;
  config.emulated_compute_ms_per_kb = compute;
  return config;
}

/// One blocking GET, as cwc_top does it; empty string on any failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  try {
    TcpConnection conn = TcpConnection::connect_local(port);
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n";
    conn.send_all({reinterpret_cast<const std::uint8_t*>(request.data()), request.size()});
    std::string response;
    Blob buffer(kRecvBufferBytes);
    while (true) {
      const auto n = conn.recv_into(buffer);
      if (!n || *n == 0) break;
      response.append(reinterpret_cast<const char*>(buffer.data()), *n);
    }
    return response;
  } catch (const SocketError&) {
    return {};
  }
}

std::string body_of(const std::string& response) {
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : response.substr(split + 4);
}

/// Value of the first exposition line starting with `name` (exact token
/// match up to a space or '{'), or -1 if absent.
double metric_value(const std::string& body, const std::string& name) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    auto eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    if (line.compare(0, name.size(), name) == 0 && line.size() > name.size() &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      const auto space = line.rfind(' ');
      if (space != std::string::npos) return std::stod(line.substr(space + 1));
    }
    pos = eol + 1;
  }
  return -1.0;
}

TEST(TelemetryLive, MetricsEndpointServesFleetMidRun) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, fast_config());
  Rng rng(21);
  // Enough emulated compute that the batch outlives several keep-alive
  // periods, so RTT samples exist while we poll.
  server.submit("prime-count", tasks::make_integer_input(rng, 256.0));

  ObsHttpServer obs(0);
  obs.start();

  std::vector<std::unique_ptr<PhoneAgent>> agents;
  for (PhoneId id = 0; id < 2; ++id) {
    agents.push_back(
        std::make_unique<PhoneAgent>(server.port(), agent_config(id, 8.0), &registry));
    agents.back()->start();
  }
  std::atomic<bool> run_ok{false};
  std::thread runner([&] { run_ok.store(server.run(2, seconds(60.0))); });

  // /healthz answers immediately, before any fleet state exists.
  EXPECT_EQ(body_of(http_get(obs.port(), "/healthz")), "ok\n");

  // Poll /metrics until the keep-alive histogram and per-phone gauges are
  // live (or the deadline passes and the assertions below report why).
  std::string body;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    body = body_of(http_get(obs.port(), "/metrics"));
    if (metric_value(body, "cwc_server_keepalive_rtt_ms_count") > 0.0 &&
        body.find("cwc_phone_health_state{phone=\"0\"}") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(metric_value(body, "cwc_server_keepalive_rtt_ms_count"), 0.0) << body;
  EXPECT_GE(metric_value(body, "cwc_server_keepalive_rtt_ms_p99"), 0.0);
  EXPECT_NE(body.find("cwc_phone_health_state{phone=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("cwc_phone_cache_pct{phone=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("cwc_phone_charging{phone=\"1\"}"), std::string::npos);
  EXPECT_NE(body.find("cwc_fleet_phones_connected"), std::string::npos);
  // Histogram exposition is well-formed: cumulative buckets end at +Inf.
  EXPECT_NE(body.find("cwc_server_keepalive_rtt_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);

  runner.join();
  EXPECT_TRUE(run_ok.load());
  for (auto& agent : agents) agent->join();

  // Post-run, the same endpoint still serves; JSON carries the latency
  // section alongside the snapshot schema.
  const std::string json = body_of(http_get(obs.port(), "/metrics.json"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("server.keepalive_rtt_ms"), std::string::npos);
  // Structural well-formedness: every brace/bracket outside a string must
  // balance, and never go negative. Guards the latency-section splice,
  // which once ate the snapshot's last closing brace.
  {
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
      const char c = json[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      else if (c == '{' || c == '[') ++depth;
      else if (c == '}' || c == ']') --depth;
      ASSERT_GE(depth, 0) << "unbalanced close at byte " << i;
    }
    EXPECT_EQ(depth, 0) << "unclosed braces in /metrics.json:\n" << json;
  }

  EXPECT_NE(http_get(obs.port(), "/nope").find("404"), std::string::npos);
  EXPECT_GE(obs.requests_served(), 4u);
  obs.stop();
}

TEST(TelemetryLive, AgentStatsReachPhoneGauges) {
  // Agent-shipped stats ride the keep-alive ack: after a run the per-phone
  // gauges include fields only the agent knows (charging, replay depth).
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, fast_config());
  Rng rng(22);
  server.submit("prime-count", tasks::make_integer_input(rng, 64.0));

  PhoneAgent agent(server.port(), agent_config(0, 4.0), &registry);
  agent.start();
  ASSERT_TRUE(server.run(1, seconds(30.0)));
  agent.join();

  const std::string body = render_prometheus();
  EXPECT_NE(body.find("cwc_phone_charging{phone=\"0\"}"), std::string::npos) << body;
  EXPECT_NE(body.find("cwc_phone_replay_depth{phone=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("cwc_phone_in_flight{phone=\"0\"}"), std::string::npos);
}

TEST(TelemetryLive, AttachedScrapeLargerThanTheSocketBuffersDrainsOnTheLoop) {
  // Long gauge names make a /metrics body of ~8 MB, more than the kernel
  // buffers for a scraper that is not reading yet: the attached server
  // must write it through the scrape's outbox while its loop keeps
  // turning, then close the connection.
  const std::string padding(32 * 1024, 'x');
  for (int i = 0; i < 128; ++i) {
    obs::gauge("test.attached_scrape." + std::to_string(i) + "." + padding).set(i);
  }
  EventLoop loop;
  ObsHttpServer obs(0);
  obs.attach(loop);
  int ticks = 0;
  const TimerId tick = loop.every(5.0, [&] { ++ticks; });
  const double stalled_before = obs::counter("net.send_stall_ms").value();

  std::atomic<bool> done{false};
  std::string response;
  std::thread scraper([&] {
    TcpConnection conn = TcpConnection::connect_local(obs.port());
    const std::string request = "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
    conn.send_all({reinterpret_cast<const std::uint8_t*>(request.data()), request.size()});
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // a slow reader
    Blob buffer(kRecvBufferBytes);
    while (true) {
      const auto n = conn.recv_into(buffer);
      if (!n || *n == 0) break;
      response.append(reinterpret_cast<const char*>(buffer.data()), *n);
    }
    done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) loop.run_once(5.0);
  scraper.join();
  loop.cancel(tick);
  obs.detach();

  ASSERT_TRUE(done.load());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_GT(response.size(), 8'000'000u);
  EXPECT_NE(body_of(response).find("cwc_test_attached_scrape_127_" + padding + " 127\n"),
            std::string::npos);
  EXPECT_EQ(obs.requests_served(), 1u);
  // The loop served its timers while the scraper was not reading, and the
  // outbox recorded how long the response sat refused.
  EXPECT_GE(ticks, 10);
  EXPECT_GT(obs::counter("net.send_stall_ms").value(), stalled_before);
}

}  // namespace
}  // namespace cwc::net
