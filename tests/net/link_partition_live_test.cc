// Asymmetric-partition legs on the live stack: a seeded link rule drops
// one *direction* of one phone's traffic for a window while everything
// else flows. The recovery machinery (RPC timeouts, seeded reconnect
// backoff, register replay, assignment re-delivery, report replay caches)
// must carry the fleet across the heal with zero lost and zero
// double-banked work — proven by byte-comparing every job result against
// a fault-free reference run of identical inputs.
//
// Two more legs pin the server's non-blocking send path: a slow downlink
// to one phone and a phone that stops reading must each cost only that
// phone, never a healthy phone its keep-alive liveness.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/link_fault.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/framing.h"
#include "net/phone_agent.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/link_obs.h"
#include "obs/metrics.h"
#include "tasks/generators.h"
#include "tasks/registry.h"

namespace cwc::net {
namespace {

constexpr std::uint64_t kInputSeed = 0x5eedf00dULL;

struct RunOutput {
  bool completed = false;
  std::vector<Blob> results;
  std::map<PhoneId, std::size_t> losses;  ///< phone -> times declared lost
};

/// One server + N agents batch over loopback, identical inputs every call.
RunOutput run_batch(int phones, const tasks::TaskRegistry& registry,
                    Millis keepalive_period = 150.0) {
  ServerConfig config;
  config.port = 0;
  config.keepalive_period = keepalive_period;
  config.keepalive_misses = 3;
  config.scheduling_period = 100.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 8 * 1024;
  config.assign_retry_period = 400.0;
  config.assign_max_retries = 8;
  config.rpc_timeout = 3000.0;
  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, config);

  Rng rng(kInputSeed);
  std::vector<JobId> ids;
  // Sized so the batch spans the fault windows below: at ~1 ms/KB emulated
  // compute split across the fleet, the run lasts a healthy multiple of
  // the longest partition (a 96 KB batch finishes in under 200 ms and the
  // windows would never bite).
  ids.push_back(server.submit("prime-count", tasks::make_integer_input(rng, 1024.0)));
  ids.push_back(server.submit("word-count:error", tasks::make_text_input(rng, 256.0)));

  std::vector<std::unique_ptr<PhoneAgent>> agents;
  for (int i = 0; i < phones; ++i) {
    PhoneAgentConfig pc;
    pc.id = static_cast<PhoneId>(i + 1);
    pc.max_reconnects = 200;
    pc.reconnect_backoff = 50.0;
    pc.reconnect_backoff_max = 400.0;
    pc.backoff_seed = 77u + static_cast<std::uint64_t>(i);
    pc.rpc_timeout = 2000.0;
    pc.cpu_mhz = 800.0 + 100.0 * static_cast<double>(i);
    pc.emulated_compute_ms_per_kb = 1.0;
    pc.step_bytes = 8 * 1024;
    agents.push_back(std::make_unique<PhoneAgent>(server.port(), pc, &registry));
    agents.back()->start();
  }

  RunOutput out;
  out.completed = server.run(phones, seconds(30.0));
  out.losses = server.losses_by_phone();
  agents.clear();
  if (out.completed) {
    for (JobId id : ids) out.results.push_back(server.result(id));
  }
  return out;
}

TEST(LinkPartitionLive, AsymmetricPartitionHealsWithoutDuplicateBanking) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  auto& plane = fault::LinkFaultPlane::global();

  // Fault-free reference: the ground truth the partitioned run must hit.
  plane.reset();
  const RunOutput reference = run_batch(/*phones=*/3, registry);
  ASSERT_TRUE(reference.completed);

  // Asymmetric partition: phone 2's *uplink* (phone -> server) is dead for
  // 1.2 s starting 200 ms in — registers, probe streams, and completion
  // reports from phone 2 vanish while server -> phone traffic flows. A
  // second window later in the run catches re-registered state too.
  plane.reset();
  plane.add_rules("link:phone=2:partition@t=200ms,dur=1200ms,dir=from;"
                  "link:phone=2:partition@t=2500ms,dur=600ms,dir=from");
  obs::arm_link_telemetry();
  const double drops_before = obs::counter("link.partition_drops").value();
  plane.arm(/*seed=*/42);
  const RunOutput partitioned = run_batch(/*phones=*/3, registry);
  plane.reset();

  // The partition actually bit (uplink frames were dropped), and the
  // healed side re-registered and finished the batch.
  EXPECT_GT(obs::counter("link.partition_drops").value(), drops_before);
  ASSERT_TRUE(partitioned.completed);

  // Exactly-once banking across the heal: any report that was dropped and
  // later replayed must be banked exactly once, so every job's aggregated
  // result is byte-identical to the reference.
  ASSERT_EQ(partitioned.results.size(), reference.results.size());
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(partitioned.results[i], reference.results[i]) << "job " << i;
  }
}

TEST(LinkPartitionLive, ReversePartitionBlocksDownlinkOnly) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  auto& plane = fault::LinkFaultPlane::global();

  plane.reset();
  const RunOutput reference = run_batch(/*phones=*/2, registry);
  ASSERT_TRUE(reference.completed);

  // The mirror image: server -> phone 1 (downlink) partitioned, so
  // assignments and probes toward phone 1 vanish while its reports flow.
  plane.reset();
  plane.add_rules("link:phone=1:partition@t=150ms,dur=900ms,dir=to");
  obs::arm_link_telemetry();
  plane.arm(/*seed=*/43);
  const RunOutput partitioned = run_batch(/*phones=*/2, registry);
  plane.reset();

  ASSERT_TRUE(partitioned.completed);
  ASSERT_EQ(partitioned.results.size(), reference.results.size());
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(partitioned.results[i], reference.results[i]) << "job " << i;
  }
}

TEST(LinkPartitionLive, SlowDownlinkCostsNoOtherPhoneItsLiveness) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  auto& plane = fault::LinkFaultPlane::global();
  constexpr Millis kKeepalive = 100.0;

  plane.reset();
  const RunOutput reference = run_batch(/*phones=*/4, registry, kKeepalive);
  ASSERT_TRUE(reference.completed);

  // Every frame toward phone 3 is released 80 ms late — most of a
  // keep-alive period. The lateness must stay on phone 3's link: pings to
  // the other phones leave on time, so none of them misses an ack.
  plane.reset();
  plane.add_rules("link:phone=3:slow@latency=80ms,dir=to");
  obs::arm_link_telemetry();
  const double paced_before = obs::counter("link.paced_sends").value();
  plane.arm(/*seed=*/44);
  const RunOutput slowed = run_batch(/*phones=*/4, registry, kKeepalive);
  plane.reset();

  EXPECT_GT(obs::counter("link.paced_sends").value(), paced_before);
  ASSERT_TRUE(slowed.completed);
  for (const auto& [phone, losses] : slowed.losses) {
    EXPECT_EQ(phone, 3) << "healthy phone " << phone << " declared lost " << losses << " times";
  }
  ASSERT_EQ(slowed.results.size(), reference.results.size());
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(slowed.results[i], reference.results[i]) << "job " << i;
  }
}

/// A phone that registers and answers its probe like an agent, then never
/// reads again: its receive window fills and every server send to it
/// stalls. Records when it stopped reading.
class WedgedPeer {
 public:
  WedgedPeer(std::uint16_t port, PhoneId id) : thread_([this, port, id] { run(port, id); }) {}
  ~WedgedPeer() {
    stop_.store(true);
    thread_.join();
  }
  WedgedPeer(const WedgedPeer&) = delete;
  WedgedPeer& operator=(const WedgedPeer&) = delete;

  /// When the probe report went out (the peer stopped reading), if it did.
  std::optional<std::chrono::steady_clock::time_point> stopped_reading() const {
    if (!wedged_.load()) return std::nullopt;
    return stopped_at_;
  }

 private:
  void run(std::uint16_t port, PhoneId id) {
    try {
      TcpConnection conn = TcpConnection::connect_local(port);
      // A small, fixed receive buffer: the assignment cannot hide in it.
      const int bytes = 4096;
      ::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
      RegisterMsg reg;
      reg.phone = id;
      reg.cpu_mhz = 8000.0;  // the fastest phone: it is given the largest piece
      reg.ram_kb = 512.0 * 1024.0;
      write_frame(conn, encode(reg));
      FrameDecoder decoder;
      Blob buffer(kRecvBufferBytes);
      std::uint32_t probe_chunks_left = 0;
      while (!wedged_.load() && !stop_.load()) {
        if (poll_one(conn.fd(), POLLIN, 50) == 0) continue;
        const auto n = conn.recv_into(buffer);
        if (!n || *n == 0) return;
        decoder.feed({buffer.data(), *n});
        while (!wedged_.load()) {
          const auto frame = decoder.pop();
          if (!frame) break;
          switch (peek_type(*frame)) {
            case MsgType::kProbeRequest:
              probe_chunks_left = decode_probe_request(*frame).chunks;
              break;
            case MsgType::kProbeData:
              if (probe_chunks_left > 0 && --probe_chunks_left == 0) {
                write_frame(conn, encode(ProbeReportMsg{1e6}));
                stopped_at_ = std::chrono::steady_clock::now();
                wedged_.store(true);
              }
              break;
            case MsgType::kKeepAlive:
              write_frame(conn, encode_keepalive_ack(decode_keepalive(*frame).seq));
              break;
            default:
              break;
          }
        }
      }
      // Wedged: hold the connection open, never read again.
      while (!stop_.load()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } catch (const std::exception&) {
      // stopped_reading() stays empty; the test reports it
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> wedged_{false};
  std::chrono::steady_clock::time_point stopped_at_{};  ///< written before wedged_
  std::thread thread_;  ///< last: starts after the members it uses
};

TEST(LinkPartitionLive, WedgedReaderIsTheOnlyPhoneLost) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  fault::LinkFaultPlane::global().reset();
  ServerConfig config;
  // Slack for slow (Debug, sanitizer) builds: the healthy agents must ack
  // while they receive and decode multi-MB assignments.
  config.keepalive_period = 250.0;
  config.keepalive_misses = 3;
  config.scheduling_period = 100.0;
  config.probe_chunks = 2;
  config.probe_chunk_bytes = 8 * 1024;
  config.rpc_timeout = 3000.0;
  CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                   &registry, config);

  // The wedged phone's share of this job is several MB: more than the
  // server's send buffer and the peer's receive buffer hold together.
  Rng rng(kInputSeed);
  const Blob input = tasks::make_text_input(rng, 8.0 * 1024.0);
  const tasks::TaskFactory& factory = registry.require("word-count:error");
  const Blob expected = factory.aggregate({tasks::run_to_completion(factory, input)});
  const JobId job = server.submit("word-count:error", input);

  constexpr PhoneId kWedged = 3;
  std::optional<std::chrono::steady_clock::time_point> lost_at;
  const TimerId watch = server.loop().every(2.0, [&] {
    if (!lost_at && server.losses_by_phone().count(kWedged) != 0) {
      lost_at = std::chrono::steady_clock::now();
    }
  });
  WedgedPeer wedged(server.port(), kWedged);
  std::vector<std::unique_ptr<PhoneAgent>> agents;
  for (PhoneId id : {PhoneId{1}, PhoneId{2}}) {
    PhoneAgentConfig pc;
    pc.id = id;
    pc.cpu_mhz = 1000.0;
    pc.rpc_timeout = 2000.0;
    pc.step_bytes = 64 * 1024;
    agents.push_back(std::make_unique<PhoneAgent>(server.port(), pc, &registry));
    agents.back()->start();
  }
  const double stalls_before = obs::counter("net.send_stall_ms").value();
  const bool completed = server.run(/*expected_phones=*/3, seconds(20.0));
  server.loop().cancel(watch);
  agents.clear();

  ASSERT_TRUE(completed);
  EXPECT_EQ(server.result(job), expected);
  // Only the wedged phone was lost, and the keep-alive rule caught it in
  // time: consecutive misses bound detection at period x (misses + 1),
  // plus one period of slack for the loop's timing.
  const auto& losses = server.losses_by_phone();
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_EQ(losses.begin()->first, kWedged);
  const auto stopped = wedged.stopped_reading();
  ASSERT_TRUE(stopped.has_value());
  ASSERT_TRUE(lost_at.has_value());
  const double detect_ms = std::chrono::duration<double, std::milli>(*lost_at - *stopped).count();
  const double bound_ms = config.keepalive_period * (config.keepalive_misses + 1) +
                          config.keepalive_period;
  EXPECT_LE(detect_ms, bound_ms);
  // The assignment really stalled in the outbox rather than fitting in the
  // socket buffers.
  EXPECT_GT(obs::counter("net.send_stall_ms").value(), stalls_before);
}

}  // namespace
}  // namespace cwc::net
