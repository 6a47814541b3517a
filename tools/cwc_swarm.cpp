// cwc_swarm — loopback scale harness: N in-process agents against a real
// server socket.
//
// The server runs on the main thread exactly as production does (event
// loop, timer wheel, single writer). The agents are NOT PhoneAgent
// threads: each shard thread multiplexes hundreds of lightweight agent
// state machines on its own EventLoop, so a 10k-agent fleet costs a
// handful of threads instead of 10k. Every agent walks the full protocol
// — register, probe, keep-alive acks, piece execution, shutdown — and the
// run gates on completion, the server's live keep-alive RTT p99, and the
// quarantine count.
//
// Examples:
//   cwc_swarm --agents=1000 --p99-budget-ms=500
//   cwc_swarm --agents=10000 --threads=4 --keepalive-ms=3000 --p99-budget-ms=0
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/obs_http.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/latency_hist.h"
#include "obs/metrics.h"
#include "tasks/generators.h"
#include "tasks/registry.h"

using namespace cwc;

namespace {

constexpr const char* kUsage = R"(cwc_swarm: loopback scale harness
  --agents=N           fleet size (default 1000)
  --threads=N          agent shard threads (default 4)
  --keepalive-ms=N     server keep-alive period (default 500)
  --warmup-ms=N        hold the fleet idle (heartbeating) this long before
                       submitting the job, so the keep-alive p99 reflects
                       steady state at full fleet size (default 2500)
  --job-kb=N           synthetic prime-count job size (default 512)
  --timeout-s=N        overall run deadline (default 120)
  --p99-budget-ms=X    fail if the server's keep-alive RTT p99 exceeds X
                       (0 disables the gate; default 500)
  --max-quarantines=N  fail if health.quarantines exceeds N (default 0)
  --obs-port=N         also serve /metrics from the server loop (optional)
  --verbose            info-level logging
)";

/// One lightweight agent: a connection plus the protocol state machine,
/// driven entirely by its shard's EventLoop.
struct SwarmAgent {
  PhoneId id = kInvalidPhone;
  net::TcpConnection conn;
  net::FrameDecoder decoder;
  std::uint32_t probe_chunks_left = 0;
  bool done = false;  // shutdown received or connection closed
};

struct ShardStats {
  std::size_t shutdowns = 0;
  std::size_t errors = 0;
};

/// Raises RLIMIT_NOFILE as far as the kernel allows toward `needed` and
/// returns the achieved soft limit. Environments without CAP_SYS_RESOURCE
/// stop at the hard limit; the caller decides whether to shard the fleet
/// into child processes instead.
rlim_t raise_fd_limit(rlim_t needed) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= needed) return lim.rlim_cur;
  rlimit want{needed, std::max(needed, lim.rlim_max)};
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return want.rlim_cur;
  want = {std::min(needed, lim.rlim_max), lim.rlim_max};
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return want.rlim_cur;
  return lim.rlim_cur;
}

/// Executes an assignment to completion and returns the completion report.
net::PieceCompleteMsg execute_piece(const tasks::TaskRegistry& registry,
                                    const net::AssignPieceMsg& assignment) {
  const auto start = std::chrono::steady_clock::now();
  const tasks::TaskFactory& factory = registry.require(assignment.task_name);
  auto task = factory.create();
  const tasks::ByteView input(assignment.input);
  std::size_t budget = 64 * 1024;
  while (!task->done(input)) {
    if (task->step(input, budget) == 0 && !task->done(input)) budget *= 2;
  }
  net::PieceCompleteMsg completion;
  completion.job = assignment.job;
  completion.piece_seq = assignment.piece_seq;
  completion.piece = assignment.trace_piece;
  completion.attempt = assignment.trace_attempt;
  completion.partial_result = task->partial_result();
  completion.local_exec_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return completion;
}

/// Handles one decoded frame for one agent; returns false when the agent
/// is finished (shutdown) and its watcher should go away.
void handle_agent_frame(SwarmAgent& agent, const net::Blob& frame,
                        const tasks::TaskRegistry& registry) {
  switch (net::peek_type(frame)) {
    case net::MsgType::kRegisterAck:
      break;  // probe request follows
    case net::MsgType::kProbeRequest:
      agent.probe_chunks_left = net::decode_probe_request(frame).chunks;
      if (agent.probe_chunks_left == 0) {
        net::write_frame(agent.conn, net::encode(net::ProbeReportMsg{10'000.0}));
      }
      break;
    case net::MsgType::kProbeData:
      if (agent.probe_chunks_left > 0 && --agent.probe_chunks_left == 0) {
        // Deterministic measured rate: the swarm measures the server, not
        // the loopback device.
        net::write_frame(agent.conn, net::encode(net::ProbeReportMsg{10'000.0}));
      }
      break;
    case net::MsgType::kKeepAlive:
      net::write_frame(agent.conn,
                       net::encode_keepalive_ack(net::decode_keepalive(frame).seq));
      break;
    case net::MsgType::kAssignPiece: {
      const net::AssignPieceMsg assignment = net::decode_assign_piece(frame);
      net::write_frame(agent.conn, net::encode(execute_piece(registry, assignment)));
      break;
    }
    case net::MsgType::kCancelPiece:
      break;  // no speculation in this harness
    case net::MsgType::kShutdown:
      agent.done = true;
      break;
    default:
      break;
  }
}

/// One shard: connects its slice of the fleet, then multiplexes all of
/// those agents on a private EventLoop until every one saw shutdown (or
/// the deadline passes).
void run_shard(std::uint16_t port, PhoneId first_id, std::size_t count, Millis deadline_ms,
               const tasks::TaskRegistry& registry, ShardStats& stats) {
  net::EventLoop loop;
  std::vector<std::unique_ptr<SwarmAgent>> agents;
  agents.reserve(count);
  std::size_t live = 0;
  net::Blob recv_buffer(net::kRecvBufferBytes);  // shared: the shard's loop is single-threaded

  const auto connect_deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double, std::milli>(deadline_ms);
  for (std::size_t i = 0; i < count; ++i) {
    auto agent = std::make_unique<SwarmAgent>();
    agent->id = first_id + static_cast<PhoneId>(i);
    // The accept backlog can overflow under a 10k connect storm; retry
    // with a small sleep rather than giving up.
    while (true) {
      try {
        agent->conn = net::TcpConnection::connect_local(port);
        break;
      } catch (const net::SocketError&) {
        if (std::chrono::steady_clock::now() >= connect_deadline) {
          ++stats.errors;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    net::RegisterMsg reg;
    reg.phone = agent->id;
    reg.cpu_mhz = 1000.0;
    reg.ram_kb = 256.0 * 1024.0;
    net::write_frame(agent->conn, net::encode(reg));
    agent->conn.set_nonblocking(true);

    SwarmAgent* raw = agent.get();
    loop.watch_fd(raw->conn.fd(), [&loop, &registry, &stats, &live, &recv_buffer, raw] {
      try {
        while (raw->conn.valid() && !raw->done) {
          const auto n = raw->conn.recv_into(recv_buffer);
          if (!n) break;  // drained
          if (*n == 0) {
            raw->done = true;  // server closed without shutdown (error path)
            ++stats.errors;
            break;
          }
          raw->decoder.feed({recv_buffer.data(), *n});
          while (auto frame = raw->decoder.pop()) {
            handle_agent_frame(*raw, *frame, registry);
            if (raw->done) {
              ++stats.shutdowns;
              break;
            }
          }
        }
      } catch (const std::exception&) {
        raw->done = true;
        ++stats.errors;
      }
      if (raw->done && raw->conn.valid()) {
        loop.unwatch_fd(raw->conn.fd());
        raw->conn.close();
        --live;
        if (live == 0) loop.stop();
      }
    });
    ++live;
    agents.push_back(std::move(agent));
  }

  loop.schedule(deadline_ms, [&loop] { loop.stop(); });
  if (live > 0) loop.run();
  for (auto& agent : agents) {
    if (agent->conn.valid()) {
      loop.unwatch_fd(agent->conn.fd());
      agent->conn.close();
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown =
      flags.unknown({"agents", "threads", "keepalive-ms", "warmup-ms", "job-kb", "timeout-s",
                     "p99-budget-ms", "max-quarantines", "obs-port", "verbose", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);

  const auto agents = static_cast<std::size_t>(flags.get_int("agents", 1000));
  const auto threads =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   static_cast<std::size_t>(flags.get_int("threads", 4)),
                                   agents));
  const Millis timeout = seconds(static_cast<double>(flags.get_int("timeout-s", 120)));
  const double p99_budget = flags.get_double("p99-budget-ms", 500.0);
  const auto max_quarantines = static_cast<double>(flags.get_int("max-quarantines", 0));

  // One process needs both sides of every connection (2 fds per agent)
  // plus slack. When the kernel caps us below that (no CAP_SYS_RESOURCE),
  // the agent shards fork into child processes instead of threads, so the
  // server keeps `agents + slack` fds and each child its shard's worth.
  const rlim_t fd_needed = static_cast<rlim_t>(2 * agents + 512);
  const rlim_t fd_limit = raise_fd_limit(fd_needed);
  const bool fork_shards = fd_limit < fd_needed;
  if (fork_shards) {
    std::printf("cwc_swarm: fd limit %llu < %llu; forking agent shards\n",
                static_cast<unsigned long long>(fd_limit),
                static_cast<unsigned long long>(fd_needed));
  }

  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  net::ServerConfig config;
  config.port = 0;  // kernel-assigned
  config.keepalive_period = static_cast<Millis>(flags.get_int("keepalive-ms", 500));
  config.scheduling_period = 250.0;
  config.probe_chunks = 1;
  config.probe_chunk_bytes = 4 * 1024;
  config.chunk_bytes = 0;       // full shipping; the swarm agents carry no cache
  config.rpc_timeout = 60'000;  // generous: a 10k registration wave takes a while
  net::CwcServer server(std::make_unique<core::GreedyScheduler>(), core::paper_prediction(),
                        &registry, config);

  Rng rng(20260808);  // fixed seed: reproducible swarm input
  const double job_kb = static_cast<double>(flags.get_int("job-kb", 512));
  auto input = std::make_shared<net::Blob>(tasks::make_integer_input(rng, job_kb));
  // The job is submitted from a loop timer after the warmup: the fleet
  // first sits fully connected and heartbeating, so the keep-alive p99
  // gate below measures steady state at fleet size, not an empty server.
  const auto warmup = static_cast<Millis>(flags.get_int("warmup-ms", 2500));
  server.loop().schedule(std::max(1.0, warmup), [&server, input] {
    server.submit("prime-count", std::move(*input));
  });

  std::unique_ptr<net::ObsHttpServer> obs_http;
  if (flags.has("obs-port")) {
    obs_http = std::make_unique<net::ObsHttpServer>(
        static_cast<std::uint16_t>(flags.get_int("obs-port", 0)));
    obs_http->attach(server.loop());
    std::printf("cwc_swarm: live telemetry on http://127.0.0.1:%u/metrics\n",
                obs_http->port());
    std::fflush(stdout);
  }

  std::printf("cwc_swarm: %zu agents x %zu shards against port %u\n", agents, threads,
              server.port());
  std::fflush(stdout);

  std::vector<ShardStats> stats(threads);
  std::vector<std::thread> shards;
  std::vector<pid_t> children;
  shards.reserve(threads);
  const std::uint16_t port = server.port();
  const std::size_t per_shard = (agents + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t first = t * per_shard;
    if (first >= agents) break;
    const std::size_t count = std::min(per_shard, agents - first);
    if (fork_shards) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ShardStats child_stats;
        run_shard(port, static_cast<PhoneId>(1 + first), count, timeout, registry,
                  child_stats);
        _exit(child_stats.errors == 0 && child_stats.shutdowns == count ? 0 : 1);
      }
      if (pid < 0) {
        std::fprintf(stderr, "FAIL: fork: %s\n", std::strerror(errno));
        return 1;
      }
      children.push_back(pid);
    } else {
      shards.emplace_back([port, first, count, timeout, t, &registry, &stats] {
        run_shard(port, static_cast<PhoneId>(1 + first), count, timeout, registry, stats[t]);
      });
    }
  }

  const bool completed = server.run(static_cast<int>(agents), timeout);
  if (obs_http) obs_http->detach();
  for (auto& shard : shards) shard.join();
  std::size_t failed_shards = 0;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed_shards;
  }

  std::size_t shutdowns = 0, errors = 0;
  for (const ShardStats& s : stats) {
    shutdowns += s.shutdowns;
    errors += s.errors;
  }
  const auto keepalive = obs::latency("server.keepalive_rtt_ms").quantiles();
  const double quarantines = obs::counter("health.quarantines").value();

  if (fork_shards) {
    // Forked children report only pass/fail through their exit status.
    shutdowns = failed_shards == 0 ? agents : 0;
  }
  std::printf("cwc_swarm: agents=%zu completed=%d shutdowns=%zu errors=%zu "
              "keepalive_acks=%llu keepalive_p50_ms=%.2f keepalive_p99_ms=%.2f "
              "quarantines=%.0f backend=%s loop_wakeups=%llu\n",
              agents, completed ? 1 : 0, shutdowns, errors,
              static_cast<unsigned long long>(keepalive.count), keepalive.p50, keepalive.p99,
              quarantines, server.loop().backend_name(),
              static_cast<unsigned long long>(server.loop().wakeups()));

  int rc = 0;
  if (!completed) {
    std::fprintf(stderr, "FAIL: run did not complete within %.0f s\n", timeout / 1000.0);
    rc = 1;
  }
  if (failed_shards > 0) {
    std::fprintf(stderr, "FAIL: %zu forked shard(s) reported errors\n", failed_shards);
    rc = 1;
  }
  if (p99_budget > 0.0 && keepalive.count == 0) {
    std::fprintf(stderr, "FAIL: no keep-alive RTT samples recorded\n");
    rc = 1;
  }
  if (p99_budget > 0.0 && keepalive.p99 > p99_budget) {
    std::fprintf(stderr, "FAIL: keepalive p99 %.2f ms over budget %.2f ms\n", keepalive.p99,
                 p99_budget);
    rc = 1;
  }
  if (quarantines > max_quarantines) {
    std::fprintf(stderr, "FAIL: %.0f quarantines (max %.0f)\n", quarantines, max_quarantines);
    rc = 1;
  }
  return rc;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_swarm", e.what());
  return 2;
}
