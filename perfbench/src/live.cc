// Live workloads: the real net::CwcServer on this host's loopback, driven by
// benchmark-owned agent state machines (one piece in flight per agent, as
// in the paper's "copy one piece, wait for the report").
//
// Thread and connection budget: the server loop on the main thread plus
// three agent threads carrying four agents (the first thread carries two),
// so four threads and four connections, each thread pinned to its own CPU.
// The agents sharing a thread register half the clock of the others, so
// the scheduler sizes their shares to the CPU they actually get.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <span>
#include <thread>

#include "common/link_fault.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/link_obs.h"
#include "spans.h"
#include "tasks/generators.h"
#include "tasks/sales.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cwc;
using net::Blob;

constexpr int kAgents = 4;
/// Phone ids carried by each agent thread.
const std::vector<std::vector<PhoneId>> kThreadAgents = {{1, 2}, {3}, {4}};
constexpr double kFullCpuMhz = 1600.0;
/// Probe results the agents report: a loopback-class link for healthy
/// phones, and the slow phone's real downlink cap (16mbps in the link-spec
/// grammar is 16 MB/s).
constexpr double kHealthyKbps = 1'000'000.0;
constexpr double kSlowKbps = 16.0 * 1024.0;
constexpr PhoneId kSlowPhone = 4;
/// A wedged batch fails instead of hanging the run.
constexpr double kBatchTimeoutMs = 60'000.0;

const std::string kPrimes = "prime-count";
const std::string kWords = "word-count:error";
const std::string kLogs = "log-scan:disk failure";
const std::string kSales = "sales-aggregate";
const std::string kBlur = "photo-blur";

/// The server's prediction model. The agents execute at this host's native
/// speed, not at a 2012 phone's, so the reference costs are per-task costs
/// measured for this benchmark on one x86 core, in ms/KB at kFullCpuMhz.
/// The paper's testbed costs would overrate compute about 1000x and hide the
/// slow link from the packer. They are constants so that a seed's schedule
/// does not depend on timing.
core::PredictionModel host_prediction() {
  core::PredictionModel prediction;
  prediction.set_reference(kPrimes, 0.040, kFullCpuMhz);
  prediction.set_reference(kWords, 0.018, kFullCpuMhz);
  prediction.set_reference(kLogs, 0.0105, kFullCpuMhz);
  prediction.set_reference(kSales, 0.010, kFullCpuMhz);
  prediction.set_reference(kBlur, 0.012, kFullCpuMhz);
  return prediction;
}

struct LiveSpec {
  std::size_t jobs = 0;
  bool bulk = false;  ///< live-bulk: ~1 MB jobs, a quarter photo-blur, slow phone 4
  Millis keepalive_ms = 500.0;
};

/// Sales records whose amounts are whole quarters of a dollar: sums of such
/// doubles are exact, so a job's aggregate is byte-identical however the
/// server cuts it into pieces and in whatever order the partials arrive.
/// (The repo's own generator draws cents, whose float sums depend on order.)
Blob exact_sales_input(Rng& rng, Kilobytes kb) {
  const auto target = static_cast<std::size_t>(kb * 1024.0);
  std::vector<double> weights(tasks::kSalesCategories.size());
  for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 / static_cast<double>(i + 1);
  Blob out;
  out.reserve(target + 64);
  char line[96];
  while (out.size() < target) {
    const std::size_t category = rng.weighted_index(weights);
    const double amount = std::max(0.25, std::round(rng.lognormal(3.2, 0.9) * 4.0) / 4.0);
    const int n = std::snprintf(line, sizeof line, "%d,%s,%.2f\n",
                                static_cast<int>(rng.uniform_int(1, 1800)),
                                std::string(tasks::kSalesCategories[category]).c_str(), amount);
    out.insert(out.end(), line, line + n);
  }
  return out;
}

Blob make_input(const std::string& task, Rng& rng, Kilobytes kb) {
  if (task == kPrimes) return tasks::make_integer_input(rng, kb);
  if (task == kWords) return tasks::make_text_input(rng, kb, "error");
  if (task == kLogs) return tasks::make_log_input(rng, kb, "disk failure");
  if (task == kSales) return exact_sales_input(rng, kb);
  return tasks::make_image_input_of_size(rng, kb);
}

struct LiveJob {
  std::string task;
  Blob input;
  Blob reference;
};

/// What one agent thread did, merged into the iteration after the join.
struct AgentTotals {
  double cpu_ms = 0.0;
  double exec_ms = 0.0;
  double exec_bytes = 0.0;
  double decode_ms = 0.0;
  double encode_ms = 0.0;
  double write_ms = 0.0;
  double recv_calls = 0.0;
  double recv_bytes = 0.0;
  std::size_t errors = 0;       ///< agents that never connected or outlived the deadline
  std::size_t disconnects = 0;  ///< connections the server closed before its shutdown frame
};

struct Agent {
  PhoneId id = kInvalidPhone;
  double probe_kbps = kHealthyKbps;
  net::TcpConnection conn;
  net::FrameDecoder decoder;
  std::uint32_t probe_chunks_left = 0;
  bool done = false;
};

double ms_since(Clock::time_point start) { return seconds_between(start, Clock::now()) * 1e3; }

/// Executes an assignment the way a phone would: a fresh task instance
/// stepped over the whole slice.
net::PieceCompleteMsg execute(const tasks::TaskRegistry& registry,
                              const net::AssignPieceMsg& assignment) {
  const auto start = Clock::now();
  auto task = registry.require(assignment.task_name).create();
  const tasks::ByteView input(assignment.input);
  std::size_t budget = 64 * 1024;
  while (!task->done(input)) {
    if (task->step(input, budget) == 0 && !task->done(input)) budget *= 2;
  }
  net::PieceCompleteMsg report;
  report.job = assignment.job;
  report.piece_seq = assignment.piece_seq;
  report.piece = assignment.trace_piece;
  report.attempt = assignment.trace_attempt;
  report.partial_result = task->partial_result();
  report.local_exec_ms = ms_since(start);
  return report;
}

void on_frame(Agent& agent, const Blob& frame, const tasks::TaskRegistry& registry,
              std::int64_t batch, AgentTotals& totals) {
  switch (net::peek_type(frame)) {
    case net::MsgType::kProbeRequest:
      agent.probe_chunks_left = net::decode_probe_request(frame).chunks;
      if (agent.probe_chunks_left == 0) {
        net::write_frame(agent.conn, net::encode(net::ProbeReportMsg{agent.probe_kbps}));
      }
      break;
    case net::MsgType::kProbeData:
      if (agent.probe_chunks_left > 0 && --agent.probe_chunks_left == 0) {
        net::write_frame(agent.conn, net::encode(net::ProbeReportMsg{agent.probe_kbps}));
      }
      break;
    case net::MsgType::kKeepAlive:
      net::write_frame(agent.conn, net::encode_keepalive_ack(net::decode_keepalive(frame).seq));
      break;
    case net::MsgType::kAssignPiece: {
      auto t = Clock::now();
      net::AssignPieceMsg assignment;
      {
        ScopedSpan span("net.agent", "decode", batch);
        assignment = net::decode_assign_piece(frame);
        span.set_piece(assignment.trace_piece);
      }
      totals.decode_ms += ms_since(t);
      const std::int64_t piece = assignment.trace_piece;
      t = Clock::now();
      net::PieceCompleteMsg report;
      {
        ScopedSpan span("tasks", "execute", batch, piece);
        report = execute(registry, assignment);
      }
      totals.exec_ms += ms_since(t);
      totals.exec_bytes += static_cast<double>(assignment.input.size());
      t = Clock::now();
      Blob encoded;
      {
        ScopedSpan span("net.agent", "encode", batch, piece);
        encoded = net::encode(report);
      }
      totals.encode_ms += ms_since(t);
      t = Clock::now();
      {
        ScopedSpan span("net.agent", "write_frame", batch, piece);
        net::write_frame(agent.conn, encoded);
      }
      totals.write_ms += ms_since(t);
      break;
    }
    case net::MsgType::kShutdown:
      agent.done = true;
      break;
    default:
      break;  // register ack; no speculation, so no cancels
  }
}

/// Drains one readable connection and handles every complete frame. A
/// connection the server closes or resets before its shutdown frame ends
/// that agent only; the batch's own completion and results decide the run.
void serve(Agent& agent, std::vector<std::uint8_t>& buffer, const tasks::TaskRegistry& registry,
           std::int64_t batch, AgentTotals& totals) {
  try {
    while (!agent.done) {
      const ssize_t n = ::recv(agent.conn.fd(), buffer.data(), buffer.size(), MSG_DONTWAIT);
      ++totals.recv_calls;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0) throw net::SocketError("recv", errno);
      if (n == 0) throw net::SocketError("recv: closed by the server", ECONNRESET);
      totals.recv_bytes += static_cast<double>(n);
      agent.decoder.feed(std::span<const std::uint8_t>(buffer.data(), static_cast<std::size_t>(n)));
      while (!agent.done) {
        const auto frame = agent.decoder.pop();
        if (!frame) break;
        on_frame(agent, *frame, registry, batch, totals);
      }
    }
  } catch (const net::SocketError&) {
    agent.done = true;
    ++totals.disconnects;
  }
}

/// One agent thread: connects its agents, then serves them with poll()
/// until each saw shutdown or the deadline passes. Plain poll keeps the
/// obs net.loop.* counters the server's alone.
void run_agent_thread(std::uint16_t port, const std::vector<PhoneId>& ids, std::size_t cpu,
                      bool bulk, Clock::time_point deadline,
                      const tasks::TaskRegistry& registry, std::int64_t batch,
                      AgentTotals& totals) {
  pin_to_cpu(cpu);
  const double cpu_start = thread_cpu_ms();
  std::vector<std::unique_ptr<Agent>> agents;
  try {
    for (const PhoneId id : ids) {
      auto agent = std::make_unique<Agent>();
      agent->id = id;
      agent->probe_kbps = bulk && id == kSlowPhone ? kSlowKbps : kHealthyKbps;
      agent->conn = net::TcpConnection::connect_local(port);
      net::RegisterMsg reg;
      reg.phone = id;
      reg.cpu_mhz = ids.size() > 1 ? kFullCpuMhz / static_cast<double>(ids.size()) : kFullCpuMhz;
      reg.ram_kb = 512.0 * 1024.0;
      net::write_frame(agent->conn, net::encode(reg));
      agents.push_back(std::move(agent));
    }
    std::vector<std::uint8_t> buffer(256 * 1024);
    std::vector<pollfd> fds;
    std::vector<Agent*> polled;
    while (Clock::now() < deadline) {
      fds.clear();
      polled.clear();
      for (auto& agent : agents) {
        if (agent->done) continue;
        fds.push_back({agent->conn.fd(), POLLIN, 0});
        polled.push_back(agent.get());
      }
      if (fds.empty()) break;
      const int ready = ::poll(fds.data(), fds.size(), 50);
      if (ready < 0 && errno != EINTR) throw net::SocketError("poll", errno);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents != 0) serve(*polled[i], buffer, registry, batch, totals);
      }
    }
    for (auto& agent : agents) {
      if (!agent->done) ++totals.errors;  // the deadline passed first
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: agent thread error: %s\n", e.what());
    ++totals.errors;
  }
  totals.cpu_ms = thread_cpu_ms() - cpu_start;
}

/// Joins the agent threads on every exit path.
struct ThreadJoiner {
  std::vector<std::thread> threads;
  ~ThreadJoiner() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

class LiveWorkload final : public Workload {
 public:
  LiveWorkload(const Options& options, LiveSpec spec)
      : options_(options), spec_(spec), base_(tasks::TaskRegistry::with_builtins()) {
    Rng rng(options.seed);
    const std::vector<std::string> small_mix = {kPrimes, kWords, kLogs, kSales};
    const std::vector<std::string> bulk_mix = {kLogs, kSales};
    jobs_.reserve(spec_.jobs);
    for (std::size_t i = 0; i < spec_.jobs; ++i) {
      LiveJob job;
      if (!spec_.bulk) {
        job.task = small_mix[i % small_mix.size()];
        job.input = make_input(job.task, rng, 2.0);
      } else {
        job.task = i % 4 == 0 ? kBlur : bulk_mix[(i - i / 4 - 1) % bulk_mix.size()];
        job.input = make_input(job.task, rng, 1024.0);
      }
      input_mb_ += static_cast<double>(job.input.size()) / (1024.0 * 1024.0);
      jobs_.push_back(std::move(job));
    }
    // The reference: each job run whole by the benchmark, then aggregated.
    for (LiveJob& job : jobs_) {
      const tasks::TaskFactory& factory = base_.require(job.task);
      job.reference = factory.aggregate({tasks::run_to_completion(factory, job.input)});
    }
    if (options.corrupt_reference && !jobs_.empty()) jobs_.front().reference.push_back(0x5A);
  }

  Iteration run(std::int64_t batch, bool traced) override {
    Iteration it;
    it.traced = traced;
    it.jobs_submitted = jobs_.size();
    it.input_mb = input_mb_;

    fault::LinkFaultPlane& plane = fault::LinkFaultPlane::global();
    plane.reset();
    if (spec_.bulk) {
      plane.add_rules("link:phone=" + std::to_string(kSlowPhone) + ":slow@rate=16mbps,dir=to");
      obs::arm_link_telemetry();
      plane.arm(options_.seed);
    }

    std::vector<Blob> inputs;  // the server takes ownership; copy outside the clock
    inputs.reserve(jobs_.size());
    for (const LiveJob& job : jobs_) inputs.push_back(job.input);

    BuildLog builds;
    builds.batch = batch;
    AggregateLog aggregates;
    aggregates.batch = batch;
    const tasks::TaskRegistry registry = timed_registry(base_, &aggregates);
    net::ServerConfig config;
    config.keepalive_period = spec_.keepalive_ms;
    config.scheduling_period = 250.0;
    config.journal_path = options_.work_dir + "/journal-" + std::to_string(::getpid()) + "-" +
                          std::to_string(batch) + ".cwcj";
    std::filesystem::remove(config.journal_path);

    const CounterSnapshot counters_before = CounterSnapshot::take(observed_counters());
    const HistogramSnapshot rtt_before = HistogramSnapshot::take("server.assign_report_ms");
    const HistogramSnapshot keepalive_before = HistogramSnapshot::take("server.keepalive_rtt_ms");
    const HistogramSnapshot journal_before = HistogramSnapshot::take("server.journal_append_ms");

    pin_to_cpu(0);
    SpanRecorder::global().set_enabled(traced);
    std::vector<AgentTotals> totals(kThreadAgents.size());
    std::vector<JobId> ids;
    ids.reserve(jobs_.size());
    double submit_ms = 0.0;
    bool completed = false;
    double run_cpu_end = 0.0;
    Clock::time_point start{};
    Clock::time_point end{};
    std::size_t phones_lost = 0;
    {
      ThreadJoiner joiner;  // declared first: joins after the server closes its sockets
      start = Clock::now();
      std::unique_ptr<net::CwcServer> server;
      {
        ScopedSpan setup("net.server", "setup", batch);
        server = std::make_unique<net::CwcServer>(
            std::make_unique<TimingScheduler>(std::make_unique<core::GreedyScheduler>(), &builds),
            host_prediction(), &registry, config);
        const Clock::time_point submit_start = Clock::now();
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
          ScopedSpan span("net.server", "submit", batch);
          ids.push_back(server->submit(jobs_[i].task, std::move(inputs[i])));
        }
        submit_ms = ms_since(submit_start);
      }
      const Clock::time_point deadline =
          start + std::chrono::milliseconds(static_cast<int>(kBatchTimeoutMs) + 5'000);
      for (std::size_t t = 0; t < kThreadAgents.size(); ++t) {
        joiner.threads.emplace_back(run_agent_thread, server->port(), kThreadAgents[t], t + 1,
                                    spec_.bulk, deadline, std::cref(base_), batch,
                                    std::ref(totals[t]));
      }
      {
        ScopedSpan span("net.server", "run", batch);
        completed = server->run(kAgents, kBatchTimeoutMs);
      }
      end = Clock::now();
      run_cpu_end = thread_cpu_ms();
      phones_lost = server->phones_lost();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const bool ok = server->job_done(ids[i]) && server->result(ids[i]) == jobs_[i].reference;
        if (!ok) {
          if (it.jobs_failed == 0) {
            std::fprintf(stderr, "perfbench: job %zu (%s) %s\n", i, jobs_[i].task.c_str(),
                         server->job_done(ids[i]) ? "differs from its reference" : "never completed");
          }
          ++it.jobs_failed;
        }
      }
      server.reset();  // closes the journal and every socket
    }
    SpanRecorder::global().set_enabled(false);
    std::error_code size_error;
    const auto journal_size = std::filesystem::file_size(config.journal_path, size_error);
    const double journal_bytes = size_error ? 0.0 : static_cast<double>(journal_size);
    std::filesystem::remove(config.journal_path);
    plane.reset();

    const CounterSnapshot counters_after = CounterSnapshot::take(observed_counters());
    const HistogramSnapshot rtt =
        HistogramSnapshot::take("server.assign_report_ms").since(rtt_before);
    const HistogramSnapshot keepalive =
        HistogramSnapshot::take("server.keepalive_rtt_ms").since(keepalive_before);
    const HistogramSnapshot journal =
        HistogramSnapshot::take("server.journal_append_ms").since(journal_before);

    AgentTotals agents;
    for (const AgentTotals& t : totals) {
      agents.cpu_ms += t.cpu_ms;
      agents.exec_ms += t.exec_ms;
      agents.exec_bytes += t.exec_bytes;
      agents.decode_ms += t.decode_ms;
      agents.encode_ms += t.encode_ms;
      agents.write_ms += t.write_ms;
      agents.recv_calls += t.recv_calls;
      agents.recv_bytes += t.recv_bytes;
      agents.errors += t.errors;
      agents.disconnects += t.disconnects;
    }

    it.completed = completed && builds.started && agents.errors == 0;
    if (!completed) it.jobs_failed = std::max<std::size_t>(it.jobs_failed, 1);
    it.phones_lost = phones_lost;
    it.agent_disconnects = agents.disconnects;
    it.assign_retries = counters_after.since(counters_before, "net.server.assign_retries");
    it.stale_reports = counters_after.since(counters_before, "net.server.stale_reports");
    if (builds.started) {
      it.setup_s = seconds_between(start, builds.first_start);
      it.batch_s = seconds_between(builds.first_start, end);
    }
    it.makespan_s = builds.first_predicted_makespan_ms / 1e3;
    it.pieces = static_cast<double>(rtt.count());

    fill_obs_layers(counters_before, counters_after, it);
    auto& layer = it.layer;
    layer["core.scheduler.builds"] = static_cast<double>(builds.builds);
    layer["core.scheduler.build_ms"] = builds.build_ms;
    layer["core.scheduler.first_build_ms"] = builds.first_build_ms;
    layer["tasks.exec_ms"] = agents.exec_ms;
    layer["tasks.exec_mb"] = agents.exec_bytes / (1024.0 * 1024.0);
    layer["tasks.aggregate_ms"] = aggregates.ms;
    layer["tasks.aggregate_calls"] = static_cast<double>(aggregates.calls);
    layer["net.agent.busy_ms"] = agents.cpu_ms;
    layer["net.agent.decode_ms"] = agents.decode_ms;
    layer["net.agent.encode_ms"] = agents.encode_ms;
    layer["net.agent.write_frame_ms"] = agents.write_ms;
    layer["net.agent.recv_calls"] = agents.recv_calls;
    layer["net.agent.recv_mb"] = agents.recv_bytes / (1024.0 * 1024.0);
    const double busy_ms = builds.started ? run_cpu_end - builds.first_start_cpu_ms : 0.0;
    layer["net.server.busy_ms"] = busy_ms;
    layer["net.server.busy_share"] = it.batch_s > 0.0 ? busy_ms / (it.batch_s * 1e3) : 0.0;
    layer["net.server.submit_ms"] = submit_ms;
    layer["net.journal.append_ms"] = journal.sum_ms();
    layer["net.journal.appends"] = static_cast<double>(journal.count());
    layer["net.journal.bytes"] = journal_bytes;
    // CRC32 runs over every chunk grid at submit (the executable padding and
    // the input) and over every journal record.
    double grid_bytes = 0.0;
    for (const LiveJob& job : jobs_) {
      grid_bytes += base_.require(job.task).executable_kb() * 1024.0 +
                    static_cast<double>(job.input.size());
    }
    layer["common.crc32.mb"] = (grid_bytes + journal_bytes) / (1024.0 * 1024.0);
    it.latency["net.server.piece_rtt_ms"] = rtt;
    it.latency["net.server.keepalive_rtt_ms"] = keepalive;
    return it;
  }

 private:
  Options options_;
  LiveSpec spec_;
  tasks::TaskRegistry base_;
  std::vector<LiveJob> jobs_;
  double input_mb_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_live_workload(const Options& options) {
  LiveSpec spec;
  if (options.workload == "live-small") {
    spec.jobs = 12'000;
    spec.keepalive_ms = 500.0;
  } else if (options.workload == "live-bulk") {
    spec.jobs = 128;
    spec.bulk = true;
    spec.keepalive_ms = 100.0;
  } else {
    return nullptr;
  }
  spec.jobs = std::max<std::size_t>(8, static_cast<std::size_t>(
                                           std::llround(static_cast<double>(spec.jobs) * options.size)));
  return std::make_unique<LiveWorkload>(options, spec);
}

}  // namespace perfbench
