// cwc_top — live fleet dashboard for a running cwc_server.
//
// Polls the server's observability endpoint (--obs-port) and redraws a
// per-phone table in place, `top`-style:
//
//   cwc_server --port=9000 --obs-port=9100 --phones=8 &
//   cwc_top --port=9100
//
// One poll = one HTTP GET /metrics (Prometheus text) over a fresh
// connection; the parser only understands the subset cwc_server emits, so
// there is no HTTP-client or metrics-library dependency. Rates (bytes/s,
// pieces/s) come from counter deltas between consecutive polls.
//
// Scriptable modes for CI and debugging: --once prints a single snapshot
// without ANSI control codes; --iterations=N polls N times and exits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "net/socket.h"

using namespace cwc;

namespace {
constexpr const char* kUsage = R"(cwc_top: live dashboard for cwc_server --obs-port
  --port=N          observability port of the running server (required)
  --host=A.B.C.D    server address (default 127.0.0.1)
  --interval-ms=N   poll period (default 1000)
  --iterations=N    exit after N polls (default 0 = run until interrupted)
  --once            print one plain snapshot and exit (no screen control)
)";

/// One parsed sample line: metric name, optional phone/point label, value.
struct Sample {
  std::string name;
  std::string phone;  ///< empty unless the line carried {phone="..."}
  std::string point;  ///< empty unless the line carried {point="..."}
  double value = 0.0;
};

/// Everything one poll of /metrics yields, keyed for the renderer.
struct Snapshot {
  std::map<std::string, double> scalars;                     ///< unlabeled series
  std::map<std::string, std::map<std::string, double>> phones;  ///< phone -> field -> value
  std::map<std::string, double> faults;  ///< fault point -> fires (storms in flight)
  bool ok = false;
};

std::string http_get(const std::string& host, std::uint16_t port, const std::string& path) {
  net::TcpConnection conn = host == "127.0.0.1" ? net::TcpConnection::connect_local(port)
                                                : net::TcpConnection::connect_ipv4(host, port);
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: cwc\r\nConnection: close\r\n\r\n";
  conn.send_all({reinterpret_cast<const std::uint8_t*>(request.data()), request.size()});
  std::string response;
  std::array<std::uint8_t, 16 * 1024> buffer;
  while (true) {
    const auto n = conn.recv_into(buffer);
    if (!n || *n == 0) break;  // server closes after the body
    response.append(reinterpret_cast<const char*>(buffer.data()), *n);
  }
  const auto body = response.find("\r\n\r\n");
  if (body == std::string::npos || response.compare(0, 12, "HTTP/1.1 200") != 0) return {};
  return response.substr(body + 4);
}

/// Parses one exposition line (`name value` or `name{phone="id"} value`).
/// Lines with other label sets or non-numeric values are skipped.
bool parse_line(const std::string& line, Sample& out) {
  if (line.empty() || line[0] == '#') return false;
  const auto space = line.rfind(' ');
  if (space == std::string::npos || space == 0) return false;
  char* end = nullptr;
  out.value = std::strtod(line.c_str() + space + 1, &end);
  if (end == line.c_str() + space + 1) return false;
  std::string name = line.substr(0, space);
  out.phone.clear();
  out.point.clear();
  const auto brace = name.find('{');
  if (brace != std::string::npos) {
    const std::string labels = name.substr(brace);
    name.resize(brace);
    const auto grab = [&labels](const char* key, std::string& into) {
      const std::string prefix = std::string(key) + "=\"";
      const auto tag = labels.find(prefix);
      if (tag == std::string::npos) return false;
      const auto close = labels.find('"', tag + prefix.size());
      if (close == std::string::npos) return false;
      into = labels.substr(tag + prefix.size(), close - tag - prefix.size());
      return true;
    };
    if (!grab("phone", out.phone) && !grab("point", out.point)) return false;
  }
  out.name = std::move(name);
  return true;
}

Snapshot poll(const std::string& host, std::uint16_t port) {
  Snapshot snap;
  std::string body;
  try {
    body = http_get(host, port, "/metrics");
  } catch (const net::SocketError&) {
    return snap;
  }
  if (body.empty()) return snap;
  std::size_t pos = 0;
  while (pos < body.size()) {
    auto eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    Sample s;
    if (parse_line(body.substr(pos, eol - pos), s)) {
      if (!s.point.empty()) {
        // cwc_fault_fired_total{point="<site>"} -> faults[<site>]
        if (s.name == "cwc_fault_fired_total") snap.faults[s.point] = s.value;
      } else if (s.phone.empty()) {
        snap.scalars[s.name] = s.value;
      } else {
        // cwc_phone_<field>{phone="<id>"} -> phones[id][<field>]
        if (s.name.compare(0, 10, "cwc_phone_") == 0) {
          snap.phones[s.phone][s.name.substr(10)] = s.value;
        }
      }
    }
    pos = eol + 1;
  }
  snap.ok = true;
  return snap;
}

double scalar(const Snapshot& s, const char* name) {
  const auto it = s.scalars.find(name);
  return it == s.scalars.end() ? 0.0 : it->second;
}

double field(const std::map<std::string, double>& phone, const char* name) {
  const auto it = phone.find(name);
  return it == phone.end() ? 0.0 : it->second;
}

const char* health_name(double state) {
  switch (static_cast<int>(state)) {
    case 0: return "healthy";
    case 1: return "probation";
    case 2: return "quarantine";
    case 3: return "parole";
    default: return "?";
  }
}

void render(const Snapshot& snap, const Snapshot& prev, double dt_s, bool ansi) {
  if (ansi) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
  const double tx_rate =
      prev.ok && dt_s > 0.0
          ? std::max(0.0, scalar(snap, "cwc_net_server_bytes_sent") -
                              scalar(prev, "cwc_net_server_bytes_sent")) / dt_s
          : 0.0;
  const double rx_rate =
      prev.ok && dt_s > 0.0
          ? std::max(0.0, scalar(snap, "cwc_net_server_bytes_received") -
                              scalar(prev, "cwc_net_server_bytes_received")) / dt_s
          : 0.0;
  std::printf("cwc fleet: %.0f connected, %.0f charging | in-flight %.0f pieces | "
              "tx %.1f KB/s rx %.1f KB/s\n",
              scalar(snap, "cwc_fleet_phones_connected"),
              scalar(snap, "cwc_fleet_phones_charging"),
              scalar(snap, "cwc_fleet_pieces_in_flight"), tx_rate / 1024.0,
              rx_rate / 1024.0);
  std::printf("keep-alive rtt: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  (%.0f samples) | "
              "rounds %.0f\n\n",
              scalar(snap, "cwc_server_keepalive_rtt_ms_p50"),
              scalar(snap, "cwc_server_keepalive_rtt_ms_p95"),
              scalar(snap, "cwc_server_keepalive_rtt_ms_p99"),
              scalar(snap, "cwc_server_keepalive_rtt_ms_count"),
              scalar(snap, "cwc_net_server_scheduling_rounds"));
  if (!snap.faults.empty() || scalar(snap, "cwc_link_partition_drops") > 0) {
    // A storm in flight: total point-fault fires plus the busiest sites,
    // and the link plane's drop/pacing tallies.
    double total = 0.0;
    std::vector<std::pair<double, std::string>> top;
    for (const auto& [point, fires] : snap.faults) {
      total += fires;
      if (fires > 0) top.emplace_back(fires, point);
    }
    std::sort(top.rbegin(), top.rend());
    std::string busiest;
    for (std::size_t i = 0; i < top.size() && i < 3; ++i) {
      busiest += (i ? ", " : "") + top[i].second + "=" +
                 std::to_string(static_cast<long long>(top[i].first));
    }
    std::printf("faults: %.0f fired%s%s | link drops %.0f (burst %.0f) paced %.0f ms\n",
                total, busiest.empty() ? "" : " — ", busiest.c_str(),
                scalar(snap, "cwc_link_partition_drops") +
                    scalar(snap, "cwc_link_burst_drops"),
                scalar(snap, "cwc_link_burst_drops"), scalar(snap, "cwc_link_paced_ms"));
  }
  std::printf("%5s %-10s %4s %6s %8s %9s %9s %6s %9s %8s\n", "phone", "health", "chg",
              "cache%", "in-fl", "hit KB", "miss KB", "replay", "rtt ms", "lnk-drop");
  for (const auto& [id, fields] : snap.phones) {
    std::printf("%5s %-10s %4s %6.1f %8.0f %9.0f %9.0f %6.0f %9.2f %8.0f\n", id.c_str(),
                health_name(field(fields, "health_state")),
                field(fields, "charging") != 0.0 ? "yes" : "no",
                field(fields, "cache_pct"), field(fields, "in_flight"),
                field(fields, "cache_hit_kb"), field(fields, "cache_miss_kb"),
                field(fields, "replay_depth"), field(fields, "keepalive_rtt_ms"),
                field(fields, "link_drops"));
  }
  if (snap.phones.empty()) std::printf("  (no phones registered yet)\n");
  std::fflush(stdout);
}
}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown =
      flags.unknown({"port", "host", "interval-ms", "iterations", "once", "help"});
  if (!unknown.empty() || flags.get_bool("help") || !flags.has("port")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    if (!flags.has("port") && !flags.get_bool("help")) std::fputs("cwc_top: --port is required\n", stderr);
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  const std::string host = flags.get("host", "127.0.0.1");
  const auto interval_ms = std::max<std::int64_t>(50, flags.get_int("interval-ms", 1000));
  const bool once = flags.get_bool("once");
  const auto iterations = once ? 1 : flags.get_int("iterations", 0);
  const bool ansi = !once;

  Snapshot prev;
  auto prev_at = std::chrono::steady_clock::now();
  int failures = 0;
  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const Snapshot snap = poll(host, port);
    const auto now = std::chrono::steady_clock::now();
    if (!snap.ok) {
      if (++failures >= 3) {
        std::fprintf(stderr, "cwc_top: no response from %s:%u after %d polls\n", host.c_str(),
                     port, failures);
        return 1;
      }
      continue;
    }
    failures = 0;
    render(snap, prev, std::chrono::duration<double>(now - prev_at).count(), ansi);
    prev = snap;
    prev_at = now;
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_top", e.what());
  return 2;
}
