#include "net/obs_http.h"

#include <poll.h>

#include <array>
#include <cctype>
#include <map>
#include <utility>
#include <vector>

#include "common/log.h"
#include "net/event_loop.h"
#include "common/strings.h"
#include "obs/latency_hist.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace cwc::net {

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use
/// dots and dashes; fold everything else to '_' and prefix "cwc_".
std::string prom_name(const std::string& name) {
  std::string out = "cwc_";
  for (const char ch : name) {
    out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
  }
  return out;
}

/// Splits a "phone.<id>.<field>" gauge into its id and field, so per-phone
/// gauges render as one labeled family instead of thousands of names.
/// Returns false for everything else.
bool split_phone_gauge(const std::string& name, std::string& id, std::string& field) {
  if (name.rfind("phone.", 0) != 0) return false;
  const std::size_t id_end = name.find('.', 6);
  if (id_end == std::string::npos || id_end + 1 >= name.size()) return false;
  id = name.substr(6, id_end - 6);
  if (id.empty()) return false;
  for (const char ch : id) {
    if (!std::isdigit(static_cast<unsigned char>(ch))) return false;
  }
  field = name.substr(id_end + 1);
  return true;
}

void render_latency(std::string& out, const std::string& name,
                    const obs::LatencyHistogram& hist) {
  const std::string base = prom_name(name);
  const auto q = hist.quantiles();
  out += "# TYPE " + base + " histogram\n";
  // Cumulative le-buckets over the non-empty range, Prometheus-style.
  std::uint64_t cumulative = 0;
  for (const auto& bucket : hist.nonzero_buckets()) {
    cumulative += bucket.count;
    out += base + "_bucket{le=\"" + shortest_double(bucket.high_ms) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += base + "_bucket{le=\"+Inf\"} " + std::to_string(q.count) + "\n";
  out += base + "_sum " + shortest_double(hist.sum()) + "\n";
  out += base + "_count " + std::to_string(q.count) + "\n";
  // Pre-estimated quantiles so dashboard-less clients (cwc_top, the CI
  // smoke check) need no histogram_quantile() machinery.
  out += base + "_p50 " + shortest_double(q.p50) + "\n";
  out += base + "_p95 " + shortest_double(q.p95) + "\n";
  out += base + "_p99 " + shortest_double(q.p99) + "\n";
}

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

HttpResponse route(const std::string& path) {
  if (path == "/metrics") {
    return {200, "text/plain; version=0.0.4; charset=utf-8", render_prometheus()};
  }
  if (path == "/metrics.json") {
    return {200, "application/json", render_metrics_json()};
  }
  if (path == "/healthz") {
    return {200, "text/plain; charset=utf-8", "ok\n"};
  }
  return {404, "text/plain; charset=utf-8", "not found\n"};
}

}  // namespace

std::string render_prometheus() {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  std::string out;
  // `fault.fired.<point>` counters collate into one labeled family so a
  // running storm is a single PromQL selector: cwc_fault_fired_total{point}.
  std::vector<std::pair<std::string, double>> fault_rows;
  for (const std::string& name : reg.counter_names()) {
    const obs::Counter* c = reg.find_counter(name);
    if (!c) continue;
    if (name.rfind("fault.fired.", 0) == 0) {
      fault_rows.emplace_back(name.substr(sizeof("fault.fired.") - 1), c->value());
      continue;
    }
    const std::string prom = prom_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + shortest_double(c->value()) + "\n";
  }
  if (!fault_rows.empty()) {
    out += "# TYPE cwc_fault_fired_total counter\n";
    for (const auto& [point, value] : fault_rows) {
      out += "cwc_fault_fired_total{point=\"" + point + "\"} " + shortest_double(value) +
             "\n";
    }
  }
  // Per-phone gauges collate into labeled families; grouping by field
  // keeps each family's TYPE line emitted exactly once.
  std::map<std::string, std::vector<std::pair<std::string, double>>> phone_families;
  for (const std::string& name : reg.gauge_names()) {
    const obs::Gauge* g = reg.find_gauge(name);
    if (!g) continue;
    std::string id, field;
    if (split_phone_gauge(name, id, field)) {
      phone_families[field].emplace_back(id, g->value());
      continue;
    }
    const std::string prom = prom_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + shortest_double(g->value()) + "\n";
  }
  for (const auto& [field, rows] : phone_families) {
    const std::string prom = prom_name("phone." + field);
    out += "# TYPE " + prom + " gauge\n";
    for (const auto& [id, value] : rows) {
      out += prom + "{phone=\"" + id + "\"} " + shortest_double(value) + "\n";
    }
  }
  // Registry histograms (mutexed, coarse) export their fixed buckets.
  for (const std::string& name : reg.histogram_names()) {
    const obs::HistogramMetric* h = reg.find_histogram(name);
    if (!h) continue;
    const auto view = h->view();
    const std::string prom = prom_name(name);
    const double width =
        (h->hi() - h->lo()) / static_cast<double>(std::max<std::size_t>(1, h->bucket_count()));
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < view.buckets.size(); ++b) {
      cumulative += view.buckets[b];
      out += prom + "_bucket{le=\"" +
             shortest_double(h->lo() + width * static_cast<double>(b + 1)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(view.count) + "\n";
    out += prom + "_sum " + shortest_double(view.mean * static_cast<double>(view.count)) + "\n";
    out += prom + "_count " + std::to_string(view.count) + "\n";
  }
  // Live latency histograms (lock-free, log-bucketed).
  const obs::LatencyRegistry& lat = obs::LatencyRegistry::global();
  for (const std::string& name : lat.names()) {
    if (const obs::LatencyHistogram* h = lat.find(name)) render_latency(out, name, *h);
  }
  return out;
}

std::string render_metrics_json() {
  // The snapshot document, with a "latency" section spliced in before the
  // closing brace — keeps obs/snapshot.h's strict schema untouched while
  // giving JSON clients the live quantiles.
  std::string snapshot = obs::to_json(obs::capture());
  // Trim trailing whitespace, then exactly one '}' — the document's own
  // closing brace. Stripping '}' greedily would also eat the brace that
  // closes the snapshot's last section and corrupt the document.
  while (!snapshot.empty() &&
         (snapshot.back() == '\n' || snapshot.back() == ' ')) {
    snapshot.pop_back();
  }
  if (!snapshot.empty() && snapshot.back() == '}') snapshot.pop_back();
  std::string out = snapshot + ",\n  \"latency\": {";
  const obs::LatencyRegistry& lat = obs::LatencyRegistry::global();
  bool first = true;
  for (const std::string& name : lat.names()) {
    const obs::LatencyHistogram* h = lat.find(name);
    if (!h) continue;
    const auto q = h->quantiles();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": " + std::to_string(q.count) +
           ", \"p50\": " + shortest_double(q.p50) + ", \"p95\": " + shortest_double(q.p95) +
           ", \"p99\": " + shortest_double(q.p99) + ", \"sum\": " + shortest_double(h->sum()) +
           "}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

ObsHttpServer::ObsHttpServer(std::uint16_t port, bool loopback_only)
    : listener_(port, loopback_only) {
  listener_.set_nonblocking(true);
}

ObsHttpServer::~ObsHttpServer() {
  stop();
  detach();
}

void ObsHttpServer::start() {
  if (thread_.joinable()) return;
  stop_flag_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
}

void ObsHttpServer::stop() {
  if (!thread_.joinable()) return;
  stop_flag_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void ObsHttpServer::serve_loop() {
  while (!stop_flag_.load(std::memory_order_relaxed)) {
    try {
      // poll_one retries EINTR and surfaces real errors instead of
      // silently treating them as "nothing readable".
      poll_one(listener_.fd(), POLLIN, 50);
      while (auto conn = listener_.accept()) {
        handle_connection(std::move(*conn));
      }
    } catch (const std::exception& e) {
      // A misbehaving scrape must never take the run down with it.
      log_warn("obs-http") << "request failed: " << e.what();
    }
  }
}

void ObsHttpServer::attach(EventLoop& loop) {
  if (loop_ != nullptr || thread_.joinable()) return;
  loop_ = &loop;
  loop_->watch_fd(listener_.fd(), [this] { accept_attached(); });
  // Scrapes that never finish their request head (a connect scan, a
  // half-open peer) are swept instead of pinning fds forever.
  sweep_timer_ = loop_->every(1000.0, [this] {
    const Millis now = loop_->now_ms();
    std::vector<int> stale;
    for (const auto& [fd, scrape] : pending_) {
      if (now - scrape.accepted_ms > 5000.0) stale.push_back(fd);
    }
    for (const int fd : stale) close_attached(fd);
  });
}

void ObsHttpServer::detach() {
  if (loop_ == nullptr) return;
  loop_->unwatch_fd(listener_.fd());
  if (sweep_timer_ != kInvalidTimer) {
    loop_->cancel(sweep_timer_);
    sweep_timer_ = kInvalidTimer;
  }
  while (!pending_.empty()) close_attached(pending_.begin()->first);
  loop_ = nullptr;
}

void ObsHttpServer::accept_attached() {
  try {
    while (auto conn = listener_.accept()) {
      conn->set_nonblocking(true);
      const int fd = conn->fd();
      Pending& scrape = pending_[fd];
      scrape.conn = std::move(*conn);
      scrape.accepted_ms = loop_->now_ms();
      loop_->watch_fd(fd, [this, fd] { service_attached(fd); });
    }
  } catch (const std::exception& e) {
    log_warn("obs-http") << "accept failed: " << e.what();
  }
}

void ObsHttpServer::service_attached(int fd) {
  const auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  Pending& scrape = it->second;
  bool done = false;
  bool dead = false;
  try {
    std::array<std::uint8_t, 4096> buffer;
    while (!done && !dead) {
      const auto n = scrape.conn.recv_into(buffer);
      if (!n) break;  // would block: head still incomplete
      if (*n == 0) {
        dead = true;  // peer closed before finishing the request
        break;
      }
      scrape.request.append(reinterpret_cast<const char*>(buffer.data()), *n);
      done = scrape.request.size() >= 8 * 1024 ||
             scrape.request.find("\r\n\r\n") != std::string::npos ||
             scrape.request.find("\n\n") != std::string::npos;
    }
  } catch (const std::exception& e) {
    log_warn("obs-http") << "request failed: " << e.what();
    dead = true;
  }
  if (done && !dead) {
    auto response = respond(scrape.request);
    if (!response.empty()) {
      // The request is in: stop reading, and let the loop write whatever
      // the socket does not take at once.
      loop_->unwatch_fd(fd);
      const auto finish = [this, fd] { finish_attached(fd); };
      scrape.response = std::make_unique<Outbox>(*loop_, scrape.conn, finish, finish);
      scrape.response->send_bytes(
          std::make_shared<const std::vector<std::uint8_t>>(std::move(response)));
      if (!scrape.response->empty() && !scrape.response->failed()) return;
    }
  }
  if (done || dead) close_attached(fd);
}

void ObsHttpServer::finish_attached(int fd) {
  const auto it = pending_.find(fd);
  if (it == pending_.end() || !it->second.response) return;
  if (it->second.response->empty() || it->second.response->failed()) close_attached(fd);
}

void ObsHttpServer::close_attached(int fd) {
  const auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  // The outbox lets go of the loop before the socket closes.
  it->second.response.reset();
  loop_->unwatch_fd(fd);
  pending_.erase(it);
}

void ObsHttpServer::handle_connection(TcpConnection conn) {
  // Read until the header terminator, with a small bound: a /metrics GET
  // is a few hundred bytes, so anything larger is garbage to drop.
  conn.set_nonblocking(false);
  std::string request;
  std::array<std::uint8_t, 4096> buffer;
  while (request.size() < 8 * 1024 && request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const auto n = conn.recv_into(buffer);
    if (!n || *n == 0) break;
    request.append(reinterpret_cast<const char*>(buffer.data()), *n);
  }
  const auto response = respond(request);
  if (!response.empty()) conn.send_all(response);
}

std::vector<std::uint8_t> ObsHttpServer::respond(const std::string& request) {
  const std::size_t line_end = request.find('\n');
  if (line_end == std::string::npos) return {};
  const std::string line = request.substr(0, line_end);
  // "GET <path> HTTP/1.x"
  HttpResponse response{400, "text/plain; charset=utf-8", "bad request\n"};
  if (line.rfind("GET ", 0) == 0) {
    const std::size_t path_end = line.find(' ', 4);
    std::string path =
        path_end == std::string::npos ? line.substr(4) : line.substr(4, path_end - 4);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    response = route(path);
  }
  const char* reason = response.status == 200   ? "OK"
                       : response.status == 404 ? "Not Found"
                                                : "Bad Request";
  const std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " + reason +
                           "\r\nContent-Type: " + response.content_type +
                           "\r\nContent-Length: " + std::to_string(response.body.size()) +
                           "\r\nConnection: close\r\n\r\n";
  std::vector<std::uint8_t> out;
  out.reserve(head.size() + response.body.size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), response.body.begin(), response.body.end());
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

}  // namespace cwc::net
