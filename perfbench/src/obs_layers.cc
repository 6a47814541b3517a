// Per-layer numbers both substrates read from deltas of the program's own
// obs counters.
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& observed_counters() {
  static const std::vector<std::string> names = {
      "scheduler.pack_attempts",       "scheduler.bisections",
      "scheduler.warm_start_hits",     "scheduler.pod.warm_start_hits",
      "scheduler.pod.bisections",      "scheduler.pod.lp_bounds_solved",
      "scheduler.pod.lp_bounds_tightened", "scheduler.pod.rebalanced_pieces",
      "controller.scheduling_instants", "controller.rescheduled_kb",
      "sim.pieces_completed",          "sim.failures.online",
      "sim.failures.offline",          "spec.launched",
      "net.server.frames_sent",        "net.server.frames_received",
      "net.server.bytes_sent",         "net.server.bytes_received",
      "net.server.assign_retries",     "net.server.stale_reports",
      "net.loop.wakeups",              "net.loop.fd_dispatches",
      "net.loop.timer_fires",          "net.send_stall_ms",
      "link.paced_ms",                 "link.paced_sends",
  };
  return names;
}

void fill_obs_layers(const CounterSnapshot& before, const CounterSnapshot& after, Iteration& it) {
  const auto d = [&](const std::string& name) { return after.since(before, name); };
  auto& layer = it.layer;
  layer["core.scheduler.pack_attempts"] = d("scheduler.pack_attempts");
  layer["core.scheduler.bisections"] = d("scheduler.bisections");
  layer["core.scheduler.warm_start_hits"] =
      d("scheduler.warm_start_hits") + d("scheduler.pod.warm_start_hits");
  layer["core.pods.bisections"] = d("scheduler.pod.bisections");
  layer["core.pods.lp_bounds_solved"] = d("scheduler.pod.lp_bounds_solved");
  layer["core.pods.lp_bounds_tightened"] = d("scheduler.pod.lp_bounds_tightened");
  layer["core.pods.rebalanced_pieces"] = d("scheduler.pod.rebalanced_pieces");
  layer["core.controller.scheduling_instants"] = d("controller.scheduling_instants");
  layer["core.controller.rescheduled_kb"] = d("controller.rescheduled_kb");
  layer["sim.pieces_completed"] = d("sim.pieces_completed");
  layer["sim.failures"] = d("sim.failures.online") + d("sim.failures.offline");
  layer["sim.spec_launched"] = d("spec.launched");
  layer["net.server.frames_sent"] = d("net.server.frames_sent");
  layer["net.server.frames_received"] = d("net.server.frames_received");
  layer["net.server.bytes_sent"] = d("net.server.bytes_sent");
  layer["net.server.bytes_received"] = d("net.server.bytes_received");
  layer["net.server.assign_retries"] = d("net.server.assign_retries");
  layer["net.server.stale_reports"] = d("net.server.stale_reports");
  layer["net.loop.wakeups"] = d("net.loop.wakeups");
  layer["net.loop.fd_dispatches"] = d("net.loop.fd_dispatches");
  layer["net.loop.timer_fires"] = d("net.loop.timer_fires");
  layer["net.send_stall_ms"] = d("net.send_stall_ms");
  layer["net.link.paced_ms"] = d("link.paced_ms");
  layer["net.link.paced_sends"] = d("link.paced_sends");
}

}  // namespace perfbench
