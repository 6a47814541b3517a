// cwc_phone — a CWC phone agent as a standalone tool.
//
// Connects to a cwc_server, registers with the given identity, answers
// bandwidth probes and executes assigned tasks until the server shuts the
// batch down. CPU pace and link bandwidth can be emulated to reproduce a
// heterogeneous fleet on one machine, and `--unplug-after-s` simulates the
// owner grabbing the phone (online failure; add --offline for a silent
// disappearance the server must detect by keep-alive loss).
//
// Example (three heterogeneous phones against a local server):
//   cwc_phone --port=7000 --id=0 --mhz=1500 &
//   cwc_phone --port=7000 --id=1 --mhz=1200 --compute-ms-per-kb=3 &
//   cwc_phone --port=7000 --id=2 --mhz=806 --link-kbps=256 --unplug-after-s=20
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/flags.h"
#include "common/log.h"
#include "net/phone_agent.h"
#include "tasks/registry.h"

using namespace cwc;

namespace {
constexpr const char* kUsage = R"(cwc_phone: a CWC phone agent
  --host=A.B.C.D         server IPv4 address (default 127.0.0.1)
  --port=N               server port (default 7000)
  --id=N                 phone id reported at registration (default 0)
  --mhz=N                CPU clock reported at registration (default 1000)
  --ram-mb=N             RAM reported at registration (default 1024)
  --zone=N               locality zone (house/site) reported at registration
                         (default 0; the pod packer groups phones by zone)
  --compute-ms-per-kb=X  emulate a slower CPU (default 0 = host speed)
  --link-kbps=X          emulate a slower link (default 0 = full speed)
  --unplug-after-s=N     simulate the owner unplugging after N seconds
  --offline              make the unplug silent (keep-alive loss)
  --replug-after-s=N     plug back in N seconds after the unplug
  --max-reconnects=N     reconnect budget after the server drops us (default 5)
  --cache-mb=X           content-addressed chunk cache budget in MB, kept
                         across jobs and reconnects (default 0 = off: the
                         server ships every assignment whole)
  --verbose              info-level logging
)";
}  // namespace

int main(int argc, char** argv) try {
  const Flags flags = Flags::parse(argc, argv);
  const auto unknown = flags.unknown({"host", "port", "id", "mhz", "ram-mb", "zone",
                                      "compute-ms-per-kb", "link-kbps", "unplug-after-s",
                                      "offline", "replug-after-s", "max-reconnects", "cache-mb",
                                      "verbose", "help"});
  if (!unknown.empty() || flags.get_bool("help")) {
    for (const auto& flag : unknown) std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    std::fputs(kUsage, stderr);
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("verbose")) set_log_level(LogLevel::kInfo);

  net::PhoneAgentConfig config;
  config.server_host = flags.get("host", "127.0.0.1");
  config.id = static_cast<PhoneId>(flags.get_int("id", 0));
  config.cpu_mhz = flags.get_double("mhz", 1000.0);
  config.ram_kb = megabytes(flags.get_double("ram-mb", 1024.0));
  config.zone = static_cast<std::int32_t>(flags.get_int("zone", 0));
  config.emulated_compute_ms_per_kb = flags.get_double("compute-ms-per-kb", 0.0);
  config.emulated_link_kbps = flags.get_double("link-kbps", 0.0);
  config.max_reconnects = static_cast<int>(flags.get_int("max-reconnects", 5));
  config.cache_bytes =
      static_cast<std::uint64_t>(flags.get_double("cache-mb", 0.0) * 1024.0 * 1024.0);

  // Every flag is read before the agent starts, so a bad value exits
  // cleanly.
  const long long unplug_after = flags.get_int("unplug-after-s", -1);
  const long long replug_after = flags.get_int("replug-after-s", -1);
  const bool offline = flags.get_bool("offline");

  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  net::PhoneAgent agent(static_cast<std::uint16_t>(flags.get_int("port", 7000)), config,
                        &registry);
  std::printf("cwc_phone %d connecting to %s:%lld (%.0f MHz)\n", config.id,
              config.server_host.c_str(), flags.get_int("port", 7000), config.cpu_mhz);
  agent.start();

  if (unplug_after >= 0) {
    std::this_thread::sleep_for(std::chrono::seconds(unplug_after));
    if (!agent.finished()) {
      std::printf("phone %d: owner unplugged (%s)\n", config.id,
                  offline ? "offline" : "online failure");
      agent.unplug(offline);
    }
    if (replug_after >= 0) {
      std::this_thread::sleep_for(std::chrono::seconds(replug_after));
      if (!agent.finished()) {
        std::printf("phone %d: replugged\n", config.id);
        agent.replug();
      }
    }
  }
  agent.join();
  std::printf("phone %d done: %zu pieces completed, %zu failed\n", config.id,
              agent.pieces_completed(), agent.pieces_failed());
  return 0;
} catch (const std::invalid_argument& e) {
  // Malformed or out-of-range flag values (Flags::get_int/get_double).
  std::fprintf(stderr, "%s: %s\n", "cwc_phone", e.what());
  return 2;
}
