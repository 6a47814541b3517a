// Agent-side registration, against a test-owned listener that plays the
// server so it can lose the registration ack on purpose: the first frame
// after Register must be the RegisterAck, and any other frame there means
// the ack was lost. The agent must then register afresh on a new
// connection instead of ending its thread.
#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <optional>
#include <thread>

#include "net/framing.h"
#include "net/phone_agent.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "tasks/registry.h"

namespace cwc::net {
namespace {

constexpr PhoneId kPhone = 3;
constexpr int kAcceptTimeoutMs = 5'000;

/// One agent connection, accepted once its Register frame has arrived;
/// nullopt when no connection came within the timeout.
struct Session {
  TcpConnection conn;
  FrameDecoder decoder;
};

std::optional<Session> accept_registration(TcpListener& listener) {
  if (poll_one(listener.fd(), POLLIN, kAcceptTimeoutMs) == 0) return std::nullopt;
  auto conn = listener.accept();
  if (!conn) return std::nullopt;
  Session session{std::move(*conn), FrameDecoder()};
  const auto frame = read_frame(session.conn, session.decoder);
  if (!frame) return std::nullopt;
  EXPECT_EQ(decode_register(*frame).phone, kPhone);
  return session;
}

TEST(AgentRegistration, LostAckReconnectsInsteadOfExiting) {
  const tasks::TaskRegistry registry = tasks::TaskRegistry::with_builtins();
  TcpListener listener;
  PhoneAgentConfig config;
  config.id = kPhone;
  config.max_reconnects = 3;
  config.reconnect_backoff = 10.0;
  config.rpc_timeout = 5'000.0;
  const double lost_before = obs::counter("net.agent.lost_register_acks").value();
  PhoneAgent agent(listener.port(), config, &registry);
  agent.start();

  // First session: a keep-alive arrives where the ack should be. The
  // connection stays open, so only the lost ack can make the agent leave.
  auto first = accept_registration(listener);
  ASSERT_TRUE(first) << "the agent never connected";
  write_frame(first->conn, encode_keepalive(1));

  auto second = accept_registration(listener);
  ASSERT_TRUE(second) << "the agent did not reconnect after losing its registration ack";
  EXPECT_EQ(obs::counter("net.agent.lost_register_acks").value() - lost_before, 1.0);

  // Second session: the ack arrives. A registered agent answers keep-alives
  // from its protocol loop, then leaves on the shutdown notice.
  write_frame(second->conn, encode(RegisterAckMsg{true, 42}));
  write_frame(second->conn, encode_keepalive(7));
  const auto reply = read_frame(second->conn, second->decoder);
  ASSERT_TRUE(reply);
  ASSERT_EQ(peek_type(*reply), MsgType::kKeepAliveAck);
  EXPECT_EQ(decode_keepalive_ack_stats(*reply).seq, 7u);
  write_frame(second->conn, encode_shutdown());

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!agent.finished() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(agent.finished()) << "the agent did not leave on the shutdown notice";
  agent.stop();
  agent.join();
}

}  // namespace
}  // namespace cwc::net
