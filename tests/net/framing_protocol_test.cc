#include <gtest/gtest.h>

#include "common/buffer.h"
#include "net/framing.h"
#include "net/protocol.h"

namespace cwc::net {
namespace {

TEST(FrameDecoder, DecodesWholeFrames) {
  FrameDecoder decoder;
  const Blob payload = {1, 2, 3, 4, 5};
  Blob wire = {5, 0, 0, 0};
  wire.insert(wire.end(), payload.begin(), payload.end());
  decoder.feed(wire);
  const auto frame = decoder.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  EXPECT_FALSE(decoder.pop().has_value());
}

TEST(FrameDecoder, HandlesBytewiseDelivery) {
  FrameDecoder decoder;
  Blob wire = {3, 0, 0, 0, 9, 8, 7};
  for (std::uint8_t byte : wire) {
    decoder.feed(std::span<const std::uint8_t>(&byte, 1));
  }
  const auto frame = decoder.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, (Blob{9, 8, 7}));
}

TEST(FrameDecoder, MultipleFramesInOneFeed) {
  FrameDecoder decoder;
  Blob wire = {1, 0, 0, 0, 0xAA, 2, 0, 0, 0, 0xBB, 0xCC};
  decoder.feed(wire);
  EXPECT_EQ(*decoder.pop(), (Blob{0xAA}));
  EXPECT_EQ(*decoder.pop(), (Blob{0xBB, 0xCC}));
  EXPECT_FALSE(decoder.pop().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoder, EmptyFrameIsValid) {
  FrameDecoder decoder;
  decoder.feed(Blob{0, 0, 0, 0});
  const auto frame = decoder.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(FrameDecoder, PartialFramesStraddleFeedsAfterPops) {
  FrameDecoder decoder;
  // One whole frame plus half of the next one's length prefix.
  decoder.feed(Blob{1, 0, 0, 0, 0xAA, 3, 0});
  EXPECT_EQ(*decoder.pop(), (Blob{0xAA}));
  EXPECT_FALSE(decoder.pop().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 2u);
  // The rest of the prefix and part of the payload: still incomplete.
  decoder.feed(Blob{0, 0, 0x11});
  EXPECT_FALSE(decoder.pop().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 5u);
  // The payload's tail plus the first bytes of a third frame.
  decoder.feed(Blob{0x22, 0x33, 2, 0, 0, 0, 0x44});
  EXPECT_EQ(*decoder.pop(), (Blob{0x11, 0x22, 0x33}));
  EXPECT_FALSE(decoder.pop().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 5u);
  decoder.feed(Blob{0x55});
  EXPECT_EQ(*decoder.pop(), (Blob{0x44, 0x55}));
  EXPECT_FALSE(decoder.pop().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoder, OversizedFrameThrows) {
  FrameDecoder decoder;
  decoder.feed(Blob{0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_THROW(decoder.pop(), std::runtime_error);
}

TEST(Protocol, RegisterRoundTrip) {
  RegisterMsg msg;
  msg.phone = 7;
  msg.cpu_mhz = 1512.5;
  msg.ram_kb = megabytes(768.0);
  msg.zone = 42;
  const Blob frame = encode(msg);
  EXPECT_EQ(peek_type(frame), MsgType::kRegister);
  const RegisterMsg decoded = decode_register(frame);
  EXPECT_EQ(decoded.phone, 7);
  EXPECT_DOUBLE_EQ(decoded.cpu_mhz, 1512.5);
  EXPECT_DOUBLE_EQ(decoded.ram_kb, megabytes(768.0));
  EXPECT_EQ(decoded.zone, 42);
}

TEST(Protocol, RegisterWithoutZoneDecodesAsZoneZero) {
  // Registrations from agents predating the zone field stop after ram_kb;
  // they must still decode, landing in the default zone. Written field by
  // field because encode() now also appends the chunk-cache section.
  BufferWriter legacy;
  legacy.write_u8(static_cast<std::uint8_t>(MsgType::kRegister));
  legacy.write_i32(3);
  legacy.write_f64(1000.0);
  legacy.write_f64(megabytes(512.0));
  const RegisterMsg decoded = decode_register(legacy.take());
  EXPECT_EQ(decoded.phone, 3);
  EXPECT_EQ(decoded.zone, 0);
}

TEST(Protocol, RegisterAckRoundTripCarriesServerEpoch) {
  const Blob frame = encode(RegisterAckMsg{true, 0xDEADBEEFCAFE1234ULL});
  EXPECT_EQ(peek_type(frame), MsgType::kRegisterAck);
  const RegisterAckMsg decoded = decode_register_ack(frame);
  EXPECT_TRUE(decoded.accepted);
  EXPECT_EQ(decoded.server_epoch, 0xDEADBEEFCAFE1234ULL);
}

TEST(Protocol, RegisterAckWithoutEpochDecodesAsEpochZero) {
  // Acks from servers predating the epoch field carry only the accepted
  // flag; they must still decode, with the epoch reading as "unknown".
  const Blob legacy = {static_cast<std::uint8_t>(MsgType::kRegisterAck), 1};
  const RegisterAckMsg decoded = decode_register_ack(legacy);
  EXPECT_TRUE(decoded.accepted);
  EXPECT_EQ(decoded.server_epoch, 0u);
}

TEST(Protocol, AssignPieceRoundTrip) {
  AssignPieceMsg msg;
  msg.job = 42;
  msg.piece_seq = 3;
  msg.task_name = "prime-count";
  msg.kind = JobKind::kAtomic;
  msg.executable.assign(100, 0xEE);
  msg.input = {10, 20, 30};
  msg.checkpoint = {1, 2};
  msg.trace_piece = 77;
  msg.trace_attempt = 2;
  msg.trace_instant = 5;
  const Blob frame = encode(msg);
  const AssignPieceMsg decoded = decode_assign_piece(frame);
  EXPECT_EQ(decoded.job, 42);
  EXPECT_EQ(decoded.piece_seq, 3u);
  EXPECT_EQ(decoded.task_name, "prime-count");
  EXPECT_EQ(decoded.kind, JobKind::kAtomic);
  EXPECT_EQ(decoded.executable.size(), 100u);
  EXPECT_EQ(decoded.input, (Blob{10, 20, 30}));
  EXPECT_EQ(decoded.checkpoint, (Blob{1, 2}));
  EXPECT_EQ(decoded.trace_piece, 77);
  EXPECT_EQ(decoded.trace_attempt, 2);
  EXPECT_EQ(decoded.trace_instant, 5);
}

TEST(Protocol, AssignPieceTraceContextDefaultsToUnset) {
  const AssignPieceMsg decoded = decode_assign_piece(encode(AssignPieceMsg{}));
  EXPECT_EQ(decoded.trace_piece, -1);
  EXPECT_EQ(decoded.trace_attempt, -1);
  EXPECT_EQ(decoded.trace_instant, -1);
}

TEST(Protocol, CompleteAndFailedRoundTrip) {
  PieceCompleteMsg complete;
  complete.job = 1;
  complete.piece_seq = 9;
  complete.partial_result = {5, 5};
  complete.local_exec_ms = 123.5;
  const PieceCompleteMsg complete2 = decode_piece_complete(encode(complete));
  EXPECT_EQ(complete2.job, 1);
  EXPECT_EQ(complete2.piece_seq, 9u);
  EXPECT_EQ(complete2.partial_result, (Blob{5, 5}));
  EXPECT_DOUBLE_EQ(complete2.local_exec_ms, 123.5);

  PieceFailedMsg failed;
  failed.job = 2;
  failed.piece_seq = 4;
  failed.processed_bytes = 4096;
  failed.partial_result = {1};
  failed.checkpoint = {2, 3};
  failed.local_exec_ms = 55.0;
  const PieceFailedMsg failed2 = decode_piece_failed(encode(failed));
  EXPECT_EQ(failed2.job, 2);
  EXPECT_EQ(failed2.processed_bytes, 4096u);
  EXPECT_EQ(failed2.checkpoint, (Blob{2, 3}));
}

TEST(Protocol, KeepaliveRoundTrip) {
  const Blob ka = encode_keepalive(77);
  EXPECT_EQ(peek_type(ka), MsgType::kKeepAlive);
  EXPECT_EQ(decode_keepalive(ka).seq, 77u);
  const Blob ack = encode_keepalive_ack(77);
  EXPECT_EQ(peek_type(ack), MsgType::kKeepAliveAck);
  EXPECT_EQ(decode_keepalive_ack(ack).seq, 77u);
}

TEST(Protocol, KeepaliveAckStatsRoundTrip) {
  AgentStats stats;
  stats.cache_hit_kb = 1536.5;
  stats.cache_miss_kb = 640.25;
  stats.cache_bytes = 7 * 1024 * 1024;
  stats.cache_budget_bytes = 16 * 1024 * 1024;
  stats.replay_depth = 9;
  stats.charging = false;
  stats.exec_p50_ms = 12.5;
  stats.exec_p95_ms = 80.0;
  stats.exec_p99_ms = 141.75;

  const Blob ack = encode_keepalive_ack(42, stats);
  EXPECT_EQ(peek_type(ack), MsgType::kKeepAliveAck);
  // The legacy decoder still works on a stats-bearing frame (seq leads).
  EXPECT_EQ(decode_keepalive_ack(ack).seq, 42u);

  const KeepAliveAckMsg msg = decode_keepalive_ack_stats(ack);
  EXPECT_EQ(msg.seq, 42u);
  ASSERT_TRUE(msg.has_stats);
  EXPECT_DOUBLE_EQ(msg.stats.cache_hit_kb, 1536.5);
  EXPECT_DOUBLE_EQ(msg.stats.cache_miss_kb, 640.25);
  EXPECT_EQ(msg.stats.cache_bytes, 7u * 1024 * 1024);
  EXPECT_EQ(msg.stats.cache_budget_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(msg.stats.replay_depth, 9u);
  EXPECT_FALSE(msg.stats.charging);
  EXPECT_DOUBLE_EQ(msg.stats.exec_p50_ms, 12.5);
  EXPECT_DOUBLE_EQ(msg.stats.exec_p95_ms, 80.0);
  EXPECT_DOUBLE_EQ(msg.stats.exec_p99_ms, 141.75);
}

TEST(Protocol, LegacyKeepaliveAckIsPinnedByteIdentical) {
  // The stats block is trailing-optional: the stats-free encoder must
  // stay byte-for-byte what pre-telemetry agents sent, so mixed fleets
  // interoperate. Pinned layout: type byte + u64 seq = 9 bytes.
  const Blob legacy = encode_keepalive_ack(0x0102030405060708);
  ASSERT_EQ(legacy.size(), 9u);
  EXPECT_EQ(legacy[0], static_cast<std::uint8_t>(MsgType::kKeepAliveAck));
  const std::uint8_t seq_le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(legacy[1 + i], seq_le[i]) << "byte " << i;

  // A legacy frame decodes to "no stats", defaults intact.
  const KeepAliveAckMsg msg = decode_keepalive_ack_stats(legacy);
  EXPECT_EQ(msg.seq, 0x0102030405060708u);
  EXPECT_FALSE(msg.has_stats);
  EXPECT_TRUE(msg.stats.charging);  // untouched defaults
  EXPECT_EQ(msg.stats.replay_depth, 0u);
}

TEST(Protocol, ProbeMessages) {
  ProbeRequestMsg request;
  request.chunks = 4;
  request.chunk_bytes = 8192;
  const ProbeRequestMsg request2 = decode_probe_request(encode(request));
  EXPECT_EQ(request2.chunks, 4u);
  EXPECT_EQ(request2.chunk_bytes, 8192u);

  const Blob data = encode_probe_data(1000);
  EXPECT_EQ(data.size(), 1001u);
  EXPECT_EQ(peek_type(data), MsgType::kProbeData);

  const ProbeReportMsg report2 = decode_probe_report(encode(ProbeReportMsg{512.5}));
  EXPECT_DOUBLE_EQ(report2.measured_kbps, 512.5);
}

TEST(Protocol, TypeMismatchThrows) {
  const Blob frame = encode_keepalive(1);
  EXPECT_THROW(decode_register(frame), std::runtime_error);
  EXPECT_THROW(peek_type(Blob{}), std::runtime_error);
}

TEST(Sockets, LoopbackSendReceive) {
  TcpListener listener(0);
  TcpConnection client = TcpConnection::connect_local(listener.port());
  auto server_side = listener.accept();
  ASSERT_TRUE(server_side.has_value());

  const Blob payload = {1, 2, 3, 4};
  write_frame(client, payload);
  FrameDecoder decoder;
  const auto frame = read_frame(*server_side, decoder);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);

  client.close();
  const auto eof = read_frame(*server_side, decoder);
  EXPECT_FALSE(eof.has_value());
}

TEST(Sockets, EphemeralPortAssigned) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(Sockets, NonblockingAcceptReturnsNullopt) {
  TcpListener listener(0);
  listener.set_nonblocking(true);
  EXPECT_FALSE(listener.accept().has_value());
}

}  // namespace
}  // namespace cwc::net
