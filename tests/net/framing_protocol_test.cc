#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/chunk.h"
#include "common/rng.h"
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

// --- Single-copy assignment frames ----------------------------------------
//
// The server encodes an assignment straight from the shared executable
// image and the job's input: encode(fields, payloads) gathers byte ranges
// into one exactly sized frame. Each case below must give, byte for byte,
// the frame a field-by-field writer makes from the materialized message
// (the format as first defined), and encode(msg) must agree; the frame
// must also decode back to that message.

/// The assignment wire format, written one field at a time into a growing
/// buffer from fully materialized blobs.
Blob reference_assign_frame(const AssignPieceMsg& msg) {
  BufferWriter w;
  w.write_u8(static_cast<std::uint8_t>(MsgType::kAssignPiece));
  w.write_i32(msg.job);
  w.write_u32(msg.piece_seq);
  w.write_string(msg.task_name);
  w.write_u8(static_cast<std::uint8_t>(msg.kind));
  w.write_bytes(msg.executable);
  w.write_bytes(msg.input);
  w.write_bytes(msg.checkpoint);
  w.write_i32(msg.trace_piece);
  w.write_i32(msg.trace_attempt);
  w.write_i64(msg.trace_instant);
  if (msg.chunked) {
    w.write_u8(1);
    for (const std::vector<ChunkWire>* chunks : {&msg.exec_chunks, &msg.input_chunks}) {
      w.write_u32(static_cast<std::uint32_t>(chunks->size()));
      for (const ChunkWire& chunk : *chunks) {
        w.write_u64(chunk.id);
        w.write_u64(chunk.offset);
        w.write_u8(chunk.shipped ? 1 : 0);
      }
    }
    w.write_u32(static_cast<std::uint32_t>(msg.input_fragments.size()));
    for (const auto& [begin, end] : msg.input_fragments) {
      w.write_u64(begin);
      w.write_u64(end);
    }
  }
  return w.take();
}

Blob concat(const ByteSpans& spans) {
  Blob out;
  for (const std::span<const std::uint8_t> span : spans) {
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

/// Shared sources, as the server holds them: one executable image of a
/// typical task's size on a 4 KB grid, and a 64 KB job input.
struct FrameSources {
  FrameSources() : images(4 * 1024), image(images.of_size(31 * 1024)) {
    Rng rng(9);
    input.resize(64 * 1024);
    for (std::uint8_t& byte : input) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    input_chunks = chunk_blob(input, 4 * 1024);
  }
  std::span<const std::uint8_t> slice(std::size_t begin, std::size_t end) const {
    return std::span<const std::uint8_t>(input).subspan(begin, end - begin);
  }
  ExecutableImages images;
  const ExecutableImage& image;
  Blob input;
  std::vector<ChunkRef> input_chunks;
};

AssignPieceMsg assignment_fields(JobKind kind = JobKind::kBreakable) {
  AssignPieceMsg fields;
  fields.job = 1207;
  fields.piece_seq = 19;
  fields.task_name = "log-scan:disk failure";
  fields.kind = kind;
  fields.trace_piece = 5003;
  fields.trace_attempt = 1;
  fields.trace_instant = 12;
  return fields;
}

void expect_same_assignment(const AssignPieceMsg& got, const AssignPieceMsg& want) {
  EXPECT_EQ(got.job, want.job);
  EXPECT_EQ(got.piece_seq, want.piece_seq);
  EXPECT_EQ(got.task_name, want.task_name);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.executable, want.executable);
  EXPECT_EQ(got.input, want.input);
  EXPECT_EQ(got.checkpoint, want.checkpoint);
  EXPECT_EQ(got.trace_piece, want.trace_piece);
  EXPECT_EQ(got.trace_attempt, want.trace_attempt);
  EXPECT_EQ(got.trace_instant, want.trace_instant);
  EXPECT_EQ(got.chunked, want.chunked);
  ASSERT_EQ(got.exec_chunks.size(), want.exec_chunks.size());
  for (std::size_t i = 0; i < got.exec_chunks.size(); ++i) {
    EXPECT_EQ(got.exec_chunks[i].id, want.exec_chunks[i].id);
    EXPECT_EQ(got.exec_chunks[i].offset, want.exec_chunks[i].offset);
    EXPECT_EQ(got.exec_chunks[i].shipped, want.exec_chunks[i].shipped);
  }
  ASSERT_EQ(got.input_chunks.size(), want.input_chunks.size());
  for (std::size_t i = 0; i < got.input_chunks.size(); ++i) {
    EXPECT_EQ(got.input_chunks[i].id, want.input_chunks[i].id);
    EXPECT_EQ(got.input_chunks[i].offset, want.input_chunks[i].offset);
    EXPECT_EQ(got.input_chunks[i].shipped, want.input_chunks[i].shipped);
  }
  EXPECT_EQ(got.input_fragments, want.input_fragments);
}

/// Encodes from spans, then checks the frame against the materialized
/// message: exact size, reference bytes, the encode(msg) wrapper, decode.
void expect_single_copy_frame(const AssignPieceMsg& fields, const AssignPayloads& payloads) {
  const Blob frame = encode(fields, payloads);
  EXPECT_EQ(frame.size(), encoded_size(fields, payloads));
  EXPECT_EQ(frame.capacity(), frame.size()) << "the frame grew past its computed size";

  AssignPieceMsg materialized = fields;
  materialized.executable = concat(payloads.executable);
  materialized.input = concat(payloads.input);
  materialized.checkpoint.assign(payloads.checkpoint.begin(), payloads.checkpoint.end());
  EXPECT_EQ(frame, reference_assign_frame(materialized));
  EXPECT_EQ(frame, encode(materialized));
  expect_same_assignment(decode_assign_piece(frame), materialized);
}

TEST(AssignFrame, ExecutableShippedOneFragment) {
  const FrameSources src;
  AssignPayloads payloads;
  payloads.executable.push_back(src.image.bytes);
  payloads.input.push_back(src.slice(2048, 4096));
  expect_single_copy_frame(assignment_fields(), payloads);
}

TEST(AssignFrame, ExecutableCachedNoFragments) {
  const FrameSources src;
  expect_single_copy_frame(assignment_fields(), AssignPayloads{});
}

TEST(AssignFrame, ThreeFragments) {
  // Failures fragment the pending pool: a slice can concatenate several
  // non-contiguous ranges, in slice order (not offset order).
  const FrameSources src;
  for (const bool exec : {true, false}) {
    AssignPayloads payloads;
    if (exec) payloads.executable.push_back(src.image.bytes);
    payloads.input = {src.slice(40'000, 41'500), src.slice(100, 2'100), src.slice(9'000, 9'001)};
    expect_single_copy_frame(assignment_fields(), payloads);
  }
}

TEST(AssignFrame, AtomicJobWithCheckpoint) {
  const FrameSources src;
  const Blob checkpoint = {0x10, 0x27, 0, 0, 0, 0, 0, 0, 0xAB, 0xCD};
  AssignPayloads payloads;
  payloads.executable.push_back(src.image.bytes);
  payloads.input.push_back(src.slice(0, src.input.size()));
  payloads.checkpoint = checkpoint;
  expect_single_copy_frame(assignment_fields(JobKind::kAtomic), payloads);
}

TEST(AssignFrame, ChunkedShippedAndCachedChunks) {
  // A cache-enabled phone: every grid chunk is listed, only the chunks the
  // phone lacks ride in the frame, gathered straight from their sources.
  const FrameSources src;
  ASSERT_GE(src.image.chunks.size(), 4u);
  for (const bool exec : {true, false}) {
    AssignPieceMsg fields = assignment_fields();
    fields.chunked = true;
    AssignPayloads payloads;
    if (exec) {
      for (std::size_t k = 0; k < src.image.chunks.size(); ++k) {
        const ChunkRef& ref = src.image.chunks[k];
        const bool shipped = k % 3 != 1;
        fields.exec_chunks.push_back({ref.id, ref.offset, shipped});
        if (shipped) {
          payloads.executable.push_back(std::span<const std::uint8_t>(src.image.bytes)
                                            .subspan(ref.offset, chunk_size_of(ref.id)));
        }
      }
    }
    // Two fragments over input chunks 1-2 and 5; chunk 2 is cached.
    fields.input_fragments = {{5'000, 11'000}, {20'500, 22'000}};
    for (const std::size_t k : {1u, 2u, 5u}) {
      const ChunkRef& ref = src.input_chunks[k];
      const bool shipped = k != 2;
      fields.input_chunks.push_back({ref.id, ref.offset, shipped});
      if (shipped) {
        payloads.input.push_back(src.slice(ref.offset, ref.offset + chunk_size_of(ref.id)));
      }
    }
    expect_single_copy_frame(fields, payloads);
  }
}

TEST(AssignFrame, ChunkedAllCached) {
  const FrameSources src;
  AssignPieceMsg fields = assignment_fields();
  fields.chunked = true;
  for (const ChunkRef& ref : src.image.chunks) {
    fields.exec_chunks.push_back({ref.id, ref.offset, false});
  }
  fields.input_chunks.push_back({src.input_chunks[0].id, 0, false});
  fields.input_fragments = {{0, 1'000}};
  expect_single_copy_frame(fields, AssignPayloads{});
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
