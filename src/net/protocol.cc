#include "net/protocol.h"

#include <algorithm>
#include <stdexcept>

namespace cwc::net {

namespace {

BufferWriter begin(MsgType type) {
  BufferWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  return w;
}

/// A count read off the wire, capped by how many `element_bytes`-sized
/// elements the rest of the frame can hold: a hostile count then costs a
/// BufferUnderflow, not a huge allocation.
std::size_t reserve_bound(const BufferReader& r, std::uint32_t count, std::size_t element_bytes) {
  return std::min<std::size_t>(count, r.remaining() / element_bytes);
}

BufferReader open(const Blob& frame, MsgType expected) {
  BufferReader r(frame);
  const auto type = static_cast<MsgType>(r.read_u8());
  if (type != expected) {
    throw std::runtime_error("protocol: unexpected message type " +
                             std::to_string(static_cast<int>(type)));
  }
  return r;
}

}  // namespace

MsgType peek_type(const Blob& frame) {
  if (frame.empty()) throw std::runtime_error("protocol: empty frame");
  return static_cast<MsgType>(frame.front());
}

Blob encode(const RegisterMsg& msg) {
  BufferWriter w = begin(MsgType::kRegister);
  w.write_i32(msg.phone);
  w.write_f64(msg.cpu_mhz);
  w.write_f64(msg.ram_kb);
  w.write_i32(msg.zone);
  w.write_u64(msg.cache_budget_bytes);
  w.write_u32(static_cast<std::uint32_t>(msg.cache_manifest.size()));
  for (const ChunkId id : msg.cache_manifest) w.write_u64(id);
  return w.take();
}

RegisterMsg decode_register(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kRegister);
  RegisterMsg msg;
  msg.phone = r.read_i32();
  msg.cpu_mhz = r.read_f64();
  msg.ram_kb = r.read_f64();
  // Older agents register without a zone; they land in zone 0.
  if (r.remaining() >= 4) msg.zone = r.read_i32();
  // Older agents have no chunk cache: budget 0 -> full shipping.
  if (r.remaining() >= 8) msg.cache_budget_bytes = r.read_u64();
  if (r.remaining() >= 4) {
    const std::uint32_t count = r.read_u32();
    msg.cache_manifest.reserve(reserve_bound(r, count, 8));
    for (std::uint32_t i = 0; i < count; ++i) msg.cache_manifest.push_back(r.read_u64());
  }
  return msg;
}

Blob encode(const RegisterAckMsg& msg) {
  BufferWriter w = begin(MsgType::kRegisterAck);
  w.write_u8(msg.accepted ? 1 : 0);
  w.write_u64(msg.server_epoch);
  return w.take();
}

RegisterAckMsg decode_register_ack(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kRegisterAck);
  RegisterAckMsg msg;
  msg.accepted = r.read_u8() != 0;
  // Older servers ack with just the accepted flag; their epoch stays 0.
  if (r.remaining() >= 8) msg.server_epoch = r.read_u64();
  return msg;
}

Blob encode(const ProbeRequestMsg& msg) {
  BufferWriter w = begin(MsgType::kProbeRequest);
  w.write_u32(msg.chunks);
  w.write_u32(msg.chunk_bytes);
  return w.take();
}

ProbeRequestMsg decode_probe_request(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kProbeRequest);
  ProbeRequestMsg msg;
  msg.chunks = r.read_u32();
  msg.chunk_bytes = r.read_u32();
  return msg;
}

Blob encode_probe_data(std::uint32_t chunk_bytes) {
  Blob frame(1 + chunk_bytes, 0xA5);
  frame[0] = static_cast<std::uint8_t>(MsgType::kProbeData);
  return frame;
}

Blob encode(const ProbeReportMsg& msg) {
  BufferWriter w = begin(MsgType::kProbeReport);
  w.write_f64(msg.measured_kbps);
  return w.take();
}

ProbeReportMsg decode_probe_report(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kProbeReport);
  return ProbeReportMsg{r.read_f64()};
}

std::size_t gathered_size(const ByteSpans& spans) {
  std::size_t bytes = 0;
  for (const std::span<const std::uint8_t> span : spans) bytes += span.size();
  return bytes;
}

namespace {

// Wire bytes of one ChunkWire (id, offset, shipped) and of one input
// fragment (begin, end).
constexpr std::size_t kChunkWireBytes = 8 + 8 + 1;
constexpr std::size_t kFragmentWireBytes = 8 + 8;

void write_gathered(BufferWriter& w, const ByteSpans& spans) {
  w.write_u32(static_cast<std::uint32_t>(gathered_size(spans)));
  for (const std::span<const std::uint8_t> span : spans) w.write_raw(span);
}

}  // namespace

std::size_t encoded_size(const AssignPieceMsg& fields, const AssignPayloads& payloads) {
  // Field by field as encode() writes them: type, job, piece_seq, the
  // task name, kind, the three length-prefixed blobs, the trace ids.
  std::size_t bytes = 1 + 4 + 4;
  bytes += 4 + fields.task_name.size() + 1;
  bytes += 4 + gathered_size(payloads.executable);
  bytes += 4 + gathered_size(payloads.input);
  bytes += 4 + payloads.checkpoint.size();
  bytes += 4 + 4 + 8;
  if (fields.chunked) {
    bytes += 1;
    bytes += 4 + kChunkWireBytes * fields.exec_chunks.size();
    bytes += 4 + kChunkWireBytes * fields.input_chunks.size();
    bytes += 4 + kFragmentWireBytes * fields.input_fragments.size();
  }
  return bytes;
}

Blob encode(const AssignPieceMsg& fields, const AssignPayloads& payloads) {
  BufferWriter w;
  w.reserve(encoded_size(fields, payloads));
  w.write_u8(static_cast<std::uint8_t>(MsgType::kAssignPiece));
  w.write_i32(fields.job);
  w.write_u32(fields.piece_seq);
  w.write_string(fields.task_name);
  w.write_u8(static_cast<std::uint8_t>(fields.kind));
  write_gathered(w, payloads.executable);
  write_gathered(w, payloads.input);
  w.write_bytes(payloads.checkpoint);
  w.write_i32(fields.trace_piece);
  w.write_i32(fields.trace_attempt);
  w.write_i64(fields.trace_instant);
  // The chunk section is appended only for cache-enabled phones, so frames
  // to legacy (or cache-less) agents stay byte-identical to the old format.
  if (fields.chunked) {
    w.write_u8(1);
    const auto write_chunks = [&w](const std::vector<ChunkWire>& chunks) {
      w.write_u32(static_cast<std::uint32_t>(chunks.size()));
      for (const ChunkWire& chunk : chunks) {
        w.write_u64(chunk.id);
        w.write_u64(chunk.offset);
        w.write_u8(chunk.shipped ? 1 : 0);
      }
    };
    write_chunks(fields.exec_chunks);
    write_chunks(fields.input_chunks);
    w.write_u32(static_cast<std::uint32_t>(fields.input_fragments.size()));
    for (const auto& [begin, end] : fields.input_fragments) {
      w.write_u64(begin);
      w.write_u64(end);
    }
  }
  return w.take();
}

Blob encode(const AssignPieceMsg& msg) {
  return encode(msg, AssignPayloads{{msg.executable}, {msg.input}, msg.checkpoint});
}

AssignPieceMsg decode_assign_piece(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kAssignPiece);
  AssignPieceMsg msg;
  msg.job = r.read_i32();
  msg.piece_seq = r.read_u32();
  msg.task_name = r.read_string();
  msg.kind = static_cast<JobKind>(r.read_u8());
  msg.executable = r.read_bytes();
  msg.input = r.read_bytes();
  msg.checkpoint = r.read_bytes();
  msg.trace_piece = r.read_i32();
  msg.trace_attempt = r.read_i32();
  msg.trace_instant = r.read_i64();
  if (r.remaining() >= 1 && r.read_u8() != 0) {
    msg.chunked = true;
    const auto read_chunks = [&r](std::vector<ChunkWire>& chunks) {
      const std::uint32_t count = r.read_u32();
      chunks.reserve(reserve_bound(r, count, 17));
      for (std::uint32_t i = 0; i < count; ++i) {
        ChunkWire chunk;
        chunk.id = r.read_u64();
        chunk.offset = r.read_u64();
        chunk.shipped = r.read_u8() != 0;
        chunks.push_back(chunk);
      }
    };
    read_chunks(msg.exec_chunks);
    read_chunks(msg.input_chunks);
    const std::uint32_t fragments = r.read_u32();
    msg.input_fragments.reserve(reserve_bound(r, fragments, 16));
    for (std::uint32_t i = 0; i < fragments; ++i) {
      const std::uint64_t begin = r.read_u64();
      const std::uint64_t end = r.read_u64();
      msg.input_fragments.emplace_back(begin, end);
    }
  }
  return msg;
}

Blob encode(const PieceCompleteMsg& msg) {
  BufferWriter w = begin(MsgType::kPieceComplete);
  w.write_i32(msg.job);
  w.write_u32(msg.piece_seq);
  w.write_i32(msg.piece);
  w.write_i32(msg.attempt);
  w.write_bytes(msg.partial_result);
  w.write_f64(msg.local_exec_ms);
  return w.take();
}

PieceCompleteMsg decode_piece_complete(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kPieceComplete);
  PieceCompleteMsg msg;
  msg.job = r.read_i32();
  msg.piece_seq = r.read_u32();
  msg.piece = r.read_i32();
  msg.attempt = r.read_i32();
  msg.partial_result = r.read_bytes();
  msg.local_exec_ms = r.read_f64();
  return msg;
}

Blob encode(const PieceFailedMsg& msg) {
  BufferWriter w = begin(MsgType::kPieceFailed);
  w.write_i32(msg.job);
  w.write_u32(msg.piece_seq);
  w.write_i32(msg.piece);
  w.write_i32(msg.attempt);
  w.write_u64(msg.processed_bytes);
  w.write_bytes(msg.partial_result);
  w.write_bytes(msg.checkpoint);
  w.write_f64(msg.local_exec_ms);
  return w.take();
}

PieceFailedMsg decode_piece_failed(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kPieceFailed);
  PieceFailedMsg msg;
  msg.job = r.read_i32();
  msg.piece_seq = r.read_u32();
  msg.piece = r.read_i32();
  msg.attempt = r.read_i32();
  msg.processed_bytes = r.read_u64();
  msg.partial_result = r.read_bytes();
  msg.checkpoint = r.read_bytes();
  msg.local_exec_ms = r.read_f64();
  return msg;
}

Blob encode_keepalive(std::uint64_t seq) {
  BufferWriter w = begin(MsgType::kKeepAlive);
  w.write_u64(seq);
  return w.take();
}

Blob encode_keepalive_ack(std::uint64_t seq) {
  BufferWriter w = begin(MsgType::kKeepAliveAck);
  w.write_u64(seq);
  return w.take();
}

Blob encode_keepalive_ack(std::uint64_t seq, const AgentStats& stats) {
  BufferWriter w = begin(MsgType::kKeepAliveAck);
  w.write_u64(seq);
  // Trailing stats block, led by a version byte so the layout can grow
  // again without another flag. Legacy decoders stop at the seq and never
  // look here; the stats-free overload above stays byte-identical.
  w.write_u8(1);
  w.write_f64(stats.cache_hit_kb);
  w.write_f64(stats.cache_miss_kb);
  w.write_u64(stats.cache_bytes);
  w.write_u64(stats.cache_budget_bytes);
  w.write_u32(stats.replay_depth);
  w.write_u8(stats.charging ? 1 : 0);
  w.write_f64(stats.exec_p50_ms);
  w.write_f64(stats.exec_p95_ms);
  w.write_f64(stats.exec_p99_ms);
  return w.take();
}

KeepAliveMsg decode_keepalive(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kKeepAlive);
  return KeepAliveMsg{r.read_u64()};
}

KeepAliveMsg decode_keepalive_ack(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kKeepAliveAck);
  return KeepAliveMsg{r.read_u64()};
}

KeepAliveAckMsg decode_keepalive_ack_stats(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kKeepAliveAck);
  KeepAliveAckMsg msg;
  msg.seq = r.read_u64();
  if (r.remaining() == 0) return msg;  // legacy agent: seq only
  const std::uint8_t version = r.read_u8();
  if (version < 1) return msg;
  msg.has_stats = true;
  msg.stats.cache_hit_kb = r.read_f64();
  msg.stats.cache_miss_kb = r.read_f64();
  msg.stats.cache_bytes = r.read_u64();
  msg.stats.cache_budget_bytes = r.read_u64();
  msg.stats.replay_depth = r.read_u32();
  msg.stats.charging = r.read_u8() != 0;
  msg.stats.exec_p50_ms = r.read_f64();
  msg.stats.exec_p95_ms = r.read_f64();
  msg.stats.exec_p99_ms = r.read_f64();
  return msg;
}

Blob encode_shutdown() { return begin(MsgType::kShutdown).take(); }

Blob encode(const CancelPieceMsg& msg) {
  BufferWriter w = begin(MsgType::kCancelPiece);
  w.write_u32(msg.piece_seq);
  w.write_i32(msg.piece);
  w.write_i32(msg.attempt);
  return w.take();
}

CancelPieceMsg decode_cancel_piece(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kCancelPiece);
  CancelPieceMsg msg;
  msg.piece_seq = r.read_u32();
  msg.piece = r.read_i32();
  msg.attempt = r.read_i32();
  return msg;
}

Blob encode(const ChunkRequestMsg& msg) {
  BufferWriter w = begin(MsgType::kChunkRequest);
  w.write_u32(msg.piece_seq);
  w.write_i32(msg.piece);
  w.write_i32(msg.attempt);
  w.write_u32(static_cast<std::uint32_t>(msg.missing.size()));
  for (const ChunkId id : msg.missing) w.write_u64(id);
  return w.take();
}

ChunkRequestMsg decode_chunk_request(const Blob& frame) {
  BufferReader r = open(frame, MsgType::kChunkRequest);
  ChunkRequestMsg msg;
  msg.piece_seq = r.read_u32();
  msg.piece = r.read_i32();
  msg.attempt = r.read_i32();
  const std::uint32_t count = r.read_u32();
  msg.missing.reserve(reserve_bound(r, count, 8));
  for (std::uint32_t i = 0; i < count; ++i) msg.missing.push_back(r.read_u64());
  return msg;
}

}  // namespace cwc::net
