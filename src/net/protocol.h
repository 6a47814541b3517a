// The CWC wire protocol (Section 6 of the paper).
//
// One persistent TCP connection per phone. After registration (the phone
// reports its CPU clock, as in the prototype) the server measures
// bandwidth with an iperf-like probe, then assigns pieces one at a time:
// each assignment carries the task name (the reflection key), a padding
// blob standing in for the dexed .jar on its first trip to a phone, the
// input slice, and — for migrated work — the checkpoint to resume from.
// Phones answer with completion or failure reports that include the
// actual local execution time (which refines the server's predictions)
// and, on failure, the partial result + checkpoint. Application-level
// keep-alives detect offline failures.
//
// All payloads use the little-endian BufferWriter/BufferReader format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/chunk.h"
#include "common/types.h"

namespace cwc::net {

using Blob = std::vector<std::uint8_t>;

enum class MsgType : std::uint8_t {
  kRegister = 1,
  kRegisterAck = 2,
  kProbeRequest = 3,   // server -> phone: expect `chunks` probe payloads
  kProbeData = 4,      // server -> phone: one probe payload
  kProbeReport = 5,    // phone -> server: measured KB/s
  kAssignPiece = 6,
  kPieceComplete = 7,
  kPieceFailed = 8,
  kKeepAlive = 9,
  kKeepAliveAck = 10,
  kShutdown = 11,      // server -> phone: batch finished, disconnect
  kCancelPiece = 12,   // server -> phone: abandon the in-flight piece (a
                       // speculative twin already completed it)
  kChunkRequest = 13,  // phone -> server: chunks the assignment said were
                       // cached are missing/corrupt; re-ship them
};

/// Type tag of an encoded frame; throws on empty frames.
MsgType peek_type(const Blob& frame);

struct RegisterMsg {
  PhoneId phone = kInvalidPhone;
  double cpu_mhz = 0.0;
  Kilobytes ram_kb = 0.0;
  /// Declared locality zone (house / cell / site); the pod packer groups
  /// phones sharing an uplink. 0 when absent (agents predating this field).
  std::int32_t zone = 0;
  /// Chunk-cache byte budget the agent maintains across jobs; 0 when the
  /// cache is disabled *or* the agent predates content-addressed shipping —
  /// either way the server falls back to full shipping.
  std::uint64_t cache_budget_bytes = 0;
  /// Cached chunk ids, oldest first, advertised so the server's per-phone
  /// directory resyncs to the cache that survived the reconnect.
  std::vector<ChunkId> cache_manifest;
};
Blob encode(const RegisterMsg& msg);
RegisterMsg decode_register(const Blob& frame);

struct RegisterAckMsg {
  bool accepted = false;
  /// Random nonce identifying one server run. Piece ids restart at 0 when
  /// a server restarts (recover_from included), so an agent that outlives
  /// the server must flush its (piece, attempt) replay cache whenever this
  /// changes — a cached report from the previous run could otherwise be
  /// replayed for a colliding identity belonging to different work.
  /// 0 when absent (acks from servers predating this field).
  std::uint64_t server_epoch = 0;
};
Blob encode(const RegisterAckMsg& msg);
RegisterAckMsg decode_register_ack(const Blob& frame);

struct ProbeRequestMsg {
  std::uint32_t chunks = 0;
  std::uint32_t chunk_bytes = 0;
};
Blob encode(const ProbeRequestMsg& msg);
ProbeRequestMsg decode_probe_request(const Blob& frame);

/// kProbeData frames carry `chunk_bytes` of padding after the type byte.
Blob encode_probe_data(std::uint32_t chunk_bytes);

struct ProbeReportMsg {
  double measured_kbps = 0.0;
};
Blob encode(const ProbeReportMsg& msg);
ProbeReportMsg decode_probe_report(const Blob& frame);

/// One grid chunk referenced by a chunked assignment: its content id, its
/// byte offset in the blob it came from (the synthesized executable, or the
/// *original* job input for input chunks), and whether its payload rides in
/// this frame (shipped) or is expected in the phone's cache.
struct ChunkWire {
  ChunkId id = 0;
  std::uint64_t offset = 0;
  bool shipped = false;
};

struct AssignPieceMsg {
  JobId job = kInvalidJob;
  std::uint32_t piece_seq = 0;       ///< echoed back in reports
  std::string task_name;
  JobKind kind = JobKind::kBreakable;
  /// Padding standing in for the task executable; present only on the
  /// job's first trip to this phone (executables are cached).
  Blob executable;
  Blob input;                        ///< the input slice
  Blob checkpoint;                   ///< non-empty when resuming migrated work
  /// Trace context (obs/trace.h causal IDs), propagated so spans emitted on
  /// the phone side stitch into the same trace as the server's events.
  std::int32_t trace_piece = -1;     ///< controller piece id
  std::int32_t trace_attempt = -1;   ///< job failure count at placement
  std::int64_t trace_instant = -1;   ///< scheduling instant that placed it
  /// Content-addressed shipping (common/chunk.h), used only for phones that
  /// registered a cache budget. When set, `executable`/`input` carry ONLY
  /// the shipped chunks' payloads (concatenated in manifest order); the
  /// full executable is the exec_chunks grid, and the input slice is
  /// re-assembled by walking input_fragments over the input_chunks grid.
  /// Legacy decoders never see these trailing fields and legacy frames
  /// (chunked == false) are byte-identical to the pre-chunk format.
  bool chunked = false;
  std::vector<ChunkWire> exec_chunks;
  std::vector<ChunkWire> input_chunks;
  /// [begin, end) byte ranges of the original job input forming the slice,
  /// in slice order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> input_fragments;
};
Blob encode(const AssignPieceMsg& msg);
AssignPieceMsg decode_assign_piece(const Blob& frame);

/// Byte ranges that go on the wire back to back as one length-prefixed blob.
using ByteSpans = std::vector<std::span<const std::uint8_t>>;
std::size_t gathered_size(const ByteSpans& spans);

/// The three blobs of an assignment, borrowed from storage the caller
/// keeps alive while encoding: the shared executable image, the job's
/// input (its slice fragments, or the shipped chunks), a checkpoint.
struct AssignPayloads {
  ByteSpans executable;
  ByteSpans input;
  std::span<const std::uint8_t> checkpoint;
};

/// Exact byte size of encode(fields, payloads).
std::size_t encoded_size(const AssignPieceMsg& fields, const AssignPayloads& payloads);
/// The assignment frame of `fields` with its executable, input and
/// checkpoint blobs read from `payloads`; the three blobs inside `fields`
/// are not read. The frame is allocated at its exact size and each payload
/// byte is copied once, straight from its source. encode(msg) is this
/// with the message's own blobs, so both forms write the same bytes.
Blob encode(const AssignPieceMsg& fields, const AssignPayloads& payloads);

struct PieceCompleteMsg {
  JobId job = kInvalidJob;
  std::uint32_t piece_seq = 0;
  /// (piece, attempt) identity echoed from the assignment so the server
  /// can recognize re-delivered reports idempotently (a retried
  /// AssignPiece may provoke a duplicate report for the same attempt).
  std::int32_t piece = -1;
  std::int32_t attempt = -1;
  Blob partial_result;
  Millis local_exec_ms = 0.0;
};
Blob encode(const PieceCompleteMsg& msg);
PieceCompleteMsg decode_piece_complete(const Blob& frame);

struct PieceFailedMsg {
  JobId job = kInvalidJob;
  std::uint32_t piece_seq = 0;
  std::int32_t piece = -1;            ///< assignment identity echo (see PieceCompleteMsg)
  std::int32_t attempt = -1;
  std::uint64_t processed_bytes = 0;  ///< prefix of the slice consumed
  Blob partial_result;                ///< result over the processed prefix
  Blob checkpoint;                    ///< migratable state (atomic tasks)
  Millis local_exec_ms = 0.0;
};
Blob encode(const PieceFailedMsg& msg);
PieceFailedMsg decode_piece_failed(const Blob& frame);

struct KeepAliveMsg {
  std::uint64_t seq = 0;
};

/// Telemetry an agent piggy-backs on its keep-alive ack — the fleet's
/// heartbeat doubles as its stats channel, so live visibility costs zero
/// extra frames. All values are cumulative-or-instantaneous phone-local
/// facts the server cannot otherwise observe.
struct AgentStats {
  double cache_hit_kb = 0.0;        ///< chunk bytes served from local cache
  double cache_miss_kb = 0.0;       ///< chunk bytes that had to ship
  std::uint64_t cache_bytes = 0;    ///< current chunk-cache occupancy
  std::uint64_t cache_budget_bytes = 0;  ///< configured cache budget (0 = off)
  std::uint32_t replay_depth = 0;   ///< (piece, attempt) replay-cache entries
  bool charging = true;             ///< false once the phone unplugs
  double exec_p50_ms = 0.0;         ///< local piece-turnaround quantiles,
  double exec_p95_ms = 0.0;         ///<   from the agent's own latency
  double exec_p99_ms = 0.0;         ///<   histogram (0 until first piece)
};

struct KeepAliveAckMsg {
  std::uint64_t seq = 0;
  /// False when the ack came from an agent predating shipped stats — the
  /// trailing block is optional exactly like RegisterMsg.zone, and the
  /// stats-free encoding is pinned byte-identical to the legacy frame.
  bool has_stats = false;
  AgentStats stats;
};

Blob encode_keepalive(std::uint64_t seq);
Blob encode_keepalive_ack(std::uint64_t seq);
/// Ack with the trailing stats block attached.
Blob encode_keepalive_ack(std::uint64_t seq, const AgentStats& stats);
KeepAliveMsg decode_keepalive(const Blob& frame);
KeepAliveMsg decode_keepalive_ack(const Blob& frame);
/// Full decode including the optional stats block (absent → has_stats false).
KeepAliveAckMsg decode_keepalive_ack_stats(const Blob& frame);

Blob encode_shutdown();

/// Cancels the in-flight assignment identified by (piece_seq, piece,
/// attempt): the first valid completion of a speculated piece won on the
/// server, and the losing attempt should stop burning the phone's battery.
/// The agent abandons execution without reporting; a cancel that no longer
/// matches what the phone is running (the report already left) is ignored
/// — the server arbitrates duplicates by identity either way.
struct CancelPieceMsg {
  std::uint32_t piece_seq = 0;
  std::int32_t piece = -1;
  std::int32_t attempt = -1;
};
Blob encode(const CancelPieceMsg& msg);
CancelPieceMsg decode_cancel_piece(const Blob& frame);

/// Phone -> server: chunks the assignment for (piece_seq, piece, attempt)
/// marked as cached are missing or failed their CRC check. The server
/// evicts them from its directory mirror and re-sends the assignment with
/// those chunks shipped — the self-healing path that makes directory drift
/// and cache corruption cost bytes instead of correctness.
struct ChunkRequestMsg {
  std::uint32_t piece_seq = 0;
  std::int32_t piece = -1;
  std::int32_t attempt = -1;
  std::vector<ChunkId> missing;
};
Blob encode(const ChunkRequestMsg& msg);
ChunkRequestMsg decode_chunk_request(const Blob& frame);

}  // namespace cwc::net
