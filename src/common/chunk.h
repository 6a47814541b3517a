// Content-addressed chunking for transfer dedup (ROADMAP item 4).
//
// Executables and piece inputs are split on a fixed byte grid; each grid
// chunk is addressed by a ChunkId that embeds its CRC-32 and size, so two
// blobs sharing bytes (a re-submitted input file, the same task binary)
// share chunk ids regardless of which piece or job carries them. The agent
// keeps payloads in a bounded LRU ChunkCache across jobs; the server (and
// the simulator) mirror only the *ids* per phone in a ChunkDirectory with
// the same LRU policy, and ship just the chunks the directory says are
// missing.
//
// The directory is an approximation, not ground truth: if it drifts from
// the agent's real cache (a lost frame, a corrupted entry) the agent's
// CRC-verified lookup misses and a chunk re-fetch heals the disagreement —
// drift costs bytes, never correctness. A (re)register resyncs the
// directory wholesale from the agent's advertised manifest.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/crc32.h"

namespace cwc {

/// Content address of one chunk: (crc32 << 32) | size. The size rides in
/// the low bits so an id-only directory can account bytes, and the CRC
/// guards every cache lookup (a corrupted payload stops matching its id).
using ChunkId = std::uint64_t;

inline std::size_t chunk_size_of(ChunkId id) {
  return static_cast<std::size_t>(id & 0xFFFFFFFFull);
}

inline ChunkId make_chunk_id(std::span<const std::uint8_t> payload) {
  return (static_cast<ChunkId>(crc32(payload)) << 32) |
         (static_cast<ChunkId>(payload.size()) & 0xFFFFFFFFull);
}

/// Verifies that `payload` still hashes to `id`.
inline bool chunk_matches(ChunkId id, std::span<const std::uint8_t> payload) {
  return make_chunk_id(payload) == id;
}

/// One grid chunk of a blob: `offset` is its byte position in the original
/// blob (always a multiple of the grid size except never — offsets ARE
/// grid-aligned; the final chunk may be short).
struct ChunkRef {
  ChunkId id = 0;
  std::uint64_t offset = 0;
};

/// Splits `blob` into grid chunks of `chunk_bytes` (last one short).
std::vector<ChunkRef> chunk_blob(std::span<const std::uint8_t> blob, std::size_t chunk_bytes);

/// The grid chunks of `blob` overlapping the byte range [begin, end).
std::vector<ChunkRef> chunks_covering(std::span<const std::uint8_t> blob,
                                      std::size_t chunk_bytes, std::size_t begin,
                                      std::size_t end);

/// The stand-in for a task's executable: where a deployment ships the
/// task binary, the reproduction ships that many bytes of constant
/// padding. A size therefore fixes the bytes and, with them, the chunk
/// grid, so every job whose executable has that size shares one image.
struct ExecutableImage {
  std::vector<std::uint8_t> bytes;
  std::vector<ChunkRef> chunks;  ///< grid of `bytes`; empty when chunking is off
};

/// Builds each executable size's image once, on first use, and hands out
/// references that stay valid for the cache's lifetime.
class ExecutableImages {
 public:
  /// `chunk_bytes` is the grid every image is cut on (0 = no grid).
  explicit ExecutableImages(std::size_t chunk_bytes) : chunk_bytes_(chunk_bytes) {}

  const ExecutableImage& of_size(std::size_t bytes);

 private:
  std::size_t chunk_bytes_;
  std::unordered_map<std::size_t, ExecutableImage> images_;
};

/// Agent-side payload store: bounded LRU over chunk payloads. Lookups are
/// CRC-verified — a corrupted entry reads as absent (and is evicted), which
/// is exactly the signal the re-fetch path needs.
class ChunkCache {
 public:
  explicit ChunkCache(std::uint64_t budget_bytes = 0) : budget_(budget_bytes) {}

  bool enabled() const { return budget_ > 0; }
  std::uint64_t budget() const { return budget_; }
  std::uint64_t bytes() const { return bytes_; }
  std::size_t size() const { return map_.size(); }

  bool contains(ChunkId id) const { return map_.count(id) != 0; }

  /// Verifying lookup: returns the payload and refreshes LRU recency, or
  /// nullptr when absent *or* when the stored bytes no longer hash to `id`
  /// (the corrupt entry is evicted). The returned pointer is valid until
  /// the next mutating call.
  const std::vector<std::uint8_t>* find(ChunkId id);

  /// Inserts (or refreshes) a payload, evicting least-recently-used entries
  /// to honor the byte budget. Returns the bytes evicted to make room.
  /// Payloads larger than the whole budget are not stored.
  std::uint64_t insert(ChunkId id, std::vector<std::uint8_t> payload);

  void erase(ChunkId id);

  /// Ids oldest-first — the order a register manifest advertises, so the
  /// server can replay inserts and converge on the same LRU state.
  std::vector<ChunkId> ids_oldest_first() const;

  /// Flips one byte of a stored payload (fault injection: a bit-rotted
  /// cache entry). Returns false when the id is not cached.
  bool corrupt_for_test(ChunkId id);

 private:
  struct Entry {
    std::vector<std::uint8_t> payload;
    std::list<ChunkId>::iterator pos;
  };
  std::uint64_t budget_ = 0;
  std::uint64_t bytes_ = 0;
  std::list<ChunkId> lru_;  // front = oldest
  std::unordered_map<ChunkId, Entry> map_;
};

/// Id-only mirror of a phone's cache with the same LRU policy — what the
/// server keeps per phone and what simulated phones "hold". Byte accounting
/// comes from the sizes embedded in the ids.
class ChunkDirectory {
 public:
  explicit ChunkDirectory(std::uint64_t budget_bytes = 0) : budget_(budget_bytes) {}

  void set_budget(std::uint64_t budget_bytes);
  bool enabled() const { return budget_ > 0; }
  std::uint64_t budget() const { return budget_; }
  std::uint64_t bytes() const { return bytes_; }
  std::size_t size() const { return map_.size(); }

  bool contains(ChunkId id) const { return map_.count(id) != 0; }

  /// Marks `id` present (inserting or refreshing recency), evicting oldest
  /// ids over budget. Returns the bytes evicted.
  std::uint64_t insert(ChunkId id);

  /// Refreshes recency if present; no-op otherwise.
  void touch(ChunkId id);

  void erase(ChunkId id);
  void clear();

  std::vector<ChunkId> ids_oldest_first() const;

  /// Replaces the contents with `ids` (oldest first) — the register-time
  /// resync from an agent's advertised manifest.
  void seed(std::span<const ChunkId> ids_oldest_first);

 private:
  std::uint64_t budget_ = 0;
  std::uint64_t bytes_ = 0;
  std::list<ChunkId> lru_;  // front = oldest
  std::unordered_map<ChunkId, std::list<ChunkId>::iterator> map_;
};

}  // namespace cwc
