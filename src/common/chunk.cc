#include "common/chunk.h"

#include <algorithm>

namespace cwc {

std::vector<ChunkRef> chunk_blob(std::span<const std::uint8_t> blob, std::size_t chunk_bytes) {
  return chunks_covering(blob, chunk_bytes, 0, blob.size());
}

std::vector<ChunkRef> chunks_covering(std::span<const std::uint8_t> blob,
                                      std::size_t chunk_bytes, std::size_t begin,
                                      std::size_t end) {
  std::vector<ChunkRef> refs;
  if (chunk_bytes == 0 || begin >= end || begin >= blob.size()) return refs;
  end = std::min(end, blob.size());
  const std::size_t first = begin / chunk_bytes;
  const std::size_t last = (end - 1) / chunk_bytes;
  refs.reserve(last - first + 1);
  for (std::size_t k = first; k <= last; ++k) {
    const std::size_t off = k * chunk_bytes;
    const std::size_t len = std::min(chunk_bytes, blob.size() - off);
    refs.push_back({make_chunk_id(blob.subspan(off, len)), off});
  }
  return refs;
}

const ExecutableImage& ExecutableImages::of_size(std::size_t bytes) {
  const auto [it, inserted] = images_.try_emplace(bytes);
  if (inserted) {
    it->second.bytes.assign(bytes, 0xEE);
    it->second.chunks = chunk_blob(it->second.bytes, chunk_bytes_);
  }
  return it->second;
}

const std::vector<std::uint8_t>* ChunkCache::find(ChunkId id) {
  const auto it = map_.find(id);
  if (it == map_.end()) return nullptr;
  if (!chunk_matches(id, it->second.payload)) {
    erase(id);  // bit rot: the entry is worse than useless
    return nullptr;
  }
  lru_.splice(lru_.end(), lru_, it->second.pos);
  return &it->second.payload;
}

std::uint64_t ChunkCache::insert(ChunkId id, std::vector<std::uint8_t> payload) {
  if (payload.size() > budget_) return 0;
  if (const auto it = map_.find(id); it != map_.end()) {
    bytes_ -= it->second.payload.size();
    bytes_ += payload.size();
    it->second.payload = std::move(payload);
    lru_.splice(lru_.end(), lru_, it->second.pos);
    return 0;
  }
  std::uint64_t evicted = 0;
  while (!lru_.empty() && bytes_ + payload.size() > budget_) {
    const ChunkId oldest = lru_.front();
    const auto it = map_.find(oldest);
    evicted += it->second.payload.size();
    bytes_ -= it->second.payload.size();
    map_.erase(it);
    lru_.pop_front();
  }
  bytes_ += payload.size();
  const auto pos = lru_.insert(lru_.end(), id);
  map_.emplace(id, Entry{std::move(payload), pos});
  return evicted;
}

void ChunkCache::erase(ChunkId id) {
  const auto it = map_.find(id);
  if (it == map_.end()) return;
  bytes_ -= it->second.payload.size();
  lru_.erase(it->second.pos);
  map_.erase(it);
}

std::vector<ChunkId> ChunkCache::ids_oldest_first() const {
  return {lru_.begin(), lru_.end()};
}

bool ChunkCache::corrupt_for_test(ChunkId id) {
  const auto it = map_.find(id);
  if (it == map_.end() || it->second.payload.empty()) return false;
  it->second.payload[0] ^= 0xFF;
  return true;
}

void ChunkDirectory::set_budget(std::uint64_t budget_bytes) {
  budget_ = budget_bytes;
  while (!lru_.empty() && bytes_ > budget_) {
    const ChunkId oldest = lru_.front();
    bytes_ -= chunk_size_of(oldest);
    map_.erase(oldest);
    lru_.pop_front();
  }
}

std::uint64_t ChunkDirectory::insert(ChunkId id) {
  if (const auto it = map_.find(id); it != map_.end()) {
    lru_.splice(lru_.end(), lru_, it->second);
    return 0;
  }
  const std::uint64_t size = chunk_size_of(id);
  if (size > budget_) return 0;
  std::uint64_t evicted = 0;
  while (!lru_.empty() && bytes_ + size > budget_) {
    const ChunkId oldest = lru_.front();
    evicted += chunk_size_of(oldest);
    bytes_ -= chunk_size_of(oldest);
    map_.erase(oldest);
    lru_.pop_front();
  }
  bytes_ += size;
  map_.emplace(id, lru_.insert(lru_.end(), id));
  return evicted;
}

void ChunkDirectory::touch(ChunkId id) {
  if (const auto it = map_.find(id); it != map_.end()) {
    lru_.splice(lru_.end(), lru_, it->second);
  }
}

void ChunkDirectory::erase(ChunkId id) {
  const auto it = map_.find(id);
  if (it == map_.end()) return;
  bytes_ -= chunk_size_of(id);
  lru_.erase(it->second);
  map_.erase(it);
}

void ChunkDirectory::clear() {
  lru_.clear();
  map_.clear();
  bytes_ = 0;
}

std::vector<ChunkId> ChunkDirectory::ids_oldest_first() const {
  return {lru_.begin(), lru_.end()};
}

void ChunkDirectory::seed(std::span<const ChunkId> ids_oldest_first) {
  clear();
  for (const ChunkId id : ids_oldest_first) insert(id);
}

}  // namespace cwc
