// Content-addressed chunk store: grid chunking, the agent-side payload
// cache (LRU + CRC-verified lookups), the server-side id directory that
// mirrors it, the shared executable images, and the CRC-32 that chunk ids
// embed.
#include "common/chunk.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace cwc {
namespace {

std::vector<std::uint8_t> pattern_blob(std::size_t bytes, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> blob(bytes);
  std::uint8_t v = seed;
  for (auto& b : blob) b = v = static_cast<std::uint8_t>(v * 31 + 7);
  return blob;
}

/// CRC-32 one bit at a time over the reflected IEEE polynomial, with no
/// tables: what the slice-by-8 tables must reproduce exactly.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t bytes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndStartOffset) {
  constexpr std::size_t kMaxLength = 4096;
  const auto blob = random_bytes(kMaxLength + 8, 11);
  for (std::size_t start = 0; start < 8; ++start) {
    // The reference advances one byte per length, chained through its seed.
    std::uint32_t expected = 0;  // the CRC of zero bytes
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(crc32({blob.data() + start, length}), expected)
          << "start " << start << ", length " << length;
      if (length < kMaxLength) {
        expected = bitwise_crc32({blob.data() + start + length, 1}, expected);
      }
    }
  }
}

TEST(Crc32, ChainsAcrossSplitBuffers) {
  const auto blob = random_bytes(3000, 12);
  const std::span<const std::uint8_t> all(blob);
  const std::uint32_t whole = bitwise_crc32(all);
  ASSERT_EQ(crc32(all), whole);
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 15u, 1500u, 2993u, 2999u, 3000u}) {
    EXPECT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))), whole) << "cut at " << cut;
  }
  // Three pieces, none of them a multiple of eight bytes long.
  const std::uint32_t first = crc32(all.first(13));
  const std::uint32_t second = crc32(all.subspan(13, 1001), first);
  EXPECT_EQ(crc32(all.subspan(1014), second), whole);
}

TEST(ChunkId, MatchesIdsOfEarlierBuilds) {
  // Computed with the bytewise table loop that slice-by-8 replaced: agent
  // caches and journal files written by older builds must still match.
  // 64 KB of executable padding (a whole grid chunk) and 37 bytes (a
  // short tail chunk).
  EXPECT_EQ(make_chunk_id(std::vector<std::uint8_t>(64 * 1024, 0xEE)), 0xB2B5904400010000ull);
  EXPECT_EQ(make_chunk_id(std::vector<std::uint8_t>(37, 0xEE)), 0xB079701800000025ull);
  // The grid of a 100 KB + 5 B executable on 64 KB chunks: one whole chunk
  // and a 36 KB + 5 B tail.
  ExecutableImages images(64 * 1024);
  const ExecutableImage& image = images.of_size(100 * 1024 + 5);
  ASSERT_EQ(image.chunks.size(), 2u);
  EXPECT_EQ(image.chunks[0].id, 0xB2B5904400010000ull);
  EXPECT_EQ(image.chunks[1].id, 0xECC5F4F500009005ull);
  EXPECT_EQ(image.chunks[1].offset, 64u * 1024);
}

TEST(ExecutableImages, OneImagePerSize) {
  ExecutableImages images(16 * 1024);
  const ExecutableImage& a = images.of_size(40 * 1024);
  EXPECT_EQ(&images.of_size(40 * 1024), &a);  // built once, shared by every job of the size
  EXPECT_EQ(a.bytes.size(), 40u * 1024);
  const auto grid = chunk_blob(a.bytes, 16 * 1024);
  ASSERT_EQ(a.chunks.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(a.chunks[i].id, grid[i].id);
    EXPECT_EQ(a.chunks[i].offset, grid[i].offset);
  }
  const ExecutableImage& b = images.of_size(24 * 1024);
  EXPECT_NE(&b, &a);
  EXPECT_EQ(b.bytes.size(), 24u * 1024);
  EXPECT_EQ(&images.of_size(40 * 1024), &a);  // still valid after another size was added
  // Chunking off: the bytes without a grid.
  ExecutableImages ungridded(0);
  EXPECT_EQ(ungridded.of_size(1024).bytes.size(), 1024u);
  EXPECT_TRUE(ungridded.of_size(1024).chunks.empty());
}

TEST(ChunkId, EmbedsSizeAndGuardsContent) {
  const auto blob = pattern_blob(1000);
  const ChunkId id = make_chunk_id(blob);
  EXPECT_EQ(chunk_size_of(id), 1000u);
  EXPECT_TRUE(chunk_matches(id, blob));
  auto tampered = blob;
  tampered[500] ^= 0x01;
  EXPECT_FALSE(chunk_matches(id, tampered));
}

TEST(ChunkBlob, GridCoversBlobExactlyOnce) {
  const auto blob = pattern_blob(10 * 1024 + 37);  // last chunk short
  const auto chunks = chunk_blob(blob, 4 * 1024);
  ASSERT_EQ(chunks.size(), 3u);
  std::size_t total = 0;
  std::uint64_t expect_offset = 0;
  for (const ChunkRef& ref : chunks) {
    EXPECT_EQ(ref.offset, expect_offset);
    const std::size_t size = chunk_size_of(ref.id);
    EXPECT_TRUE(chunk_matches(
        ref.id, std::span<const std::uint8_t>(blob.data() + ref.offset, size)));
    expect_offset += size;
    total += size;
  }
  EXPECT_EQ(total, blob.size());
}

TEST(ChunkBlob, IdenticalContentSharesIds) {
  const auto blob = pattern_blob(8 * 1024);
  const auto a = chunk_blob(blob, 2 * 1024);
  const auto b = chunk_blob(blob, 2 * 1024);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(ChunksCovering, ReturnsOverlappingGridChunks) {
  const auto blob = pattern_blob(16 * 1024);
  // [5k, 9k) overlaps grid chunks 1 and 2 on a 4k grid.
  const auto covering = chunks_covering(blob, 4 * 1024, 5 * 1024, 9 * 1024);
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[0].offset, 4u * 1024);
  EXPECT_EQ(covering[1].offset, 8u * 1024);
  const auto grid = chunk_blob(blob, 4 * 1024);
  EXPECT_EQ(covering[0].id, grid[1].id);
  EXPECT_EQ(covering[1].id, grid[2].id);
  EXPECT_TRUE(chunks_covering(blob, 4 * 1024, 2048, 2048).empty());
}

TEST(ChunkCache, EvictsLeastRecentlyUsed) {
  ChunkCache cache(3 * 1024);
  const auto a = pattern_blob(1024, 1);
  const auto b = pattern_blob(1024, 2);
  const auto c = pattern_blob(1024, 3);
  const auto d = pattern_blob(1024, 4);
  const ChunkId ia = make_chunk_id(a), ib = make_chunk_id(b);
  const ChunkId ic = make_chunk_id(c), id = make_chunk_id(d);
  cache.insert(ia, a);
  cache.insert(ib, b);
  cache.insert(ic, c);
  ASSERT_NE(cache.find(ia), nullptr);  // refresh a: b is now oldest
  EXPECT_EQ(cache.insert(id, d), 1024u);
  EXPECT_FALSE(cache.contains(ib));
  EXPECT_TRUE(cache.contains(ia));
  EXPECT_TRUE(cache.contains(ic));
  EXPECT_TRUE(cache.contains(id));
  EXPECT_EQ(cache.bytes(), 3u * 1024);
}

TEST(ChunkCache, FindIsCrcVerified) {
  ChunkCache cache(64 * 1024);
  const auto payload = pattern_blob(2048);
  const ChunkId id = make_chunk_id(payload);
  cache.insert(id, payload);
  ASSERT_NE(cache.find(id), nullptr);
  ASSERT_TRUE(cache.corrupt_for_test(id));
  // The corrupted entry reads as absent and is evicted on the failed find.
  EXPECT_EQ(cache.find(id), nullptr);
  EXPECT_FALSE(cache.contains(id));
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ChunkCache, OversizedPayloadIsNotStored) {
  ChunkCache cache(1024);
  const auto big = pattern_blob(4096);
  cache.insert(make_chunk_id(big), big);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ChunkCache, ManifestReplaysIntoDirectoryIdentically) {
  ChunkCache cache(8 * 1024);
  for (std::uint8_t k = 0; k < 5; ++k) {
    const auto payload = pattern_blob(1024, static_cast<std::uint8_t>(k + 1));
    cache.insert(make_chunk_id(payload), payload);
  }
  ChunkDirectory dir(8 * 1024);
  const auto manifest = cache.ids_oldest_first();
  dir.seed(manifest);
  EXPECT_EQ(dir.ids_oldest_first(), manifest);
  EXPECT_EQ(dir.bytes(), cache.bytes());
}

TEST(ChunkDirectory, LruMatchesCachePolicy) {
  // Same insert/touch sequence -> same survivors on both sides, the
  // property that keeps the server's mirror honest without round-trips.
  ChunkCache cache(3 * 1024);
  ChunkDirectory dir(3 * 1024);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint8_t k = 0; k < 6; ++k) {
    payloads.push_back(pattern_blob(1024, static_cast<std::uint8_t>(k + 1)));
  }
  const auto step = [&](std::size_t k) {
    const ChunkId id = make_chunk_id(payloads[k]);
    if (dir.contains(id)) {
      dir.touch(id);
      (void)cache.find(id);
    } else {
      dir.insert(id);
      cache.insert(id, payloads[k]);
    }
  };
  for (std::size_t k : {0u, 1u, 2u, 0u, 3u, 4u, 2u, 5u}) step(k);
  EXPECT_EQ(dir.ids_oldest_first(), cache.ids_oldest_first());
}

TEST(ChunkDirectory, SeedDropsOverBudgetOldestFirst) {
  ChunkDirectory dir(2 * 1024);
  std::vector<ChunkId> ids;
  for (std::uint8_t k = 0; k < 4; ++k) {
    ids.push_back(make_chunk_id(pattern_blob(1024, static_cast<std::uint8_t>(k + 1))));
  }
  dir.seed(ids);
  EXPECT_EQ(dir.size(), 2u);
  EXPECT_FALSE(dir.contains(ids[0]));
  EXPECT_FALSE(dir.contains(ids[1]));
  EXPECT_TRUE(dir.contains(ids[2]));
  EXPECT_TRUE(dir.contains(ids[3]));
}

}  // namespace
}  // namespace cwc
