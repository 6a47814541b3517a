// Robustness fuzzing of the deserialization surfaces: a CWC server reads
// frames from phones it does not control, so every decoder must fail by
// *throwing* (never crashing, never reading out of bounds) on arbitrary
// bytes. These tests feed structured-random garbage into every decode
// path and into the frame decoder, damaged and random files into journal
// replay, and token soup into the fault, link, soak-schedule and churn
// spec parsers that read command-line input.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/link_fault.h"
#include "common/rng.h"
#include "mapreduce/mapreduce.h"
#include "net/framing.h"
#include "net/journal.h"
#include "net/protocol.h"
#include "sim/churn.h"
#include "soak/soak.h"
#include "tasks/blur.h"

namespace cwc::net {
namespace {

Blob random_blob(Rng& rng, std::size_t max_len) {
  Blob blob(static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& byte : blob) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return blob;
}

/// A decode call may succeed or throw std::exception; anything else
/// (crash, UB caught by sanitizers) fails the test by construction.
template <typename Fn>
void must_not_crash(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    // expected for malformed input
  }
}

/// Stricter, for the wire decoders: a frame may decode or throw
/// std::runtime_error, the type the server turns into a dropped
/// connection. Anything else escapes this helper and fails the test — a
/// std::bad_alloc from reserving a hostile count would end the server.
template <typename Fn>
void must_reject_cleanly(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error&) {
    // expected for malformed input
  }
}

class ProtocolFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 17);
  for (int round = 0; round < 500; ++round) {
    const Blob blob = random_blob(rng, 256);
    must_reject_cleanly([&] { (void)decode_register(blob); });
    must_reject_cleanly([&] { (void)decode_register_ack(blob); });
    must_reject_cleanly([&] { (void)decode_probe_request(blob); });
    must_reject_cleanly([&] { (void)decode_probe_report(blob); });
    must_reject_cleanly([&] { (void)decode_assign_piece(blob); });
    must_reject_cleanly([&] { (void)decode_piece_complete(blob); });
    must_reject_cleanly([&] { (void)decode_piece_failed(blob); });
    must_reject_cleanly([&] { (void)decode_keepalive(blob); });
    must_reject_cleanly([&] { (void)decode_keepalive_ack_stats(blob); });
    must_reject_cleanly([&] { (void)decode_cancel_piece(blob); });
    must_reject_cleanly([&] { (void)decode_chunk_request(blob); });
    must_reject_cleanly([&] { (void)peek_type(blob); });
  }
}

TEST_P(ProtocolFuzz, TruncatedValidFramesThrowCleanly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 3);
  // Start from a valid encoded message, truncate at every prefix length.
  AssignPieceMsg msg;
  msg.job = 5;
  msg.piece_seq = 9;
  msg.task_name = "prime-count";
  msg.executable = random_blob(rng, 64);
  msg.input = random_blob(rng, 128);
  msg.checkpoint = random_blob(rng, 32);
  const Blob valid = encode(msg);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Blob truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    must_reject_cleanly([&] { (void)decode_assign_piece(truncated); });
  }
  // The full frame must decode.
  EXPECT_EQ(decode_assign_piece(valid).task_name, "prime-count");
}

TEST_P(ProtocolFuzz, FrameDecoderSurvivesGarbageStreams) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  FrameDecoder decoder;
  for (int round = 0; round < 200; ++round) {
    const Blob chunk = random_blob(rng, 64);
    decoder.feed(chunk);
    try {
      while (decoder.pop()) {
      }
    } catch (const std::runtime_error&) {
      // oversized length prefix: the server would drop this connection.
      decoder = FrameDecoder();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Range(0, 6));

/// Overwrites the u32 count `from_end` bytes before the end of `frame`.
Blob with_count(Blob frame, std::size_t from_end, std::uint32_t count) {
  BufferWriter w;
  w.write_u32(count);
  const Blob bytes = w.take();
  std::copy(bytes.begin(), bytes.end(), frame.end() - static_cast<std::ptrdiff_t>(from_end));
  return frame;
}

// A count of 0xFFFFFFFF followed by no elements: each decoder must run out
// of frame (BufferUnderflow) instead of reserving room for 4 billion
// elements first.
TEST(HostileCount, RegisterManifestThrowsUnderflow) {
  const Blob frame = with_count(encode(RegisterMsg{}), 4, 0xFFFFFFFFu);
  EXPECT_THROW((void)decode_register(frame), BufferUnderflow);
}

TEST(HostileCount, AssignPieceChunkListsAndFragmentsThrowUnderflow) {
  AssignPieceMsg msg;
  msg.task_name = "prime-count";
  msg.chunked = true;  // empty exec chunks, input chunks and fragments close the frame
  const Blob valid = encode(msg);
  for (const std::size_t from_end : {12u, 8u, 4u}) {
    SCOPED_TRACE("count " + std::to_string(from_end) + " bytes from the end");
    const Blob frame = with_count(valid, from_end, 0xFFFFFFFFu);
    EXPECT_THROW((void)decode_assign_piece(frame), BufferUnderflow);
  }
}

TEST(HostileCount, ChunkRequestMissingThrowsUnderflow) {
  const Blob frame = with_count(encode(ChunkRequestMsg{}), 4, 0xFFFFFFFFu);
  EXPECT_THROW((void)decode_chunk_request(frame), BufferUnderflow);
}

TEST(DecoderFuzz, CorruptedCheckpointsAndTablesThrow) {
  Rng rng(77);
  for (int round = 0; round < 500; ++round) {
    const Blob blob = random_blob(rng, 128);
    must_not_crash([&] { (void)mapreduce::decode_table(blob); });
    must_not_crash([&] { (void)tasks::decode_image(blob); });
    must_not_crash([&] {
      BufferReader r(blob);
      (void)r.read_string();
    });
  }
}

TEST(DecoderFuzz, BitflippedValidMessagesNeverCrash) {
  Rng rng(78);
  PieceFailedMsg msg;
  msg.job = 3;
  msg.processed_bytes = 4096;
  msg.partial_result = random_blob(rng, 64);
  msg.checkpoint = random_blob(rng, 64);
  const Blob valid = encode(msg);
  for (int round = 0; round < 2000; ++round) {
    Blob mutated = valid;
    const auto pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    must_not_crash([&] { (void)decode_piece_failed(mutated); });
  }
}

/// Journal replay reads whatever a crashed server left on disk, so torn,
/// bit-rotted and foreign files are its normal input. Each outcome must be
/// the replay of a record-boundary prefix of the file (the longest valid
/// one), or std::runtime_error for a file that is not a journal at all;
/// any other exception escapes and fails the test.
class JournalFuzz : public ::testing::TestWithParam<int> {
 protected:
  using Replayed = std::map<JobId, Journal::RecoveredJob>;

  void SetUp() override {
    path_ = ::testing::TempDir() + "cwc_journal_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()) + ".cwcj";
    std::remove(path_.c_str());
    { Journal empty(path_, /*truncate=*/true); }
    header_ = read_file();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Blob read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  /// Replays `bytes` as a journal file; nullopt when replay threw
  /// std::runtime_error.
  std::optional<Replayed> replay(const Blob& bytes) const {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    try {
      return Journal::replay(path_);
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  }

  /// The replay of every record-boundary prefix of `file`, header only
  /// first: the outcomes a damaged copy of it may recover.
  std::vector<Replayed> prefix_replays(const Blob& file) const {
    std::vector<Replayed> prefixes;
    std::size_t end = header_.size();
    while (true) {
      const Blob prefix(file.begin(), file.begin() + static_cast<std::ptrdiff_t>(end));
      prefixes.push_back(replay(prefix).value());
      if (end + 8 > file.size()) break;
      BufferReader length({file.data() + end, 4});
      end += 8 + length.read_u32();  // [u32 length][u32 crc][payload]
    }
    return prefixes;
  }

  /// Recovery builds on these: every range replay reports unprocessed
  /// lies inside its job's input.
  static void expect_usable(const Replayed& jobs) {
    for (const auto& [id, job] : jobs) {
      for (const auto& [begin, end] : job.remaining_ranges()) {
        EXPECT_LT(begin, end) << "job " << id;
        EXPECT_LE(end, job.input.size()) << "job " << id;
      }
      EXPECT_LE(job.remaining_bytes(), job.input.size()) << "job " << id;
    }
  }

  /// A record payload assembled from the format's own fields with random
  /// values: small counts, job ids with and without a submit, ranges
  /// inside, across and past the input, and now and then a cut-short
  /// record or an unknown type. Most decode; some stop the walk.
  static Blob random_record(Rng& rng) {
    BufferWriter w;
    const auto type = rng.uniform_int(1, 4);  // 1-3 are the record types
    w.write_u8(static_cast<std::uint8_t>(type));
    w.write_i32(static_cast<JobId>(rng.uniform_int(-1, 3)));
    switch (type) {
      case 1:
        w.write_string(rng.uniform_int(0, 1) == 0 ? "prime-count" : "photo-blur");
        w.write_bytes(random_blob(rng, 128));
        break;
      case 2: {
        const auto ranges = rng.uniform_int(0, 3);
        w.write_u32(static_cast<std::uint32_t>(ranges));
        for (auto k = ranges; k > 0; --k) {
          w.write_u64(static_cast<std::uint64_t>(rng.uniform_int(0, 160)));
          w.write_u64(static_cast<std::uint64_t>(rng.uniform_int(0, 160)));
        }
        w.write_bytes(random_blob(rng, 16));
        break;
      }
      case 3:
        w.write_bytes(random_blob(rng, 16));
        break;
      default:
        w.write_u32(static_cast<std::uint32_t>(rng.uniform_int(0, 1'000'000)));
    }
    Blob payload = w.take();
    if (rng.uniform_int(0, 5) == 0) {
      payload.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(payload.size()))));
    }
    return payload;
  }

  static bool same(const Replayed& a, const Replayed& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
      return x.first == y.first && x.second.task_name == y.second.task_name &&
             x.second.input == y.second.input &&
             x.second.completed_ranges == y.second.completed_ranges &&
             x.second.partials == y.second.partials &&
             x.second.atomic_result == y.second.atomic_result;
    });
  }

  static bool is_one_of(const Replayed& jobs, const std::vector<Replayed>& prefixes) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const Replayed& prefix) { return same(jobs, prefix); });
  }

  std::string path_;
  Blob header_;  ///< what a journal holds before its first record
};

TEST_P(JournalFuzz, RandomFilesRecoverNothingOrThrow) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int round = 0; round < 200; ++round) {
    const auto recovered = replay(random_blob(rng, 512));
    if (recovered) {
      EXPECT_TRUE(recovered->empty());  // the file was empty or a prefix of the header
    }
  }
}

TEST_P(JournalFuzz, RandomBytesAfterTheHeaderRecoverNothing) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 2);
  for (int round = 0; round < 200; ++round) {
    Blob file = header_;
    const Blob tail = random_blob(rng, 512);
    file.insert(file.end(), tail.begin(), tail.end());
    const auto recovered = replay(file);
    ASSERT_TRUE(recovered.has_value()) << "a file with a valid header must replay";
    EXPECT_TRUE(recovered->empty());
  }
}

// Records whose framing and CRC are intact reach the record decoder
// itself: replay must stop at the first one it cannot decode, keep the
// records before it, and leave every job's unprocessed ranges usable.
TEST_P(JournalFuzz, RandomRecordsWithValidCrcsReplayAPrefix) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  for (int round = 0; round < 100; ++round) {
    Blob file = header_;
    for (auto records = rng.uniform_int(1, 8); records > 0; --records) {
      const Blob payload = rng.uniform_int(0, 4) == 0 ? random_blob(rng, 96) : random_record(rng);
      BufferWriter frame;
      frame.write_u32(static_cast<std::uint32_t>(payload.size()));
      frame.write_u32(crc32(payload));
      const Blob head = frame.take();
      file.insert(file.end(), head.begin(), head.end());
      file.insert(file.end(), payload.begin(), payload.end());
    }
    const auto recovered = replay(file);
    ASSERT_TRUE(recovered.has_value()) << "a file with a valid header must replay";
    EXPECT_TRUE(is_one_of(*recovered, prefix_replays(file)));
    expect_usable(*recovered);
  }
}

TEST_P(JournalFuzz, BitFlippedJournalsReplayAValidPrefix) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 4);
  {
    Journal journal(path_, /*truncate=*/true);
    for (JobId job = 0; job < 4; ++job) {
      journal.record_submit(job, job % 2 == 0 ? "prime-count" : "photo-blur",
                            random_blob(rng, 96));
    }
    journal.record_progress(0, {{0, 16}, {32, 48}}, random_blob(rng, 16));
    journal.record_atomic_done(1, random_blob(rng, 24));
    journal.record_progress(2, {{8, 24}}, random_blob(rng, 16));
    journal.record_progress(0, {{16, 32}}, random_blob(rng, 16));
  }
  const Blob valid = read_file();
  const std::vector<Replayed> prefixes = prefix_replays(valid);
  ASSERT_EQ(prefixes.size(), 9u);  // header only, then one per record
  for (int round = 0; round < 300; ++round) {
    Blob damaged = valid;
    for (auto flips = rng.uniform_int(1, 3); flips > 0; --flips) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(damaged.size()) - 1));
      damaged[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    }
    if (rng.uniform_int(0, 3) == 0) {  // and torn at the tail
      damaged.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(damaged.size()))));
    }
    const auto recovered = replay(damaged);
    const std::size_t head = std::min(damaged.size(), header_.size());
    const bool header_intact = std::equal(damaged.begin(), damaged.begin() + head, header_.begin());
    if (!recovered) {
      EXPECT_FALSE(header_intact) << "only a damaged format header may throw";
      continue;
    }
    EXPECT_TRUE(header_intact);
    EXPECT_TRUE(is_one_of(*recovered, prefixes)) << "round " << round;
    expect_usable(*recovered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFuzz, ::testing::Range(0, 4));

/// One to three rules, each in one of the four grammars (point fault,
/// link fault, churn, soak-schedule line), assembled from the grammars' own
/// words and odd numbers (nan, inf, out of range), with an occasional
/// corrupted byte — so most inputs get deep into a parser before going
/// wrong, and some are accepted.
std::string random_spec(Rng& rng) {
  const auto pick = [&rng](std::initializer_list<const char*> words) {
    const auto last = static_cast<std::int64_t>(words.size()) - 1;
    return std::string(words.begin()[rng.uniform_int(0, last)]);
  };
  const auto number = [&] {
    return pick({"1", "3", "0.5", "0", "-1", "nan", "inf", "1e999", "2s", "16mbps", ""});
  };
  std::string text;
  for (auto rules = rng.uniform_int(1, 3); rules > 0; --rules) {
    if (!text.empty()) text += pick({";", ",", "\n"});
    switch (rng.uniform_int(0, 3)) {
      case 0:
        text += pick({"socket_write", "journal_append", "bogus"}) + ":";
        text += rng.uniform_int(0, 1) == 0 ? pick({"drop", "reset", "corrupt"})
                                           : "delay(" + number() + ")";
        for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
          text += "@" + pick({"p", "n", "every", "limit"}) + "=" + number();
        }
        break;
      case 1:
        text += "link:" + pick({"phone=2", "*", "phone=x"}) + ":" +
                pick({"partition", "slow", "flap", "burst"});
        for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
          text += pick({"@", ","}) +
                  pick({"t", "dur", "rate", "latency", "period", "duty", "p", "dir"}) + "=" +
                  number();
        }
        break;
      case 2:
        text += pick({"0", "3", "-1"}) + ":" + pick({"slow", "flaky", "flapping"});
        if (rng.uniform_int(0, 1) == 0) text += ":" + number();
        break;
      default:
        text += pick({"seed", "churn", "kill_server", "event"}) + "=" + number();
    }
  }
  if (rng.uniform_int(0, 3) == 0) {
    const auto pos = rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1);
    text[static_cast<std::size_t>(pos)] = static_cast<char>(rng.uniform_int(0, 255));
  }
  return text;
}

TEST(SpecFuzz, GrammarsAcceptOrThrowNeverCrash) {
  Rng rng(79);
  for (int round = 0; round < 5000; ++round) {
    const std::string spec = random_spec(rng);
    must_not_crash([&] {
      // An accepted point rule must be one the injector can honour.
      for (const fault::FaultRule& rule : fault::parse_fault_spec(spec)) {
        EXPECT_TRUE(rule.probability == 0.0 ||
                    (rule.probability > 0.0 && rule.probability <= 1.0))
            << spec;
        EXPECT_TRUE(std::isfinite(rule.action.delay_ms)) << spec;
      }
    });
    must_not_crash([&] { (void)fault::parse_link_spec(spec); });
    must_not_crash([&] { (void)soak::SoakSchedule::parse(spec); });
    must_not_crash([&] { (void)sim::parse_churn(spec); });
  }
}

}  // namespace
}  // namespace cwc::net
