#include "net/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/buffer.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "obs/latency_hist.h"

namespace cwc::net {

namespace {
enum class RecordType : std::uint8_t { kSubmit = 1, kProgress = 2, kAtomicDone = 3 };

/// File header: magic + format version. Replay refuses any file that does
/// not start with it — an old-format or foreign file must fail loudly
/// instead of silently "recovering" an empty job map (every record of a
/// pre-CRC journal fails the CRC check, which is indistinguishable from a
/// fully corrupt file). Bump the trailing version byte on format changes.
constexpr std::uint8_t kFileHeader[8] = {'C', 'W', 'C', 'J', 'N', 'L', 'v', 2};

/// Hard cap on one record's payload, enforced at append time and again at
/// replay (a torn write can fabricate an arbitrary length prefix). The
/// append-time check matters: a larger record would be durably written in
/// a form replay refuses to read, silently ending recovery there.
constexpr std::uint32_t kMaxRecordBytes = 256 * 1024 * 1024;

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_u32le(std::uint8_t* p, std::uint32_t value) {
  p[0] = static_cast<std::uint8_t>(value);
  p[1] = static_cast<std::uint8_t>(value >> 8);
  p[2] = static_cast<std::uint8_t>(value >> 16);
  p[3] = static_cast<std::uint8_t>(value >> 24);
}
}  // namespace

Journal::Journal(std::string path, bool truncate) : path_(std::move(path)) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("Journal: cannot open " + path_ + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("Journal: cannot stat " + path_ + ": " + reason);
  }
  if (st.st_size == 0) {
    // New (or truncated) journal: stamp the format header first so replay
    // can tell this file apart from older formats.
    std::size_t written = 0;
    while (written < sizeof kFileHeader) {
      const ssize_t n = ::write(fd_, kFileHeader + written, sizeof kFileHeader - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const std::string reason = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("Journal: header write failed: " + reason);
      }
      written += static_cast<std::size_t>(n);
    }
    return;
  }
  // Appending to an existing journal: refuse a file this format cannot
  // extend (appends after foreign bytes would be unreachable to replay).
  std::uint8_t header[sizeof kFileHeader] = {};
  bool ok = false;
  const int read_fd = ::open(path_.c_str(), O_RDONLY);
  if (read_fd >= 0) {
    ok = ::read(read_fd, header, sizeof header) ==
             static_cast<ssize_t>(sizeof header) &&
         std::memcmp(header, kFileHeader, sizeof header) == 0;
    ::close(read_fd);
  }
  if (!ok) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("Journal: " + path_ +
                             " is not a v2 journal (old format or foreign file); refusing to "
                             "append — recover or remove it first");
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::append(const Blob& record) {
  if (record.size() > kMaxRecordBytes) {
    // Refuse before anything hits the disk: replay treats a length beyond
    // the cap as a fabricated prefix and stops there, so writing this
    // record would silently cut off it and every record after it.
    throw std::runtime_error("Journal: record of " + std::to_string(record.size()) +
                             " bytes exceeds the " + std::to_string(kMaxRecordBytes) +
                             "-byte record cap");
  }
  // [u32 length][u32 crc32] header. The length lets replay walk records;
  // the CRC lets it tell a torn or corrupted write apart from a valid
  // record so recovery can keep the longest valid prefix.
  std::uint8_t header[8];
  write_u32le(header, static_cast<std::uint32_t>(record.size()));
  write_u32le(header + 4, crc32(record));
  Blob framed(header, header + 8);
  framed.insert(framed.end(), record.begin(), record.end());

  std::size_t limit = framed.size();
  bool fail_after = false;
  if (const fault::FaultAction action = fault::check(fault::FaultPoint::kJournalAppend)) {
    switch (action.kind) {
      case fault::FaultAction::Kind::kDrop:
        return;  // record silently lost (durability gap)
      case fault::FaultAction::Kind::kDelay:
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(action.delay_ms));
        break;
      case fault::FaultAction::Kind::kReset:
        throw std::runtime_error("Journal: injected write failure");
      case fault::FaultAction::Kind::kPartial:
      case fault::FaultAction::Kind::kCorrupt:
        // Torn write: only a prefix reaches the disk, then the write fails.
        limit = static_cast<std::size_t>(static_cast<double>(framed.size()) *
                                         std::clamp(action.fraction, 0.0, 1.0));
        fail_after = true;
        break;
      default:
        break;
    }
  }

  // Time the write syscalls only (not the CRC framing above): this is the
  // durability stall the event loop actually eats per banked record.
  const auto write_start = std::chrono::steady_clock::now();
  std::size_t written = 0;
  while (written < limit) {
    const ssize_t n = ::write(fd_, framed.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("Journal: write failed: " + std::string(std::strerror(errno)));
    }
    written += static_cast<std::size_t>(n);
  }
  obs::latency("server.journal_append_ms")
      .record(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        write_start)
                  .count());
  if (fail_after) throw std::runtime_error("Journal: injected torn write");
}

void Journal::record_submit(JobId job, const std::string& task_name, const Blob& input) {
  BufferWriter w;
  w.write_u8(static_cast<std::uint8_t>(RecordType::kSubmit));
  w.write_i32(job);
  w.write_string(task_name);
  w.write_bytes(input);
  append(w.take());
}

void Journal::record_progress(JobId job, const Ranges& ranges, const Blob& partial) {
  BufferWriter w;
  w.write_u8(static_cast<std::uint8_t>(RecordType::kProgress));
  w.write_i32(job);
  w.write_u32(static_cast<std::uint32_t>(ranges.size()));
  for (const auto& [begin, end] : ranges) {
    w.write_u64(begin);
    w.write_u64(end);
  }
  w.write_bytes(partial);
  append(w.take());
}

void Journal::record_atomic_done(JobId job, const Blob& result) {
  BufferWriter w;
  w.write_u8(static_cast<std::uint8_t>(RecordType::kAtomicDone));
  w.write_i32(job);
  w.write_bytes(result);
  append(w.take());
}

bool Journal::RecoveredJob::done(bool atomic) const {
  if (atomic) return atomic_result.has_value();
  return remaining_bytes() == 0;
}

Journal::Ranges Journal::RecoveredJob::remaining_ranges() const {
  // Normalize completed ranges, then walk the gaps inside the input. A
  // record may name bytes past it (its job's submit record was lost), and
  // such a range must not yield an empty or inverted gap.
  auto covered = completed_ranges;
  std::sort(covered.begin(), covered.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> remaining;
  const std::uint64_t size = input.size();
  std::uint64_t cursor = 0;
  for (const auto& [begin, end] : covered) {
    if (cursor >= size) break;
    if (begin > cursor) remaining.push_back({cursor, std::min(begin, size)});
    cursor = std::max(cursor, end);
  }
  if (cursor < size) remaining.push_back({cursor, size});
  return remaining;
}

std::uint64_t Journal::RecoveredJob::remaining_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [begin, end] : remaining_ranges()) total += end - begin;
  return total;
}

std::map<JobId, Journal::RecoveredJob> Journal::replay(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("Journal::replay: cannot read " + path);
  Blob contents((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());

  // Format check before anything else. A file that does not start with the
  // v2 header would fail every CRC and "recover" an empty job map — work
  // silently dropped with no signal to the operator — so mismatches fail
  // loudly instead. A strict prefix of the header (including an empty
  // file) is the one benign case: a crash during journal creation, with
  // nothing recorded yet.
  if (contents.empty()) return {};
  if (contents.size() < sizeof kFileHeader) {
    if (std::memcmp(contents.data(), kFileHeader, contents.size()) == 0) return {};
    throw std::runtime_error("Journal::replay: " + path +
                             " is not a v2 journal (old format or foreign file)");
  }
  if (std::memcmp(contents.data(), kFileHeader, sizeof kFileHeader) != 0) {
    throw std::runtime_error("Journal::replay: " + path +
                             " is not a v2 journal (old format or foreign file); refusing to "
                             "treat it as corrupt and drop its records");
  }

  // Recovery keeps the longest valid prefix: the walk stops at the first
  // record that is torn (length overruns the file), fails its CRC, or
  // does not decode. Everything before that point was durably written and
  // is kept; everything after is redone, the same semantics as work that
  // was in flight when the server crashed.
  std::map<JobId, RecoveredJob> jobs;
  std::size_t offset = sizeof kFileHeader;
  while (offset + 8 <= contents.size()) {
    const std::uint32_t size = read_u32le(contents.data() + offset);
    const std::uint32_t expected_crc = read_u32le(contents.data() + offset + 4);
    if (size > kMaxRecordBytes) break;                   // fabricated length
    if (offset + 8 + size > contents.size()) break;      // torn final record
    const std::span<const std::uint8_t> payload(contents.data() + offset + 8, size);
    if (crc32(payload) != expected_crc) break;           // torn/corrupt write
    offset += 8 + size;

    // Decode into locals first so a malformed record cannot leave a job
    // half-mutated before the walk stops.
    BufferReader r(payload);
    try {
      const auto type = static_cast<RecordType>(r.read_u8());
      const JobId job = r.read_i32();
      switch (type) {
        case RecordType::kSubmit: {
          std::string task_name = r.read_string();
          Blob input = r.read_bytes();
          RecoveredJob& state = jobs[job];
          state.task_name = std::move(task_name);
          state.input = std::move(input);
          break;
        }
        case RecordType::kProgress: {
          Ranges ranges;
          const std::uint32_t range_count = r.read_u32();
          for (std::uint32_t k = 0; k < range_count; ++k) {
            const std::uint64_t begin = r.read_u64();
            const std::uint64_t end = r.read_u64();
            ranges.push_back({begin, end});
          }
          Blob partial = r.read_bytes();
          RecoveredJob& state = jobs[job];
          state.completed_ranges.insert(state.completed_ranges.end(), ranges.begin(),
                                        ranges.end());
          state.partials.push_back(std::move(partial));
          break;
        }
        case RecordType::kAtomicDone: {
          Blob result = r.read_bytes();
          jobs[job].atomic_result = std::move(result);
          break;
        }
        default:
          return jobs;  // unknown record type: stop at the valid prefix
      }
    } catch (const BufferUnderflow&) {
      return jobs;  // undecodable record: stop at the valid prefix
    }
  }
  return jobs;
}

}  // namespace cwc::net
