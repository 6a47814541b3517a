// Pins the results of the five built-in task kernels.
//
// A seeded corpus (every generator at several sizes, plus hand-written and
// random adversarial byte strings) runs through `run_to_completion` and
// through `run_with_migrations` at a small budget. Two checks:
//   - the CRC-32 of each task's results equals a constant recorded from an
//     earlier, straightforward implementation of the kernels, so a faster
//     kernel must return byte-identical results;
//   - each result equals a naive oracle kept in this file. The oracles use
//     a literal whitespace set, token vectors, trial division, a hand-read
//     raster header and a direct clamped blur, and call none of the
//     kernels' helpers.
// Non-finite sales amounts are left out of the corpus: they count as
// malformed records now, and the recorded constants predate that rule.
#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "tasks/blur.h"
#include "tasks/generators.h"
#include "tasks/logscan.h"
#include "tasks/primes.h"
#include "tasks/sales.h"
#include "tasks/wordcount.h"

namespace cwc::tasks {
namespace {

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string_view text_of(ByteView bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// --- naive oracles ----------------------------------------------------------

constexpr std::string_view kSpaces(" \t\n\v\f\r", 6);

bool oracle_space(char c) { return kSpaces.find(c) != std::string_view::npos; }

std::vector<std::string_view> oracle_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (start < text.size()) lines.push_back(text.substr(start));
  return lines;
}

std::vector<std::string_view> oracle_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (oracle_space(line[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && !oracle_space(line[j])) ++j;
    tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

bool oracle_parse_u64(std::string_view token, std::uint64_t& out) {
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return !token.empty();
}

bool oracle_is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t d = 2; d <= n / d; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

std::uint64_t oracle_prime_count(std::string_view text) {
  std::uint64_t count = 0;
  for (const auto line : oracle_lines(text)) {
    for (const auto token : oracle_tokens(line)) {
      std::uint64_t value = 0;
      if (oracle_parse_u64(token, value) && oracle_is_prime(value)) ++count;
    }
  }
  return count;
}

std::string oracle_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::uint64_t oracle_word_count(std::string_view text, std::string_view target) {
  const std::string lowered_target = oracle_lower(target);
  std::uint64_t count = 0;
  for (const auto line : oracle_lines(text)) {
    for (const auto token : oracle_tokens(line)) {
      if (oracle_lower(token) == lowered_target) ++count;
    }
  }
  return count;
}

LogScanResult oracle_log_scan(std::string_view text, std::string_view pattern) {
  constexpr std::string_view kNames[] = {"DEBUG", "INFO", "WARN", "ERROR", "FATAL"};
  LogScanResult result;
  for (const auto line : oracle_lines(text)) {
    ++result.total_lines;
    const auto tokens = oracle_tokens(line);
    for (std::size_t s = 0; tokens.size() >= 2 && s < std::size(kNames); ++s) {
      if (tokens[1] == kNames[s]) ++result.severity_counts[s];
    }
    if (!pattern.empty() && line.find(pattern) != std::string_view::npos) {
      ++result.pattern_matches;
    }
  }
  return result;
}

SalesResult oracle_sales(std::string_view text) {
  SalesResult result;
  for (auto line : oracle_lines(text)) {
    while (!line.empty() && oracle_space(line.front())) line.remove_prefix(1);
    while (!line.empty() && oracle_space(line.back())) line.remove_suffix(1);
    if (line.empty()) continue;
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        fields.push_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
    std::size_t category = kSalesCategories.size();
    for (std::size_t c = 0; fields.size() == 3 && c < kSalesCategories.size(); ++c) {
      if (fields[1] == kSalesCategories[c]) category = c;
    }
    double amount = 0.0;
    bool valid = category < kSalesCategories.size();
    if (valid) {
      const auto& f = fields[2];
      const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), amount);
      valid = ec == std::errc() && ptr == f.data() + f.size() && std::isfinite(amount) &&
              amount >= 0.0;
    }
    if (!valid) {
      ++result.malformed_records;
      continue;
    }
    result.revenue[category] += amount;
    ++result.units[category];
  }
  return result;
}

/// Reads a CWCI blob: magic "CWCI", little-endian u32 width and height,
/// then the pixels.
Image oracle_decode(ByteView blob) {
  if (blob.size() < 12) {
    ADD_FAILURE() << "a CWCI blob of " << blob.size() << " bytes has no header";
    return {};
  }
  const auto u32_at = [&](std::size_t at) {
    return static_cast<std::uint32_t>(blob[at]) | static_cast<std::uint32_t>(blob[at + 1]) << 8 |
           static_cast<std::uint32_t>(blob[at + 2]) << 16 |
           static_cast<std::uint32_t>(blob[at + 3]) << 24;
  };
  EXPECT_EQ(u32_at(0), 0x43574349u);
  Image image;
  image.width = u32_at(4);
  image.height = u32_at(8);
  image.pixels.assign(blob.begin() + 12, blob.end());
  EXPECT_EQ(image.pixels.size(), static_cast<std::size_t>(image.width) * image.height);
  return image;
}

std::vector<std::uint8_t> oracle_blur(const Image& image) {
  const std::int64_t w = image.width;
  const std::int64_t h = image.height;
  std::vector<std::uint8_t> out(image.pixels.size());
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      unsigned sum = 0;
      unsigned n = 0;
      for (std::int64_t ny = y - 1; ny <= y + 1; ++ny) {
        for (std::int64_t nx = x - 1; nx <= x + 1; ++nx) {
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          sum += image.pixels[static_cast<std::size_t>(ny * w + nx)];
          ++n;
        }
      }
      out[static_cast<std::size_t>(y * w + x)] = static_cast<std::uint8_t>(sum / n);
    }
  }
  return out;
}

// --- the corpus -------------------------------------------------------------

const PrimeCountFactory kPrimes;
const WordCountFactory kWords("error");
const LogScanFactory kLogs("disk failure");
const SalesAggregateFactory kSales;
const BlurFactory kBlur;

struct Case {
  const TaskFactory* factory;
  Bytes input;
};

/// Hand-written adversarial records; every line task reads every string.
const std::vector<std::string> kAdversarialText = {
    "",
    "\n",
    "\n\n\n2\n\n",
    "\t\v\f\r \n \n",
    "2\t3\v5\f7\r11 13 37 41 59 61 67 3599 3721\n",
    "error\terror\verror\ferror\rerror error\n",
    "2 3\r\n5 error\r\n1,tools,1.25\r\n100 INFO disk failure\r\n",
    "17 19 error",
    "1,garden,3.50",
    std::string("7\0 11 \0 13\n", 11),
    "\x80\xff 7 err\xc3\xa9or error\xa0 \xa0 \x85 11\x85\n",
    "Error ERROR eRRor errors error. ERR0R (error) ErRoR\n",
    "123456789012345678901234567890 18446744073709551616 0000000000000000000000000013\n",
    "0000000000000004294967311 00000000000000000000004759123141 4294967291 4294967296\n",
    "errorerrorerrorerror ERRORERRORERRORERROR abcdefghijklmnopqrstuvwxyz\n",
    "+7 -7 +error -error 7+ 0 1 00 -0\n",
    "1,tools,+2.00\n2,tools,-0.00\n3,paint,-1\n4,paint,1e400\n5,paint,0x10\n6,paint,.5\n",
    "1,tools\n1,tools,2.50,extra\n,,\n1,,2\n1,tools,\n,tools,3.75\n1,tools,2.5,\n",
    "  4,garden,1.25  \n\t5,lumber,7.75\r\n6, tools,1.00\n7,tools ,1.00\n8,Tools,1.00\n",
    "9,electricalelectrical,1.00\n10,flooring,12345678901234567890.25\n11,plumbing,1e-300\n",
    "100 INFO ok\n\t101\tERROR\tdisk failure\n102 error lower\n103\n104 WARN\n",
    " disk failure 105 FATAL\n DEBUG\n1 2 3 FATAL\n106 INFOX x\n107 WARN disk  failure\n",
    "108 ERROR DISK FAILURE\n109 FATAL disk failure\n110 ERROR disk failuredisk failure\n",
};

/// Random records over an alphabet rich in the bytes the kernels branch on.
/// It has none of the letters of "nan" or "inf", so no amount is non-finite.
Bytes random_record_bytes(Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789 \t\n\v\f\r,,,..--++eeErRoOTL\x80\xa0\xff\x85";
  const auto last = static_cast<std::int64_t>(kAlphabet.size()) - 1;
  Bytes out(static_cast<std::size_t>(rng.uniform_int(0, 400)));
  for (auto& byte : out) {
    byte = static_cast<std::uint8_t>(kAlphabet[static_cast<std::size_t>(rng.uniform_int(0, last))]);
  }
  return out;
}

Bytes image_bytes(Rng& rng, std::uint32_t width, std::uint32_t height, int fill) {
  Image image;
  image.width = width;
  image.height = height;
  image.pixels.resize(static_cast<std::size_t>(width) * height);
  for (auto& p : image.pixels) {
    p = static_cast<std::uint8_t>(fill >= 0 ? fill : rng.uniform_int(0, 255));
  }
  return encode_image(image);
}

std::vector<Case> corpus() {
  Rng rng(2012);
  std::vector<Case> cases;
  for (const double kb : {0.05, 1.0, 7.5, 48.0, 160.0}) {
    cases.push_back({&kPrimes, make_integer_input(rng, kb)});
    cases.push_back({&kWords, make_text_input(rng, kb, "error")});
    cases.push_back({&kWords, make_text_input(rng, kb, "ErRoR", 0.2)});
    cases.push_back({&kLogs, make_log_input(rng, kb, "disk failure", 0.2)});
    cases.push_back({&kSales, make_sales_input(rng, kb)});
    cases.push_back({&kBlur, make_image_input_of_size(rng, kb)});
  }
  for (std::uint32_t w = 1; w <= 3; ++w) {
    for (std::uint32_t h = 1; h <= 3; ++h) {
      cases.push_back({&kBlur, image_bytes(rng, w, h, -1)});
      cases.push_back({&kBlur, make_image_input(rng, w, h)});
    }
  }
  cases.push_back({&kBlur, image_bytes(rng, 5, 4, 255)});
  cases.push_back({&kBlur, image_bytes(rng, 4, 5, 0)});
  cases.push_back({&kBlur, image_bytes(rng, 17, 9, -1)});
  cases.push_back({&kBlur, make_image_input(rng, 1, 300)});
  cases.push_back({&kBlur, make_image_input(rng, 300, 2)});

  std::vector<Bytes> records;
  for (const auto& text : kAdversarialText) records.push_back(bytes_of(text));
  std::string long_line;
  for (int i = 0; i < 700; ++i) long_line += (i % 3 ? "error 7919 " : "1,tools,0.25 ");
  records.push_back(bytes_of(long_line));
  for (int i = 0; i < 64; ++i) records.push_back(random_record_bytes(rng));
  const std::array<const TaskFactory*, 4> line_tasks = {&kPrimes, &kWords, &kLogs, &kSales};
  for (const TaskFactory* factory : line_tasks) {
    for (const auto& input : records) cases.push_back({factory, input});
  }
  return cases;
}

// CRC-32 of each task's results over the corpus (every case's
// run_to_completion result followed by its run_with_migrations result),
// recorded from the kernels as they were before the allocation-free
// rewrite.
const std::map<std::string, std::uint32_t> kPinnedDigests = {
    {"prime-count", 0xa9095042u},
    {"word-count:error", 0xaa973ae5u},
    {"log-scan:disk failure", 0x118ad866u},
    {"sales-aggregate", 0xd591455bu},
    {"photo-blur", 0xb32ca7e9u},
};

TEST(TaskKernels, ResultsMatchPinnedDigests) {
  std::map<std::string, std::uint32_t> digests;
  std::map<std::string, std::size_t> counts;
  for (const Case& c : corpus()) {
    const Bytes whole = run_to_completion(*c.factory, c.input);
    const Bytes migrated = run_with_migrations(*c.factory, c.input, 7, 2);
    std::uint32_t& crc = digests[c.factory->name()];
    crc = crc32(whole, crc);
    crc = crc32(migrated, crc);
    ++counts[c.factory->name()];
  }
  ASSERT_EQ(digests.size(), kPinnedDigests.size());
  for (const auto& [name, digest] : digests) {
    EXPECT_EQ(digest, kPinnedDigests.at(name))
        << name << ": 0x" << std::hex << digest << std::dec << " over " << counts[name]
        << " inputs";
  }
}

TEST(TaskKernels, ResultsMatchNaiveOracles) {
  for (const Case& c : corpus()) {
    const Bytes whole = run_to_completion(*c.factory, c.input);
    ASSERT_EQ(run_with_migrations(*c.factory, c.input, 7, 2), whole) << c.factory->name();
    const std::string_view text = text_of(c.input);
    const std::string context = c.factory->name() + " on " + std::to_string(c.input.size()) +
                                " bytes: " + std::string(text.substr(0, 60));
    if (c.factory == &kPrimes) {
      EXPECT_EQ(PrimeCountFactory::decode(whole), oracle_prime_count(text)) << context;
    } else if (c.factory == &kWords) {
      EXPECT_EQ(WordCountFactory::decode(whole), oracle_word_count(text, "error")) << context;
    } else if (c.factory == &kLogs) {
      EXPECT_EQ(LogScanFactory::decode(whole), oracle_log_scan(text, "disk failure")) << context;
    } else if (c.factory == &kSales) {
      EXPECT_EQ(SalesAggregateFactory::decode(whole), oracle_sales(text)) << context;
    } else {
      const Image source = oracle_decode(c.input);
      const Image blurred = oracle_decode(whole);
      EXPECT_EQ(blurred.width, source.width);
      EXPECT_EQ(blurred.height, source.height);
      EXPECT_EQ(blurred.pixels, oracle_blur(source)) << source.width << "x" << source.height;
    }
  }
}

}  // namespace
}  // namespace cwc::tasks
