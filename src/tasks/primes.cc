#include "tasks/primes.h"

#include <array>
#include <bit>
#include <charconv>
#include <span>

#include "common/strings.h"

namespace cwc::tasks {

namespace {

constexpr std::array<std::uint64_t, 12> kSmallPrimes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

/// Deterministic for all n < 4,759,123,141 (Jaeschke 1993), so for every
/// n < 2^32. The 12 small primes are deterministic for all n < 2^64
/// (Sorenson and Webster 2015).
constexpr std::array<std::uint64_t, 3> kBases32 = {2, 7, 61};

/// a * b mod m for a, b < m < 2^32: the product fits in 64 bits.
std::uint64_t mul_mod_32(std::uint64_t a, std::uint64_t b, std::uint64_t m) { return a * b % m; }

/// a * b mod m for any 64-bit m, via unsigned __int128.
std::uint64_t mul_mod_64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

using MulMod = std::uint64_t (*)(std::uint64_t, std::uint64_t, std::uint64_t);

/// Whether base `a` (0 < a < n) proves n composite, where n-1 = d * 2^r, d odd.
template <MulMod mul_mod>
bool miller_rabin_witness(std::uint64_t n, std::uint64_t a, std::uint64_t d, int r) {
  std::uint64_t x = 1;  // a^d mod n
  for (std::uint64_t b = a, e = d; e > 0; e >>= 1) {
    if (e & 1) x = mul_mod(x, b, n);
    b = mul_mod(b, b, n);
  }
  if (x == 1 || x == n - 1) return false;  // not a witness
  for (int i = 1; i < r; ++i) {
    x = mul_mod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;  // composite witness found
}

/// Miller-Rabin over `bases` for an odd n > 37.
template <MulMod mul_mod>
bool passes_miller_rabin(std::uint64_t n, std::span<const std::uint64_t> bases) {
  const int r = std::countr_zero(n - 1);
  const std::uint64_t d = (n - 1) >> r;
  for (const std::uint64_t base : bases) {
    // A base that n divides proves nothing, so it is skipped (n = 61, base 61).
    const std::uint64_t a = base % n;
    if (a != 0 && miller_rabin_witness<mul_mod>(n, a, d, r)) return false;
  }
  return true;
}

}  // namespace

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (const std::uint64_t p : kSmallPrimes) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  if (n < (std::uint64_t{1} << 32)) return passes_miller_rabin<mul_mod_32>(n, kBases32);
  return passes_miller_rabin<mul_mod_64>(n, kSmallPrimes);
}

void PrimeCountTask::process_line(std::string_view line) {
  for (auto token = next_token(line); !token.empty(); token = next_token(line)) {
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc() && ptr == token.data() + token.size() && is_prime_u64(value)) {
      ++count_;
    }
  }
}

Bytes PrimeCountTask::partial_result() const {
  BufferWriter w;
  w.write_u64(count_);
  return w.take();
}

void PrimeCountTask::save_state(BufferWriter& w) const { w.write_u64(count_); }

void PrimeCountTask::load_state(BufferReader& r) { count_ = r.read_u64(); }

const std::string& PrimeCountFactory::name() const {
  static const std::string kName = "prime-count";
  return kName;
}

std::unique_ptr<Task> PrimeCountFactory::create() const {
  return std::make_unique<PrimeCountTask>();
}

Bytes PrimeCountFactory::aggregate(const std::vector<Bytes>& partials) const {
  std::uint64_t total = 0;
  for (const auto& partial : partials) total += decode(partial);
  BufferWriter w;
  w.write_u64(total);
  return w.take();
}

std::uint64_t PrimeCountFactory::decode(const Bytes& result) {
  BufferReader r(result);
  return r.read_u64();
}

}  // namespace cwc::tasks
