#include "tasks/primes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace cwc::tasks {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(IsPrime, SmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(5));
  EXPECT_FALSE(is_prime_u64(9));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(100));
}

TEST(IsPrime, MatchesSieveUpTo10000) {
  // Sieve of Eratosthenes as an independent oracle.
  std::vector<bool> composite(10001, false);
  for (std::size_t p = 2; p * p <= 10000; ++p) {
    if (!composite[p]) {
      for (std::size_t m = p * p; m <= 10000; m += p) composite[m] = true;
    }
  }
  for (std::uint64_t n = 0; n <= 10000; ++n) {
    ASSERT_EQ(is_prime_u64(n), n >= 2 && !composite[n]) << "n=" << n;
  }
}

TEST(IsPrime, LargeKnownValues) {
  EXPECT_TRUE(is_prime_u64(2147483647ULL));          // 2^31 - 1 (Mersenne)
  EXPECT_TRUE(is_prime_u64(999999937ULL));
  EXPECT_FALSE(is_prime_u64(999999937ULL * 2));
  EXPECT_TRUE(is_prime_u64(18446744073709551557ULL));  // largest 64-bit prime
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to bases 2,3,5,7
}

/// Primality of every n in [lo, hi], 2 <= lo, by a segmented sieve.
std::vector<bool> sieve_segment(std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t root = 1;
  while ((root + 1) * (root + 1) <= hi) ++root;
  std::vector<bool> composite_root(root + 1, false);
  std::vector<bool> prime(hi - lo + 1, true);
  for (std::uint64_t p = 2; p <= root; ++p) {
    if (composite_root[p]) continue;
    for (std::uint64_t m = p * p; m <= root; m += p) composite_root[m] = true;
    for (std::uint64_t m = std::max(p * p, (lo + p - 1) / p * p); m <= hi; m += p) {
      prime[m - lo] = false;
    }
  }
  return prime;
}

void expect_matches_sieve(std::uint64_t lo, std::uint64_t hi) {
  const std::vector<bool> prime = sieve_segment(lo, hi);
  std::size_t primes = 0;
  for (std::uint64_t n = lo; n <= hi; ++n) {
    ASSERT_EQ(is_prime_u64(n), prime[n - lo]) << "n=" << n;
    primes += prime[n - lo];
  }
  EXPECT_GT(primes, 1000u);  // the window holds thousands of primes, not none
}

TEST(PrimalityAcross2To32, MatchesSieveAroundTheGeneratorsRange) {
  expect_matches_sieve(1'000'000'000ULL - 65536, 1'000'000'000ULL + 65536);
}

TEST(PrimalityAcross2To32, MatchesSieveAcross2To32) {
  expect_matches_sieve((1ULL << 32) - 65536, (1ULL << 32) + 65536);
}

TEST(PrimalityAcross2To32, StrongPseudoprimesAreComposite) {
  EXPECT_FALSE(is_prime_u64(2047ULL));        // to base 2
  EXPECT_FALSE(is_prime_u64(1373653ULL));     // to bases 2, 3
  EXPECT_FALSE(is_prime_u64(25326001ULL));    // to bases 2, 3, 5
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // to bases 2, 3, 5, 7
  // The least strong pseudoprime to bases 2, 7 and 61: above 2^32, so the
  // three-base test must not decide it.
  EXPECT_FALSE(is_prime_u64(4759123141ULL));
  EXPECT_EQ(4759123141ULL, 48781ULL * 97561ULL);
}

TEST(PrimalityAcross2To32, WitnessBasesArePrime) {
  // A base that n divides (n = 61 with base 61) proves nothing about n.
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(7));
  EXPECT_TRUE(is_prime_u64(61));
}

TEST(PrimeCountTask, CountsPrimesAcrossLines) {
  const auto input = bytes_of("2 3 4\n5 6\n7\n8 9 10 11\n");
  PrimeCountFactory factory;
  const auto result = run_to_completion(factory, input);
  EXPECT_EQ(PrimeCountFactory::decode(result), 5u);  // 2 3 5 7 11
}

TEST(PrimeCountTask, IgnoresMalformedTokens) {
  const auto input = bytes_of("7 abc -3 11x 13\n");
  PrimeCountFactory factory;
  EXPECT_EQ(PrimeCountFactory::decode(run_to_completion(factory, input)), 2u);  // 7 and 13
}

TEST(PrimeCountTask, EmptyInput) {
  PrimeCountFactory factory;
  EXPECT_EQ(PrimeCountFactory::decode(run_to_completion(factory, Bytes{})), 0u);
}

TEST(PrimeCountTask, NoTrailingNewline) {
  const auto input = bytes_of("3 5");
  PrimeCountFactory factory;
  EXPECT_EQ(PrimeCountFactory::decode(run_to_completion(factory, input)), 2u);
}

TEST(PrimeCountTask, AggregateSumsPartials) {
  PrimeCountFactory factory;
  const auto a = run_to_completion(factory, bytes_of("2 3\n"));
  const auto b = run_to_completion(factory, bytes_of("5 7 11\n"));
  EXPECT_EQ(PrimeCountFactory::decode(factory.aggregate({a, b})), 5u);
}

TEST(PrimeCountTask, StepRespectsBudgetBoundaries) {
  const auto input = bytes_of("2\n3\n5\n7\n11\n13\n");
  PrimeCountFactory factory;
  auto task = factory.create();
  // Tiny budget: one record at a time, never mid-record.
  while (!task->done(input)) {
    const std::size_t consumed = task->step(input, 1);
    ASSERT_GT(consumed, 0u);
  }
  EXPECT_EQ(PrimeCountFactory::decode(task->partial_result()), 6u);
}

}  // namespace
}  // namespace cwc::tasks
