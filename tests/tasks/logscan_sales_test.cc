#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "tasks/generators.h"
#include "tasks/logscan.h"
#include "tasks/partition.h"
#include "tasks/sales.h"

namespace cwc::tasks {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(LogScan, CountsSeveritiesAndPattern) {
  LogScanFactory factory("disk failure");
  const auto input = bytes_of(
      "100 INFO all good\n"
      "101 ERROR host-3 reported disk failure on device sda\n"
      "102 WARN queue depth high\n"
      "103 ERROR timeout\n"
      "104 FATAL host-9 reported disk failure on device sda\n");
  const auto result = LogScanFactory::decode(run_to_completion(factory, input));
  EXPECT_EQ(result.total_lines, 5u);
  EXPECT_EQ(result.severity_counts[static_cast<std::size_t>(Severity::kInfo)], 1u);
  EXPECT_EQ(result.severity_counts[static_cast<std::size_t>(Severity::kWarn)], 1u);
  EXPECT_EQ(result.severity_counts[static_cast<std::size_t>(Severity::kError)], 2u);
  EXPECT_EQ(result.severity_counts[static_cast<std::size_t>(Severity::kFatal)], 1u);
  EXPECT_EQ(result.pattern_matches, 2u);
}

TEST(LogScan, UnknownSeverityCountsLineOnly) {
  LogScanFactory factory("x");
  const auto input = bytes_of("99 NOTICE something odd\n");
  const auto result = LogScanFactory::decode(run_to_completion(factory, input));
  EXPECT_EQ(result.total_lines, 1u);
  std::uint64_t total_severities = 0;
  for (auto c : result.severity_counts) total_severities += c;
  EXPECT_EQ(total_severities, 0u);
}

TEST(LogScan, AggregateAddsElementwise) {
  LogScanFactory factory("fail");
  const auto a = run_to_completion(factory, bytes_of("1 ERROR fail\n2 INFO ok\n"));
  const auto b = run_to_completion(factory, bytes_of("3 ERROR fail again\n"));
  const auto total = LogScanFactory::decode(factory.aggregate({a, b}));
  EXPECT_EQ(total.total_lines, 3u);
  EXPECT_EQ(total.pattern_matches, 2u);
  EXPECT_EQ(total.severity_counts[static_cast<std::size_t>(Severity::kError)], 2u);
}

TEST(LogScan, GeneratedInputHasPlausibleSeverityMix) {
  Rng rng(7);
  LogScanFactory factory("disk failure");
  const auto input = make_log_input(rng, 64.0, "disk failure", 0.01);
  const auto result = LogScanFactory::decode(run_to_completion(factory, input));
  ASSERT_GT(result.total_lines, 500u);
  const double n = static_cast<double>(result.total_lines);
  // Generator weights: INFO 50%, DEBUG 30%.
  EXPECT_NEAR(result.severity_counts[static_cast<std::size_t>(Severity::kInfo)] / n, 0.50, 0.05);
  EXPECT_NEAR(result.severity_counts[static_cast<std::size_t>(Severity::kDebug)] / n, 0.30, 0.05);
  EXPECT_GT(result.pattern_matches, 0u);
}

TEST(Sales, AggregatesPerCategory) {
  SalesAggregateFactory factory;
  const auto input = bytes_of(
      "1,tools,10.50\n"
      "2,tools,4.50\n"
      "3,garden,100.00\n"
      "4,unknowncat,5.00\n"
      "5,paint,not-a-number\n");
  const auto result = SalesAggregateFactory::decode(run_to_completion(factory, input));
  EXPECT_DOUBLE_EQ(result.revenue[1], 15.0);  // tools
  EXPECT_EQ(result.units[1], 2u);
  EXPECT_DOUBLE_EQ(result.revenue[2], 100.0);  // garden
  EXPECT_EQ(result.malformed_records, 2u);
  EXPECT_EQ(result.top_category(), 2u);
}

TEST(Sales, EmptyLinesAreSkippedSilently) {
  SalesAggregateFactory factory;
  const auto input = bytes_of("\n\n1,tools,1.00\n\n");
  const auto result = SalesAggregateFactory::decode(run_to_completion(factory, input));
  EXPECT_EQ(result.units[1], 1u);
  EXPECT_EQ(result.malformed_records, 0u);
}

TEST(Sales, NegativeAmountIsMalformed) {
  SalesAggregateFactory factory;
  const auto input = bytes_of("1,tools,-5.00\n");
  const auto result = SalesAggregateFactory::decode(run_to_completion(factory, input));
  EXPECT_EQ(result.malformed_records, 1u);
  EXPECT_DOUBLE_EQ(result.revenue[1], 0.0);
}

TEST(Sales, NonFiniteAmountIsMalformed) {
  SalesAggregateFactory factory;
  const auto input = bytes_of(
      "1,tools,10.00\n"
      "2,tools,nan\n"
      "3,garden,inf\n"
      "4,paint,-infinity\n"
      "5,lumber,2.50\n");
  const auto result = SalesAggregateFactory::decode(run_to_completion(factory, input));
  EXPECT_DOUBLE_EQ(result.revenue[1], 10.0);  // tools
  EXPECT_EQ(result.units[1], 1u);
  EXPECT_DOUBLE_EQ(result.revenue[2], 0.0);  // garden
  EXPECT_EQ(result.units[2], 0u);
  EXPECT_DOUBLE_EQ(result.revenue[3], 2.5);  // lumber
  EXPECT_EQ(result.malformed_records, 3u);
  EXPECT_EQ(result.top_category(), 1u);
}

TEST(Sales, AggregateMatchesSingleRun) {
  Rng rng(8);
  SalesAggregateFactory factory;
  const auto input = make_sales_input(rng, 32.0);
  const auto whole = SalesAggregateFactory::decode(run_to_completion(factory, input));

  // Split at a record boundary and process the halves independently.
  const auto cuts = equal_record_cuts(input, 2);
  const auto a = run_to_completion(factory, slice_view(input, cuts[0]));
  const auto b = run_to_completion(factory, slice_view(input, cuts[1]));
  const auto merged = SalesAggregateFactory::decode(factory.aggregate({a, b}));
  // Unit counts are exact; revenue sums may differ in the last ULP because
  // partition-wise addition reassociates the floating-point sum.
  EXPECT_EQ(merged.units, whole.units);
  EXPECT_EQ(merged.malformed_records, whole.malformed_records);
  for (std::size_t i = 0; i < merged.revenue.size(); ++i) {
    EXPECT_NEAR(merged.revenue[i], whole.revenue[i], 1e-6 * (1.0 + whole.revenue[i]));
  }
}

TEST(Sales, GeneratedInputFollowsZipfSkew) {
  Rng rng(9);
  SalesAggregateFactory factory;
  const auto input = make_sales_input(rng, 128.0);
  const auto result = SalesAggregateFactory::decode(run_to_completion(factory, input));
  EXPECT_EQ(result.malformed_records, 0u);
  // Category 0 gets weight 1, category 7 weight 1/8.
  EXPECT_GT(result.units[0], result.units[7] * 3);
  EXPECT_EQ(result.top_category(), 0u);
}

}  // namespace
}  // namespace cwc::tasks
