#include "mapreduce/mapreduce.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tasks/generators.h"
#include "tasks/partition.h"

namespace cwc::mapreduce {
namespace {

tasks::Bytes bytes_of(const std::string& s) { return tasks::Bytes(s.begin(), s.end()); }

TEST(Table, TopSortsByCountThenKey) {
  Table table;
  table.counts = {{"b", 5}, {"a", 5}, {"c", 9}, {"d", 1}};
  const auto top = table.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "c");
  EXPECT_EQ(top[1].first, "a");  // tie broken by key
  EXPECT_EQ(top[2].first, "b");
  EXPECT_EQ(table.total(), 20);
  EXPECT_EQ(table.at("c"), 9);
  EXPECT_EQ(table.at("missing"), 0);
}

TEST(Table, EncodeDecodeRoundTrip) {
  Table table;
  table.counts = {{"hello world", 42}, {"", 1}, {"neg", -7}};
  EXPECT_EQ(decode_table(encode_table(table)), table);
  EXPECT_EQ(decode_table(encode_table(Table{})), Table{});
}

TEST(WordFrequency, CountsLowercasedTokens) {
  MapReduceFactory factory(std::make_shared<WordFrequencyMapper>());
  const auto input = bytes_of("The the THE cat\ncat sat\n");
  const Table result = decode_table(tasks::run_to_completion(factory, input));
  EXPECT_EQ(result.at("the"), 3);
  EXPECT_EQ(result.at("cat"), 2);
  EXPECT_EQ(result.at("sat"), 1);
  EXPECT_EQ(result.counts.size(), 3u);
}

TEST(WordFrequency, SplitsOnTheCLocaleSpaceSetOnly) {
  // \v, \f and \r separate words; NBSP (0xA0) and bytes >= 0x80 do not, and
  // only A-Z are lower-cased.
  MapReduceFactory factory(std::make_shared<WordFrequencyMapper>());
  const auto input = bytes_of("A\vb\fC\r\nd\xa0" "E \xc3\x89t\xc3\xa9\n");
  const Table result = decode_table(tasks::run_to_completion(factory, input));
  const std::map<std::string, std::int64_t> expected = {
      {"a", 1}, {"b", 1}, {"c", 1}, {"d\xa0" "e", 1}, {"\xc3\x89t\xc3\xa9", 1}};
  EXPECT_EQ(result.counts, expected);
}

TEST(LogSeverity, HistogramsSecondToken) {
  MapReduceFactory factory(std::make_shared<LogSeverityMapper>());
  const auto input = bytes_of("1 ERROR x\n2 INFO y\n3 ERROR z\nmalformed\n\t4\vWARN\r\n");
  const Table result = decode_table(tasks::run_to_completion(factory, input));
  EXPECT_EQ(result.at("ERROR"), 2);
  EXPECT_EQ(result.at("INFO"), 1);
  EXPECT_EQ(result.at("WARN"), 1);  // after a tab and a vertical tab
  EXPECT_EQ(result.total(), 4);
}

TEST(CsvField, CountsChosenColumn) {
  MapReduceFactory factory(std::make_shared<CsvFieldMapper>(1));
  const auto input = bytes_of("1,tools,9.99\n2,tools,1.50\n3,garden,5.00\nbad-row\n");
  const Table result = decode_table(tasks::run_to_completion(factory, input));
  EXPECT_EQ(result.at("tools"), 2);
  EXPECT_EQ(result.at("garden"), 1);
}

TEST(NumericBuckets, FloorsNegativesConsistently) {
  MapReduceFactory factory(std::make_shared<NumericBucketMapper>(100));
  const auto input = bytes_of("5 105 -5 -100 250 nonnumeric\n");
  const Table result = decode_table(tasks::run_to_completion(factory, input));
  EXPECT_EQ(result.at("bucket_0"), 1);
  EXPECT_EQ(result.at("bucket_100"), 1);
  EXPECT_EQ(result.at("bucket_-100"), 2);  // -5 and -100
  EXPECT_EQ(result.at("bucket_200"), 1);
  EXPECT_EQ(result.total(), 5);
  EXPECT_THROW(NumericBucketMapper(0), std::invalid_argument);
}

TEST(MapReduce, PartitionedRunEqualsWholeRun) {
  // The MapReduce promise: tables merged from partitions equal the table
  // of a single whole-input run.
  Rng rng(7);
  const auto input = tasks::make_text_input(rng, 64.0);
  MapReduceFactory factory(std::make_shared<WordFrequencyMapper>());

  const Table whole = decode_table(tasks::run_to_completion(factory, input));
  const auto cuts = tasks::equal_record_cuts(input, 4);
  std::vector<tasks::Bytes> partials;
  for (const auto& cut : cuts) {
    partials.push_back(tasks::run_to_completion(factory, tasks::slice_view(input, cut)));
  }
  const Table merged = decode_table(factory.aggregate(partials));
  EXPECT_EQ(merged, whole);
}

TEST(MapReduce, MigrationPreservesTables) {
  Rng rng(8);
  const auto input = tasks::make_log_input(rng, 32.0);
  MapReduceFactory factory(std::make_shared<LogSeverityMapper>());
  const auto uninterrupted = tasks::run_to_completion(factory, input);
  const auto migrated = tasks::run_with_migrations(factory, input, 2048, 1);
  EXPECT_EQ(decode_table(migrated), decode_table(uninterrupted));
}

TEST(MapReduce, RegistryInstallationAndNames) {
  tasks::TaskRegistry registry;
  const std::string name =
      install_mapreduce(registry, std::make_shared<WordFrequencyMapper>());
  EXPECT_EQ(name, "mapreduce:word-frequency");
  EXPECT_NE(registry.find(name), nullptr);
  EXPECT_EQ(registry.find(name)->kind(), JobKind::kBreakable);

  tasks::TaskRegistry full = tasks::TaskRegistry::with_builtins();
  install_mapreduce_builtins(full);
  EXPECT_NE(full.find("mapreduce:word-frequency"), nullptr);
  EXPECT_NE(full.find("mapreduce:log-severity"), nullptr);
  EXPECT_NE(full.find("mapreduce:csv-field-1"), nullptr);
  EXPECT_NE(full.find("mapreduce:buckets-100"), nullptr);
}

TEST(MapReduce, NullMapperRejected) {
  EXPECT_THROW(MapReduceFactory(nullptr), std::invalid_argument);
}

TEST(MapReduce, SalesInputTopCategoryMatchesSalesTask) {
  // Cross-check against the dedicated sales task: counting units per
  // category via the generic CSV mapper gives the same ranking.
  Rng rng(9);
  const auto input = tasks::make_sales_input(rng, 64.0);
  MapReduceFactory factory(std::make_shared<CsvFieldMapper>(1));
  const Table result = decode_table(tasks::run_to_completion(factory, input));
  const auto top = result.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "appliances");  // the Zipf-skewed generator's head
}

}  // namespace
}  // namespace cwc::mapreduce
