#include "mapreduce/mapreduce.h"

#include <algorithm>
#include <charconv>

#include "common/strings.h"

namespace cwc::mapreduce {

std::int64_t Table::at(const std::string& key) const {
  const auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

std::int64_t Table::total() const {
  std::int64_t sum = 0;
  for (const auto& [key, count] : counts) sum += count;
  return sum;
}

std::vector<std::pair<std::string, std::int64_t>> Table::top(std::size_t k) const {
  std::vector<std::pair<std::string, std::int64_t>> entries(counts.begin(), counts.end());
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

tasks::Bytes encode_table(const Table& table) {
  BufferWriter w;
  w.write_u32(static_cast<std::uint32_t>(table.counts.size()));
  for (const auto& [key, count] : table.counts) {
    w.write_string(key);
    w.write_i64(count);
  }
  return w.take();
}

Table decode_table(const tasks::Bytes& blob) {
  BufferReader r(blob);
  Table table;
  const std::uint32_t entries = r.read_u32();
  for (std::uint32_t i = 0; i < entries; ++i) {
    std::string key = r.read_string();
    table.counts[std::move(key)] = r.read_i64();
  }
  return table;
}

void MapReduceTask::process_line(std::string_view line) {
  Emitter emitter(table_.counts);
  mapper_->map(line, emitter);
}

tasks::Bytes MapReduceTask::partial_result() const { return encode_table(table_); }

void MapReduceTask::save_state(BufferWriter& w) const {
  const tasks::Bytes blob = encode_table(table_);
  w.write_bytes(blob);
}

void MapReduceTask::load_state(BufferReader& r) {
  const tasks::Bytes blob = r.read_bytes();
  table_ = decode_table(blob);
}

MapReduceFactory::MapReduceFactory(std::shared_ptr<const Mapper> mapper)
    : mapper_(std::move(mapper)) {
  if (!mapper_) throw std::invalid_argument("MapReduceFactory: null mapper");
  name_ = "mapreduce:" + mapper_->name();
}

std::unique_ptr<tasks::Task> MapReduceFactory::create() const {
  return std::make_unique<MapReduceTask>(mapper_);
}

tasks::Bytes MapReduceFactory::aggregate(const std::vector<tasks::Bytes>& partials) const {
  Table total;
  for (const tasks::Bytes& partial : partials) {
    const Table t = decode_table(partial);
    for (const auto& [key, count] : t.counts) total.counts[key] += count;
  }
  return encode_table(total);
}

// --- built-in mappers --------------------------------------------------------

const std::string& WordFrequencyMapper::name() const {
  static const std::string kName = "word-frequency";
  return kName;
}

void WordFrequencyMapper::map(std::string_view record, Emitter& out) const {
  for (auto token = next_token(record); !token.empty(); token = next_token(record)) {
    out.emit(to_lower(token));
  }
}

const std::string& LogSeverityMapper::name() const {
  static const std::string kName = "log-severity";
  return kName;
}

void LogSeverityMapper::map(std::string_view record, Emitter& out) const {
  next_token(record);
  const std::string_view severity = next_token(record);
  if (!severity.empty()) out.emit(severity);
}

CsvFieldMapper::CsvFieldMapper(std::size_t field_index, char delimiter)
    : field_index_(field_index),
      delimiter_(delimiter),
      name_("csv-field-" + std::to_string(field_index)) {}

void CsvFieldMapper::map(std::string_view record, Emitter& out) const {
  const auto fields = split(record, delimiter_);
  if (field_index_ < fields.size() && !fields[field_index_].empty()) {
    out.emit(fields[field_index_]);
  }
}

NumericBucketMapper::NumericBucketMapper(std::int64_t bucket_width)
    : width_(bucket_width), name_("buckets-" + std::to_string(bucket_width)) {
  if (bucket_width <= 0) throw std::invalid_argument("NumericBucketMapper: width must be > 0");
}

void NumericBucketMapper::map(std::string_view record, Emitter& out) const {
  for (auto token = next_token(record); !token.empty(); token = next_token(record)) {
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) continue;
    // Floor division so negatives bucket consistently.
    std::int64_t bucket = value / width_;
    if (value < 0 && value % width_ != 0) --bucket;
    out.emit("bucket_" + std::to_string(bucket * width_));
  }
}

std::string install_mapreduce(tasks::TaskRegistry& registry,
                              std::shared_ptr<const Mapper> mapper) {
  auto factory = std::make_shared<MapReduceFactory>(std::move(mapper));
  const std::string name = factory->name();
  registry.install(std::move(factory));
  return name;
}

void install_mapreduce_builtins(tasks::TaskRegistry& registry) {
  install_mapreduce(registry, std::make_shared<WordFrequencyMapper>());
  install_mapreduce(registry, std::make_shared<LogSeverityMapper>());
  install_mapreduce(registry, std::make_shared<CsvFieldMapper>(1));
  install_mapreduce(registry, std::make_shared<NumericBucketMapper>(100));
}

}  // namespace cwc::mapreduce
