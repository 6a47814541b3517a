#include "tasks/sales.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/strings.h"

namespace cwc::tasks {

namespace {

/// (first byte + length) mod 16 gives each category name its own slot, so
/// a lookup is one comparison (the static_assert checks the slots differ).
constexpr std::size_t category_slot(std::string_view name) {
  return (static_cast<unsigned char>(name.front()) + name.size()) % 16;
}

constexpr auto kCategoryBySlot = [] {
  std::array<std::size_t, 16> by_slot{};
  by_slot.fill(kSalesCategories.size());
  for (std::size_t i = 0; i < kSalesCategories.size(); ++i) {
    by_slot[category_slot(kSalesCategories[i])] = i;
  }
  return by_slot;
}();
static_assert(std::ranges::count(kCategoryBySlot, kSalesCategories.size()) ==
                  kCategoryBySlot.size() - kSalesCategories.size(),
              "two sales categories share a slot");

/// Index of `name` in kSalesCategories, or kSalesCategories.size().
std::size_t category_index(std::string_view name) {
  const std::size_t none = kSalesCategories.size();
  if (name.empty()) return none;
  const std::size_t i = kCategoryBySlot[category_slot(name)];
  return i != none && kSalesCategories[i] == name ? i : none;
}

}  // namespace

std::size_t SalesResult::top_category() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < revenue.size(); ++i) {
    if (revenue[i] > revenue[best]) best = i;
  }
  return best;
}

void SalesAggregateTask::process_line(std::string_view line) {
  line = trim(line);
  if (line.empty()) return;
  // Exactly three fields: "store_id,category,amount". A fourth field
  // leaves a comma in the amount, which then fails to parse to its end.
  const std::size_t first = line.find(',');
  const std::size_t second = first == std::string_view::npos ? first : line.find(',', first + 1);
  if (second == std::string_view::npos) {
    ++result_.malformed_records;
    return;
  }
  const std::size_t category = category_index(line.substr(first + 1, second - first - 1));
  double amount = 0.0;
  const std::string_view amount_str = line.substr(second + 1);
  const char* const amount_end = amount_str.data() + amount_str.size();
  const auto [ptr, ec] = std::from_chars(amount_str.data(), amount_end, amount);
  // from_chars accepts "nan" and "inf"; a non-finite amount would poison
  // its category's revenue in every aggregate that includes this partial.
  if (category == kSalesCategories.size() || ec != std::errc() || ptr != amount_end ||
      !std::isfinite(amount) || amount < 0.0) {
    ++result_.malformed_records;
    return;
  }
  result_.revenue[category] += amount;
  ++result_.units[category];
}

Bytes SalesAggregateTask::partial_result() const { return SalesAggregateFactory::encode(result_); }

void SalesAggregateTask::save_state(BufferWriter& w) const {
  for (double r : result_.revenue) w.write_f64(r);
  for (std::uint64_t u : result_.units) w.write_u64(u);
  w.write_u64(result_.malformed_records);
}

void SalesAggregateTask::load_state(BufferReader& r) {
  for (double& rev : result_.revenue) rev = r.read_f64();
  for (std::uint64_t& u : result_.units) u = r.read_u64();
  result_.malformed_records = r.read_u64();
}

const std::string& SalesAggregateFactory::name() const {
  static const std::string kName = "sales-aggregate";
  return kName;
}

std::unique_ptr<Task> SalesAggregateFactory::create() const {
  return std::make_unique<SalesAggregateTask>();
}

Bytes SalesAggregateFactory::aggregate(const std::vector<Bytes>& partials) const {
  SalesResult total;
  for (const auto& partial : partials) {
    const SalesResult r = decode(partial);
    for (std::size_t i = 0; i < total.revenue.size(); ++i) {
      total.revenue[i] += r.revenue[i];
      total.units[i] += r.units[i];
    }
    total.malformed_records += r.malformed_records;
  }
  return encode(total);
}

SalesResult SalesAggregateFactory::decode(const Bytes& result) {
  BufferReader r(result);
  SalesResult out;
  for (double& rev : out.revenue) rev = r.read_f64();
  for (std::uint64_t& u : out.units) u = r.read_u64();
  out.malformed_records = r.read_u64();
  return out;
}

Bytes SalesAggregateFactory::encode(const SalesResult& result) {
  BufferWriter w;
  for (double rev : result.revenue) w.write_f64(rev);
  for (std::uint64_t u : result.units) w.write_u64(u);
  w.write_u64(result.malformed_records);
  return w.take();
}

}  // namespace cwc::tasks
