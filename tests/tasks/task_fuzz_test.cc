// Feeds random bytes to every built-in task program. A phone executes
// whatever input the server ships, so no input may crash a task: each run
// returns a result, or, for photo-blur alone (whose input is a binary
// raster with a header), throws std::runtime_error.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "tasks/blur.h"
#include "tasks/registry.h"

namespace cwc::tasks {
namespace {

void expect_result_or_rejection(const TaskFactory& factory, ByteView input) {
  const bool may_reject = factory.name() == "photo-blur";
  try {
    const Bytes whole = run_to_completion(factory, input);
    EXPECT_EQ(run_with_migrations(factory, input, 3, 2), whole) << factory.name();
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(may_reject) << factory.name() << " threw on " << input.size()
                            << " bytes: " << error.what();
  }
}

/// Random bytes, biased toward the bytes the kernels branch on.
Bytes random_input(Rng& rng, std::size_t max_size) {
  static constexpr std::string_view kBiased = " \t\n\v\f\r,.-+eE0123456789";
  const auto last = static_cast<std::int64_t>(kBiased.size()) - 1;
  Bytes out(static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_size))));
  const bool biased = rng.chance(0.5);
  for (auto& byte : out) {
    if (biased && rng.chance(0.7)) {
      byte = static_cast<std::uint8_t>(kBiased[static_cast<std::size_t>(rng.uniform_int(0, last))]);
    } else {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  return out;
}

TEST(TaskInputFuzz, RandomBytesNeverCrashABuiltinTask) {
  const TaskRegistry registry = TaskRegistry::with_builtins();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < 150; ++i) {
      const Bytes input = random_input(rng, 600);
      for (const auto& name : registry.names()) {
        expect_result_or_rejection(registry.require(name), input);
      }
    }
  }
}

TEST(TaskInputFuzz, RasterHeadersWithRandomDimensions) {
  const BlurFactory blur;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < 150; ++i) {
      Image image;
      image.width = static_cast<std::uint32_t>(rng.uniform_int(0, 24));
      image.height = static_cast<std::uint32_t>(rng.uniform_int(0, 24));
      image.pixels.resize(static_cast<std::size_t>(image.width) * image.height);
      for (auto& p : image.pixels) p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      Bytes input = encode_image(image);
      switch (rng.uniform_int(0, 3)) {
        case 0:  // a consistent raster
          break;
        case 1:  // pixel bytes one short or one over
          if (rng.chance(0.5)) {
            input.pop_back();
          } else {
            input.push_back(0);
          }
          break;
        case 2:  // random dimension fields, extremes included
          for (std::size_t b = 4; b < 12; ++b) {
            input[b] = rng.chance(0.3) ? 0xFF : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          }
          break;
        default:  // a truncated header
          input.resize(static_cast<std::size_t>(rng.uniform_int(0, 11)));
          break;
      }
      expect_result_or_rejection(blur, input);
    }
  }
}

}  // namespace
}  // namespace cwc::tasks
