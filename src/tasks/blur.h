// Photo blurring — the paper's atomic task. A box blur computes each output
// pixel from its neighbours, so a photo cannot be split across phones (the
// halo rows would be missing); CWC therefore schedules each photo whole on
// one phone, but batches of photos still run concurrently.
//
// The paper's prototype shipped pixels as text files because Android's
// Dalvik VM lacked java.awt.BufferedImage; here we define our own trivial
// raster container (8-bit grayscale, "CWCI" header) which plays that role.
//
// Although atomic for *scheduling*, the blur is still resumable for
// *migration*: progress is checkpointed per completed output row, so an
// unplugged phone loses at most one row of work.
#pragma once

#include <cstdint>
#include <vector>

#include "tasks/task.h"

namespace cwc::tasks {

/// 8-bit grayscale raster.
struct Image {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::uint8_t> pixels;  // row-major, width*height entries

  std::uint8_t at(std::uint32_t x, std::uint32_t y) const { return pixels[y * width + x]; }
  std::uint8_t& at(std::uint32_t x, std::uint32_t y) { return pixels[y * width + x]; }
};

/// Serializes to the CWCI wire format: magic "CWCI", u32 width, u32 height,
/// then width*height pixel bytes.
Bytes encode_image(const Image& image);

/// Parses a CWCI blob; throws std::runtime_error on malformed input.
Image decode_image(ByteView data);

/// Reference 3x3 box blur (edge pixels average their in-bounds neighbours).
/// Used by tests to validate the incremental task against a direct pass.
Image box_blur_reference(const Image& input);

/// Incremental, checkpointable blur over one encoded image. Each step reads
/// the source pixels in place from its `input`.
class BlurTask final : public Task {
 public:
  std::size_t step(ByteView input, std::size_t budget) override;
  std::uint64_t consumed() const override { return consumed_; }
  Checkpoint checkpoint() const override;
  void restore(const Checkpoint& cp) override;
  Bytes partial_result() const override;

 private:
  void ensure_decoded(ByteView input);

  bool decoded_ = false;
  std::uint32_t width_ = 0;  // of the source image, read from its header
  std::uint32_t height_ = 0;
  std::vector<std::uint8_t> output_rows_;  // completed output, row-major
  std::uint32_t rows_done_ = 0;
  std::uint64_t consumed_ = 0;  // maps rows_done_ onto input bytes
};

class BlurFactory final : public TaskFactory {
 public:
  const std::string& name() const override;
  JobKind kind() const override { return JobKind::kAtomic; }
  Kilobytes executable_kb() const override { return 52.0; }
  MsPerKb reference_ms_per_kb() const override { return 70.0; }
  std::unique_ptr<Task> create() const override;
  /// Atomic task: exactly one partial expected; returns it unchanged.
  Bytes aggregate(const std::vector<Bytes>& partials) const override;
};

}  // namespace cwc::tasks
