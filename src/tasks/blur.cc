#include "tasks/blur.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/buffer.h"

namespace cwc::tasks {

namespace {
constexpr std::uint32_t kMagic = 0x43574349;  // "CWCI"
constexpr std::size_t kHeaderBytes = 12;

/// A width x height grayscale raster, row-major, viewed in place.
struct Raster {
  const std::uint8_t* pixels = nullptr;
  std::size_t width = 0;
  std::size_t height = 0;
};

/// Reads a CWCI header and checks the pixel bytes that follow it; returns
/// the raster's dimensions. Throws std::runtime_error on malformed input.
std::pair<std::uint32_t, std::uint32_t> read_header(ByteView data) {
  BufferReader r(data);
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  try {
    if (r.read_u32() != kMagic) throw std::runtime_error("decode_image: bad magic");
    width = r.read_u32();
    height = r.read_u32();
  } catch (const BufferUnderflow&) {
    throw std::runtime_error("decode_image: truncated header");
  }
  const std::size_t expected = static_cast<std::size_t>(width) * height;
  if (r.remaining() != expected) throw std::runtime_error("decode_image: truncated pixel data");
  return {width, height};
}

/// Serializes a header and `pixels` to the CWCI wire format.
Bytes encode_raster(std::uint32_t width, std::uint32_t height, ByteView pixels) {
  if (pixels.size() != static_cast<std::size_t>(width) * height) {
    throw std::invalid_argument("encode_image: pixel count does not match dimensions");
  }
  BufferWriter w;
  w.write_u32(kMagic);
  w.write_u32(width);
  w.write_u32(height);
  Bytes out = w.take();
  out.insert(out.end(), pixels.begin(), pixels.end());
  return out;
}

/// Mean of the in-bounds pixels of the 3x3 box around (x, y).
std::uint8_t clamped_mean(const Raster& src, std::int64_t x, std::int64_t y) {
  const auto w = static_cast<std::int64_t>(src.width);
  const auto h = static_cast<std::int64_t>(src.height);
  std::uint32_t sum = 0;
  std::uint32_t n = 0;
  for (std::int64_t ny = y - 1; ny <= y + 1; ++ny) {
    for (std::int64_t nx = x - 1; nx <= x + 1; ++nx) {
      if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
        sum += src.pixels[static_cast<std::size_t>(ny * w + nx)];
        ++n;
      }
    }
  }
  return static_cast<std::uint8_t>(sum / n);
}

/// Blurs one output row using the source image (3x3 box, clamped edges).
void blur_row(const Raster& src, std::uint32_t y, std::uint8_t* out) {
  const std::size_t w = src.width;
  if (y == 0 || y + 1 >= src.height || w < 3) {
    for (std::size_t x = 0; x < w; ++x) out[x] = clamped_mean(src, x, y);
    return;
  }
  // Interior pixels have all nine neighbours: a plain sum / 9, no bounds tests.
  const std::uint8_t* up = src.pixels + (y - 1) * w;
  const std::uint8_t* mid = up + w;
  const std::uint8_t* down = mid + w;
  out[0] = clamped_mean(src, 0, y);
  for (std::size_t x = 1; x + 1 < w; ++x) {
    const std::uint32_t sum = up[x - 1] + up[x] + up[x + 1] + mid[x - 1] + mid[x] + mid[x + 1] +
                              down[x - 1] + down[x] + down[x + 1];
    out[x] = static_cast<std::uint8_t>(sum / 9);
  }
  out[w - 1] = clamped_mean(src, static_cast<std::int64_t>(w) - 1, y);
}
}  // namespace

Bytes encode_image(const Image& image) {
  return encode_raster(image.width, image.height, image.pixels);
}

Image decode_image(ByteView data) {
  const auto [width, height] = read_header(data);
  return Image{width, height, Bytes(data.begin() + kHeaderBytes, data.end())};
}

Image box_blur_reference(const Image& input) {
  Image out;
  out.width = input.width;
  out.height = input.height;
  out.pixels.resize(input.pixels.size());
  const Raster src{input.pixels.data(), input.width, input.height};
  for (std::uint32_t y = 0; y < input.height; ++y) {
    blur_row(src, y, out.pixels.data() + static_cast<std::size_t>(y) * input.width);
  }
  return out;
}

void BlurTask::ensure_decoded(ByteView input) {
  if (decoded_) return;
  std::tie(width_, height_) = read_header(input);
  decoded_ = true;
  // Restored checkpoints already carry completed rows; a fresh task starts
  // with the header consumed.
  if (consumed_ < kHeaderBytes) consumed_ = kHeaderBytes;
  rows_done_ = static_cast<std::uint32_t>(width_ ? output_rows_.size() / width_ : 0);
  output_rows_.reserve(static_cast<std::size_t>(width_) * height_);
}

std::size_t BlurTask::step(ByteView input, std::size_t budget) {
  ensure_decoded(input);
  const std::uint64_t before = consumed_;
  if (rows_done_ >= height_ || width_ == 0) {
    consumed_ = input.size();
    return static_cast<std::size_t>(consumed_ - before);
  }
  // At least one row per step so progress is guaranteed.
  const std::uint32_t rows_budget =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(budget / width_));
  const std::uint32_t last = std::min(height_, rows_done_ + rows_budget);
  output_rows_.resize(static_cast<std::size_t>(last) * width_);
  // The source pixels are read in place from the shipped input.
  const Raster source{input.data() + kHeaderBytes, width_, height_};
  for (std::uint32_t y = rows_done_; y < last; ++y) {
    blur_row(source, y, output_rows_.data() + static_cast<std::size_t>(y) * width_);
  }
  rows_done_ = last;
  consumed_ = rows_done_ >= height_
                  ? input.size()
                  : kHeaderBytes + static_cast<std::uint64_t>(rows_done_) * width_;
  return static_cast<std::size_t>(consumed_ - before);
}

Checkpoint BlurTask::checkpoint() const {
  BufferWriter w;
  w.write_u32(width_);  // so partial_result works before re-decoding
  w.write_u32(rows_done_);
  w.write_bytes(output_rows_);
  return Checkpoint{consumed_, w.take()};
}

void BlurTask::restore(const Checkpoint& cp) {
  BufferReader r(cp.state);
  width_ = r.read_u32();
  height_ = 0;
  rows_done_ = r.read_u32();
  output_rows_ = r.read_bytes();
  consumed_ = cp.bytes_processed;
  decoded_ = false;  // re-read the header on the next step
}

Bytes BlurTask::partial_result() const { return encode_raster(width_, rows_done_, output_rows_); }

const std::string& BlurFactory::name() const {
  static const std::string kName = "photo-blur";
  return kName;
}

std::unique_ptr<Task> BlurFactory::create() const { return std::make_unique<BlurTask>(); }

Bytes BlurFactory::aggregate(const std::vector<Bytes>& partials) const {
  if (partials.size() != 1) {
    throw std::invalid_argument("photo-blur is atomic: expected exactly one partial result");
  }
  return partials.front();
}

}  // namespace cwc::tasks
