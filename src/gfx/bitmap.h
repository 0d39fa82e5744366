// A from-scratch RGBA bitmap — the substrate for "screenshots".
//
// In the paper, DARPA's CV model consumes real screenshots taken through the
// Accessibility Service. In this reproduction the WindowManager composites
// live windows into a Bitmap, so the detector consumes actual pixel data and
// the visual asymmetry of an AUI (size, position, contrast, transparency) is
// genuinely present in the input rather than faked through metadata.
//
// Storage is a refcounted pixel slab so a frame captured once can be shared
// zero-copy across the analysis pipeline, the detection executor, and the
// fleet (core/screen_frame.h), and so slabs can be recycled through a
// FramePool (gfx/frame_pool.h) instead of re-allocated per capture. Because
// a stray `Bitmap b = other;` used to silently deep-copy ~1 MB of pixels,
// the copy constructor is deleted: copies must be spelled clone().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/color.h"
#include "util/geometry.h"

// Bounds checking for Bitmap::at/set. On by default in debug builds (NDEBUG
// unset); the sanitizer CI lanes force it on explicitly (-DDARPA_BOUNDS_CHECKS=1)
// so the release-optimized default build keeps the accessors branch-free.
#ifndef DARPA_BOUNDS_CHECKS
#ifdef NDEBUG
#define DARPA_BOUNDS_CHECKS 0
#else
#define DARPA_BOUNDS_CHECKS 1
#endif
#endif

namespace darpa::gfx {

class FramePool;

/// Where a bitmap's pixel slab came from — the provenance the WorkLedger's
/// allocation axis is recorded from (heap alloc vs. pooled reuse).
enum class SlabSource : std::uint8_t {
  kNone,        ///< Empty bitmap, no slab.
  kHeap,        ///< Plain heap allocation (no pool involved).
  kPoolFresh,   ///< A FramePool slab that had to be newly allocated.
  kPoolReused,  ///< A recycled FramePool slab — no heap traffic.
};

[[nodiscard]] const char* slabSourceName(SlabSource source);

/// The shared flat pixel buffer behind a Bitmap. Pool-recycled slabs keep
/// their vector capacity across reuses, so acquire() after release() costs
/// an assign() (pixel overwrite), not an allocation.
struct PixelSlab {
  std::vector<Color> pixels;
  SlabSource source = SlabSource::kHeap;
};

class Bitmap {
 public:
  Bitmap() = default;
  Bitmap(int width, int height, Color fill = colors::kWhite);

  // Pixels are a shared slab; an implicit copy would either alias mutable
  // state or silently deep-copy a full screen. Copies are therefore
  // explicit (clone()); moves transfer the slab and leave the source empty.
  Bitmap(const Bitmap&) = delete;
  Bitmap& operator=(const Bitmap&) = delete;
  Bitmap(Bitmap&& other) noexcept;
  Bitmap& operator=(Bitmap&& other) noexcept;
  ~Bitmap() = default;

  /// Deep copy into a fresh heap slab (provenance kHeap).
  [[nodiscard]] Bitmap clone() const;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] Size size() const { return {width_, height_}; }
  [[nodiscard]] Rect bounds() const { return {0, 0, width_, height_}; }
  [[nodiscard]] bool empty() const { return width_ <= 0 || height_ <= 0; }
  [[nodiscard]] std::size_t pixelCount() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  /// Bytes of pixel payload — the unit of the ledger's allocation axis.
  [[nodiscard]] std::size_t pixelBytes() const {
    return pixelCount() * sizeof(Color);
  }
  /// Provenance of the pixel slab (kNone for an empty bitmap).
  [[nodiscard]] SlabSource source() const {
    return slab_ ? slab_->source : SlabSource::kNone;
  }

  /// Pixel access; caller guarantees (x, y) is in bounds. Debug and
  /// sanitizer builds assert the contract (DARPA_BOUNDS_CHECKS).
  [[nodiscard]] Color at(int x, int y) const {
#if DARPA_BOUNDS_CHECKS
    checkBounds(x, y);
#endif
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  void set(int x, int y, Color c) {
#if DARPA_BOUNDS_CHECKS
    checkBounds(x, y);
#endif
    data_[static_cast<std::size_t>(y) * width_ + x] = c;
  }

  /// Bounds-checked read; out-of-range returns transparent.
  [[nodiscard]] Color atClamped(int x, int y) const;

  /// Alpha-blends `c` onto the pixel if in bounds, else no-op.
  void blendPixel(int x, int y, Color c);

  /// Alpha-blends `c` onto pixels [x0, x1) of row y — the one primitive
  /// every Canvas filler paints through. Same pixels as blendPixel over the
  /// range: an opaque `c` overwrites the span, alpha 0 leaves it alone.
  /// Caller guarantees 0 <= y < height and 0 <= x0 <= x1 <= width; debug
  /// and sanitizer builds assert it once per span (DARPA_BOUNDS_CHECKS).
  void blendSpan(int y, int x0, int x1, Color c);

  void fill(Color c);
  void fillRect(const Rect& r, Color c);

  /// Copy of the sub-region clipped to bounds.
  [[nodiscard]] Bitmap crop(const Rect& r) const;

  /// Box-filter downscale to the given size (both dims >= 1).
  [[nodiscard]] Bitmap downscale(int newWidth, int newHeight) const;

  /// Separable box blur with the given radius (>= 1), clipped to `region`.
  void boxBlur(const Rect& region, int radius);

  /// Mean color over a region (clipped to bounds); white if region is empty.
  [[nodiscard]] Color meanColor(const Rect& r) const;

  /// Mean luma (0..255) over a region clipped to bounds.
  [[nodiscard]] double meanLuma(const Rect& r) const;

  /// Luma standard deviation over a region — a cheap texture measure.
  [[nodiscard]] double lumaStddev(const Rect& r) const;

  /// Writes a binary PPM (P6) file; returns false on I/O failure. Alpha is
  /// dropped (screenshots are opaque after compositing).
  bool writePpm(const std::string& path) const;

  /// Value equality: same dimensions and same pixel contents (slab identity
  /// and provenance are irrelevant — a pooled and a heap bitmap compare
  /// equal when they render the same picture).
  friend bool operator==(const Bitmap& a, const Bitmap& b);

 private:
  friend class FramePool;
  using SlabPtr = std::shared_ptr<PixelSlab>;

  /// Adopts an externally prepared slab (FramePool::acquire). The slab's
  /// pixel vector must already hold width*height pixels.
  Bitmap(int width, int height, SlabPtr slab);

#if DARPA_BOUNDS_CHECKS
  void checkBounds(int x, int y) const {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) {
      boundsFailure(x, y);
    }
  }
  [[noreturn]] void boundsFailure(int x, int y) const;
  void checkSpan(int y, int x0, int x1) const {
    if (y < 0 || y >= height_ || x0 < 0 || x0 > x1 || x1 > width_) {
      spanFailure(y, x0, x1);
    }
  }
  [[noreturn]] void spanFailure(int y, int x0, int x1) const;
#endif

  int width_ = 0;
  int height_ = 0;
  SlabPtr slab_;
  Color* data_ = nullptr;  ///< Cached slab_->pixels.data().
};

}  // namespace darpa::gfx
