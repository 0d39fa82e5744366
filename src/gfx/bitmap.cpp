#include "gfx/bitmap.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace darpa::gfx {

namespace {

// blendSpan's vector block, in the style of the head kernel (nn/mlp.cpp):
// GCC vector values with plain element-wise arithmetic, no intrinsics, so
// the bits do not depend on the target's lane width. Vectors never cross a
// function boundary; loads and stores are memcpy.
constexpr int kBlendPixels = 16;
constexpr int kBlendLanes = kBlendPixels * 4;  // r, g, b, a per pixel
static_assert(sizeof(Color) == 4, "a pixel is four channel bytes");
using Bytes = std::uint8_t __attribute__((vector_size(kBlendLanes)));
using Lanes = std::uint16_t
    __attribute__((vector_size(kBlendLanes * sizeof(std::uint16_t))));

}  // namespace

const char* slabSourceName(SlabSource source) {
  switch (source) {
    case SlabSource::kNone: return "none";
    case SlabSource::kHeap: return "heap";
    case SlabSource::kPoolFresh: return "pool-fresh";
    case SlabSource::kPoolReused: return "pool-reused";
  }
  return "?";
}

Bitmap::Bitmap(int width, int height, Color fill)
    : width_(std::max(width, 0)), height_(std::max(height, 0)) {
  if (width_ > 0 && height_ > 0) {
    slab_ = std::make_shared<PixelSlab>();
    slab_->pixels.assign(pixelCount(), fill);
    slab_->source = SlabSource::kHeap;
    data_ = slab_->pixels.data();
  }
}

Bitmap::Bitmap(int width, int height, SlabPtr slab)
    : width_(width), height_(height), slab_(std::move(slab)) {
  data_ = slab_ ? slab_->pixels.data() : nullptr;
}

Bitmap::Bitmap(Bitmap&& other) noexcept
    : width_(other.width_),
      height_(other.height_),
      slab_(std::move(other.slab_)),
      data_(other.data_) {
  // The moved-from bitmap must be a valid empty bitmap: at()/set() on it
  // would otherwise dereference a slab it no longer owns.
  other.width_ = 0;
  other.height_ = 0;
  other.data_ = nullptr;
}

Bitmap& Bitmap::operator=(Bitmap&& other) noexcept {
  if (this != &other) {
    width_ = other.width_;
    height_ = other.height_;
    slab_ = std::move(other.slab_);
    data_ = other.data_;
    other.width_ = 0;
    other.height_ = 0;
    other.data_ = nullptr;
  }
  return *this;
}

Bitmap Bitmap::clone() const {
  Bitmap out(width_, height_);
  if (!empty()) {
    std::memcpy(out.data_, data_, pixelBytes());
  }
  return out;
}

bool operator==(const Bitmap& a, const Bitmap& b) {
  if (a.width_ != b.width_ || a.height_ != b.height_) return false;
  if (a.empty()) return true;
  if (a.data_ == b.data_) return true;
  return std::memcmp(a.data_, b.data_, a.pixelBytes()) == 0;
}

#if DARPA_BOUNDS_CHECKS
void Bitmap::boundsFailure(int x, int y) const {
  std::fprintf(stderr,
               "Bitmap bounds violation: (%d, %d) outside %dx%d\n", x, y,
               width_, height_);
  std::abort();
}

void Bitmap::spanFailure(int y, int x0, int x1) const {
  std::fprintf(stderr,
               "Bitmap bounds violation: span [%d, %d) of row %d outside "
               "%dx%d\n",
               x0, x1, y, width_, height_);
  std::abort();
}
#endif

Color Bitmap::atClamped(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return colors::kTransparent;
  }
  return at(x, y);
}

void Bitmap::blendPixel(int x, int y, Color c) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  set(x, y, blend(at(x, y), c));
}

void Bitmap::blendSpan(int y, int x0, int x1, Color c) {
#if DARPA_BOUNDS_CHECKS
  checkSpan(y, x0, x1);
#endif
  if (c.a == 0) return;
  Color* const row = data_ + static_cast<std::size_t>(y) * width_;
  if (c.a == 255) {
    std::fill(row + x0, row + x1, c);
    return;
  }
  // blend()'s opaque-destination branch with the source terms hoisted out
  // of the loop; a translucent destination pixel takes the general blend.
  const int inv = 255 - c.a;
  const int sr = c.r * c.a;
  const int sg = c.g * c.a;
  const int sb = c.b * c.a;
  const auto perPixel = [&](Color* p, Color* end) {
    for (; p != end; ++p) {
      if (p->a != 255) {
        *p = blend(*p, c);
        continue;
      }
      p->r = static_cast<std::uint8_t>((sr + p->r * inv) / 255);
      p->g = static_cast<std::uint8_t>((sg + p->g * inv) / 255);
      p->b = static_cast<std::uint8_t>((sb + p->b * inv) / 255);
    }
  };
  // The same branch on blocks of kBlendPixels opaque pixels, one uint16
  // lane per channel byte: X = s·sa + d·(255−sa) <= 65025 fits a lane, and
  // (X + 1 + (X >> 8)) >> 8 equals X / 255 for every such X (DESIGN §17).
  // The alpha lane's source term is 255·sa, so it yields
  // (255·sa + 255·(255−sa)) / 255 = 255. A block holding any translucent
  // pixel, and the tail, take the per-pixel loop.
  Color* p = row + x0;
  Color* const end = row + x1;
  if (end - p >= kBlendPixels) {
    Lanes src{};
    for (int i = 0; i < kBlendLanes; i += 4) {
      src[i] = static_cast<std::uint16_t>(sr);
      src[i + 1] = static_cast<std::uint16_t>(sg);
      src[i + 2] = static_cast<std::uint16_t>(sb);
      src[i + 3] = static_cast<std::uint16_t>(255 * c.a);
    }
    const auto invLane = static_cast<std::uint16_t>(inv);
    for (; end - p >= kBlendPixels; p += kBlendPixels) {
      std::uint8_t alpha = 255;
      for (int i = 0; i < kBlendPixels; ++i) alpha &= p[i].a;
      if (alpha != 255) {
        perPixel(p, p + kBlendPixels);
        continue;
      }
      Bytes d;
      std::memcpy(&d, p, sizeof(Bytes));
      const Lanes x = src + __builtin_convertvector(d, Lanes) * invLane;
      const Bytes q = __builtin_convertvector((x + 1 + (x >> 8)) >> 8, Bytes);
      std::memcpy(static_cast<void*>(p), &q, sizeof(Bytes));
    }
  }
  perPixel(p, end);
}

void Bitmap::fill(Color c) {
  if (empty()) return;
  std::fill(data_, data_ + pixelCount(), c);
}

void Bitmap::fillRect(const Rect& r, Color c) {
  const Rect clipped = r.intersect(bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    Color* const row = data_ + static_cast<std::size_t>(y) * width_;
    std::fill(row + clipped.left(), row + clipped.right(), c);
  }
}

Bitmap Bitmap::crop(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  Bitmap out(clipped.width, clipped.height);
  for (int y = 0; y < clipped.height; ++y) {
    for (int x = 0; x < clipped.width; ++x) {
      out.set(x, y, at(clipped.x + x, clipped.y + y));
    }
  }
  return out;
}

Bitmap Bitmap::downscale(int newWidth, int newHeight) const {
  newWidth = std::max(newWidth, 1);
  newHeight = std::max(newHeight, 1);
  Bitmap out(newWidth, newHeight);
  downscaleInto(newWidth, newHeight, out.data_);
  return out;
}

void Bitmap::downscaleInto(int newWidth, int newHeight, Color* out) const {
  if (empty()) {
    std::fill(out, out + static_cast<std::size_t>(newWidth) * newHeight,
              colors::kWhite);
    return;
  }
  if (width_ == 2 * newWidth && height_ == 2 * newHeight) {
    // Exact 2x decimation (the detector's featureScale=2 case): every output
    // pixel averages a full 2x2 block, so the general path's bounds
    // arithmetic and per-pixel divides collapse to a shift. The sums and the
    // truncating division by 4 are the very ones the general path computes.
    for (int oy = 0; oy < newHeight; ++oy) {
      const Color* __restrict r0 = row(2 * oy);
      const Color* __restrict r1 = r0 + width_;
      Color* __restrict o = out + static_cast<std::size_t>(oy) * newWidth;
      for (int ox = 0; ox < newWidth; ++ox) {
        const Color c00 = r0[2 * ox], c01 = r0[2 * ox + 1];
        const Color c10 = r1[2 * ox], c11 = r1[2 * ox + 1];
        const std::uint32_t r = static_cast<std::uint32_t>(c00.r) + c01.r +
                                c10.r + c11.r;
        const std::uint32_t g = static_cast<std::uint32_t>(c00.g) + c01.g +
                                c10.g + c11.g;
        const std::uint32_t b = static_cast<std::uint32_t>(c00.b) + c01.b +
                                c10.b + c11.b;
        const std::uint32_t a = static_cast<std::uint32_t>(c00.a) + c01.a +
                                c10.a + c11.a;
        o[ox] = {static_cast<std::uint8_t>(r >> 2),
                 static_cast<std::uint8_t>(g >> 2),
                 static_cast<std::uint8_t>(b >> 2),
                 static_cast<std::uint8_t>(a >> 2)};
      }
    }
    return;
  }
  for (int oy = 0; oy < newHeight; ++oy) {
    const int y0 = oy * height_ / newHeight;
    const int y1 = std::max((oy + 1) * height_ / newHeight, y0 + 1);
    for (int ox = 0; ox < newWidth; ++ox) {
      const int x0 = ox * width_ / newWidth;
      const int x1 = std::max((ox + 1) * width_ / newWidth, x0 + 1);
      std::uint64_t r = 0, g = 0, b = 0, a = 0;
      for (int y = y0; y < std::min(y1, height_); ++y) {
        for (int x = x0; x < std::min(x1, width_); ++x) {
          const Color c = at(x, y);
          r += c.r;
          g += c.g;
          b += c.b;
          a += c.a;
        }
      }
      const std::uint64_t n =
          static_cast<std::uint64_t>(std::min(y1, height_) - y0) *
          (std::min(x1, width_) - x0);
      out[static_cast<std::size_t>(oy) * newWidth + ox] = {
          static_cast<std::uint8_t>(r / n), static_cast<std::uint8_t>(g / n),
          static_cast<std::uint8_t>(b / n), static_cast<std::uint8_t>(a / n)};
    }
  }
}

void Bitmap::boxBlur(const Rect& region, int radius) {
  const Rect clipped = region.intersect(bounds());
  if (clipped.empty() || radius < 1) return;
  // Horizontal then vertical pass over a working copy of the region.
  Bitmap work = crop(clipped);
  Bitmap tmp = work.clone();
  const int w = work.width();
  const int h = work.height();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int r = 0, g = 0, b = 0, n = 0;
      for (int dx = -radius; dx <= radius; ++dx) {
        const int sx = std::clamp(x + dx, 0, w - 1);
        const Color c = work.at(sx, y);
        r += c.r;
        g += c.g;
        b += c.b;
        ++n;
      }
      tmp.set(x, y,
              {static_cast<std::uint8_t>(r / n),
               static_cast<std::uint8_t>(g / n),
               static_cast<std::uint8_t>(b / n), work.at(x, y).a});
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int r = 0, g = 0, b = 0, n = 0;
      for (int dy = -radius; dy <= radius; ++dy) {
        const int sy = std::clamp(y + dy, 0, h - 1);
        const Color c = tmp.at(x, sy);
        r += c.r;
        g += c.g;
        b += c.b;
        ++n;
      }
      set(clipped.x + x, clipped.y + y,
          {static_cast<std::uint8_t>(r / n), static_cast<std::uint8_t>(g / n),
           static_cast<std::uint8_t>(b / n), tmp.at(x, y).a});
    }
  }
}

Color Bitmap::meanColor(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return colors::kWhite;
  std::uint64_t rr = 0, gg = 0, bb = 0;
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const Color c = at(x, y);
      rr += c.r;
      gg += c.g;
      bb += c.b;
    }
  }
  const std::uint64_t n = static_cast<std::uint64_t>(clipped.area());
  return Color::rgb(static_cast<std::uint8_t>(rr / n),
                    static_cast<std::uint8_t>(gg / n),
                    static_cast<std::uint8_t>(bb / n));
}

double Bitmap::meanLuma(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return 0.0;
  double sum = 0.0;
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      sum += luma(at(x, y));
    }
  }
  return sum / static_cast<double>(clipped.area());
}

double Bitmap::lumaStddev(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return 0.0;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const double l = luma(at(x, y));
      sum += l;
      sumSq += l * l;
    }
  }
  const double n = static_cast<double>(clipped.area());
  const double mean = sum / n;
  const double var = std::max(sumSq / n - mean * mean, 0.0);
  return std::sqrt(var);
}

bool Bitmap::writePpm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "P6\n" << width_ << " " << height_ << "\n255\n";
  for (std::size_t i = 0; i < pixelCount(); ++i) {
    const Color c = data_[i];
    out.put(static_cast<char>(c.r));
    out.put(static_cast<char>(c.g));
    out.put(static_cast<char>(c.b));
  }
  return static_cast<bool>(out);
}

}  // namespace darpa::gfx
