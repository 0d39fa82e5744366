#include "cv/features.h"

#include <algorithm>
#include <cmath>

namespace darpa::cv {

int ChannelSet::count() const {
  int n = 0;
  for (int i = 0; i < kChannelCount; ++i) n += (mask >> i) & 1;
  return n;
}

namespace {

// Integer luma 299r + 587g + 114b: exact in int32 (max 255'000), so window
// sums over it are associative and the separable sliding-window contrast
// pass is bit-identical to the naive 25-tap reference. The float luma plane
// is float(intLuma / 255'000.0), which equals float(luma(c) / 255.0) for
// every one of the 2^24 colours (FeatureLumaTest checks them all), so the
// luma and edge channels keep the double-luma definition without its three
// double multiplies per pixel.
inline std::int32_t intLuma(Color c) {
  return 299 * c.r + 587 * c.g + 114 * c.b;
}
// The two double divisions of the pass, as multiplies by the reciprocal:
// float(i * (1 / D)) equals float(i / D) for every integer i in [0, D]
// with D = 255'000 (luma) and D = 25 * 255'000 (contrast); FeatureLumaTest
// checks both domains exhaustively. The float divisions by 255 and 442
// (saturation, saliency) are not equal this way and stay divisions.
constexpr double kInvIntLumaScale = 1.0 / 255'000.0;
constexpr double kInvContrastScale = 1.0 / (25.0 * 255'000.0);

// Per-thread arena for the fused feature pass: plane buffers reused across
// FeatureMap constructions, growth-counted for the zero-steady-state-
// allocation contract.
struct FeatureScratch {
  std::vector<Color> small;         ///< The decimated screenshot.
  std::vector<float> lumaF;         ///< Float luma plane (Sobel input).
  std::vector<std::int32_t> lumaI;  ///< Integer luma plane (contrast input).
  std::vector<std::int32_t> hsum;   ///< Horizontal 5-tap sums, full plane.
  std::vector<std::int32_t> vsum;   ///< Vertical sliding sums, one row.
  std::vector<float> values;        ///< One row of each channel's values.
  /// Retired integral buffers, recycled by the next FeatureMap on this
  /// thread (bounded; see ~FeatureMap).
  std::vector<std::vector<double>> planePool;
  FeatureScratchStats stats;

  template <typename T>
  T* ensure(std::vector<T>& v, std::size_t n) {
    const std::size_t before = v.capacity();
    if (n > before) {
      v.reserve(n);
      ++stats.growths;
      stats.grownBytes +=
          static_cast<std::int64_t>((v.capacity() - before) * sizeof(T));
    }
    if (v.size() < n) v.resize(n);
    return v.data();
  }
};

FeatureScratch& featureScratch() {
  thread_local FeatureScratch scratch;
  return scratch;
}

/// Sobel magnitude at one pixel from clamped neighbour indices — the
/// reference lumaAt() expression tree, so every value is bit-equal.
inline float edgeAt(const float* up, const float* mid, const float* dn, int x,
                    int xl, int xr) {
  const float gx = (up[xr] + 2 * mid[xr] + dn[xr]) -
                   (up[xl] + 2 * mid[xl] + dn[xl]);
  const float gy = (dn[xl] + 2 * dn[x] + dn[xr]) -
                   (up[xl] + 2 * up[x] + up[xr]);
  return std::min(std::sqrt(gx * gx + gy * gy) / 4.0f, 1.0f);
}

}  // namespace

const FeatureScratchStats& featureScratchStats() {
  return featureScratch().stats;
}

void resetFeatureScratchStats() { featureScratch().stats = {}; }

FeatureMap::FeatureMap(const gfx::Bitmap& screenshot, ChannelSet channels,
                       int scale)
    : scale_(std::max(scale, 1)),
      fullSize_(screenshot.size()),
      channels_(channels) {
  width_ = std::max(screenshot.width() / scale_, 1);
  height_ = std::max(screenshot.height() / scale_, 1);
  const int w = width_;
  const int h = height_;

  const bool wantLuma = channels_.enabled(Channel::kLuma);
  const bool wantEdge = channels_.enabled(Channel::kEdge);
  const bool wantContrast = channels_.enabled(Channel::kContrast);
  const bool wantSat = channels_.enabled(Channel::kSaturation);
  const bool wantSal = channels_.enabled(Channel::kSaliency);

  FeatureScratch& s = featureScratch();
  ++s.stats.frames;
  const std::size_t n = static_cast<std::size_t>(w) * h;
  // Decimate into the arena: downscaleInto writes every pixel, so a reused
  // buffer carries nothing over from a previous frame.
  Color* const small = s.ensure(s.small, n);
  screenshot.downscaleInto(w, h, small);

  // Integral cells: recycle a retired buffer when one is pooled. The prefix
  // pass below writes every cell of rows 1..h and columns 1..w (a disabled
  // channel sums zeros), so only row 0 and column 0 need zeroing. A cold
  // buffer is a counted growth like any other arena.
  if (!s.planePool.empty()) {
    integrals_ = std::move(s.planePool.back());
    s.planePool.pop_back();
  }
  const std::size_t rowCells = static_cast<std::size_t>(w + 1) * kChannelCount;
  const std::size_t need = rowCells * static_cast<std::size_t>(h + 1);
  const std::size_t beforeCap = integrals_.capacity();
  if (need > beforeCap) {
    integrals_.reserve(need);
    ++s.stats.growths;
    s.stats.grownBytes += static_cast<std::int64_t>(
        (integrals_.capacity() - beforeCap) * sizeof(double));
  }
  integrals_.resize(need);
  std::fill(integrals_.data(), integrals_.data() + rowCells, 0.0);  // row 0
  for (int y = 1; y <= h; ++y) {                                     // col 0
    double* cell = integrals_.data() + static_cast<std::size_t>(y) * rowCells;
    std::fill(cell, cell + kChannelCount, 0.0);
  }

  // The luma planes always exist: edge and contrast derive from luma even
  // when the luma channel itself is disabled. The same pass sums r, g and b
  // for the saliency channel's global mean colour: the totals and the
  // truncating divide of Bitmap::meanColor over the decimated frame.
  float* lumaF = s.ensure(s.lumaF, n);
  std::int32_t* lumaI = s.ensure(s.lumaI, n);
  std::uint64_t sumR = 0, sumG = 0, sumB = 0;
  for (int y = 0; y < h; ++y) {
    const Color* __restrict px = small + static_cast<std::size_t>(y) * w;
    std::int32_t* __restrict li = lumaI + static_cast<std::size_t>(y) * w;
    float* __restrict lf = lumaF + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      const Color c = px[x];
      li[x] = intLuma(c);
      lf[x] = static_cast<float>(li[x] * kInvIntLumaScale);
      sumR += c.r;
      sumG += c.g;
      sumB += c.b;
    }
  }
  const Color meanColor = Color::rgb(static_cast<std::uint8_t>(sumR / n),
                                     static_cast<std::uint8_t>(sumG / n),
                                     static_cast<std::uint8_t>(sumB / n));

  // Contrast pre-pass: horizontal 5-tap sliding sums of integer luma per
  // row (clamped columns), then a vertical sliding sum over those rows.
  // Integer sums are exact, so the incremental updates are bit-identical
  // to re-summing the clamped 5x5 window from scratch at every pixel.
  std::int32_t* hsum = nullptr;
  std::int32_t* vsum = nullptr;
  if (wantContrast) {
    hsum = s.ensure(s.hsum, n);
    for (int y = 0; y < h; ++y) {
      const std::int32_t* __restrict L = lumaI + static_cast<std::size_t>(y) * w;
      std::int32_t* __restrict H = hsum + static_cast<std::size_t>(y) * w;
      const auto at = [&](int x) { return L[std::clamp(x, 0, w - 1)]; };
      const auto clamped = [&](int x) {
        return at(x - 2) + at(x - 1) + at(x) + at(x + 1) + at(x + 2);
      };
      // Columns whose window stays inside the row need no clamp.
      for (int x = 2; x < w - 2; ++x) {
        H[x] = L[x - 2] + L[x - 1] + L[x] + L[x + 1] + L[x + 2];
      }
      for (int x = 0; x < std::min(2, w); ++x) H[x] = clamped(x);
      for (int x = std::max(w - 2, 2); x < w; ++x) H[x] = clamped(x);
    }
    vsum = s.ensure(s.vsum, static_cast<std::size_t>(w));
    for (int x = 0; x < w; ++x) {
      std::int32_t v = 0;
      for (int dy = -2; dy <= 2; ++dy) {
        const int yy = std::clamp(dy, 0, h - 1);
        v += hsum[static_cast<std::size_t>(yy) * w + x];
      }
      vsum[x] = v;
    }
  }

  // Per row: each channel's values into its own float row (plain loops over
  // x, no cross-channel state, so they vectorize), then one prefix pass
  // that accumulates all five into the interleaved integral cells. A
  // disabled channel's row is zeros, so its integral reads zero.
  float* values = s.ensure(s.values, static_cast<std::size_t>(w) * kChannelCount);
  float* __restrict vLuma = values;
  float* __restrict vEdge = values + w;
  float* __restrict vContrast = values + 2 * static_cast<std::size_t>(w);
  float* __restrict vSat = values + 3 * static_cast<std::size_t>(w);
  float* __restrict vSal = values + 4 * static_cast<std::size_t>(w);
  for (int y = 0; y < h; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * w;
    if (wantLuma) {
      std::copy(lumaF + row, lumaF + row + w, vLuma);
    } else {
      std::fill(vLuma, vLuma + w, 0.0f);
    }
    if (wantEdge) {
      // Clamped row pointers + clamped columns reproduce the reference
      // lumaAt() exactly; interior columns need no clamp.
      const float* up = lumaF + static_cast<std::size_t>(std::max(y - 1, 0)) * w;
      const float* mid = lumaF + row;
      const float* dn =
          lumaF + static_cast<std::size_t>(std::min(y + 1, h - 1)) * w;
      for (int x = 1; x < w - 1; ++x) {
        vEdge[x] = edgeAt(up, mid, dn, x, x - 1, x + 1);
      }
      vEdge[0] = edgeAt(up, mid, dn, 0, 0, std::min(1, w - 1));
      vEdge[w - 1] = edgeAt(up, mid, dn, w - 1, std::max(w - 2, 0), w - 1);
    } else {
      std::fill(vEdge, vEdge + w, 0.0f);
    }
    if (wantContrast) {
      // |luma - mean(5x5)| = |25*luma - windowSum| / (25 * lumaScale),
      // exact integers (|diff| <= 6'375'000) until the final scaling.
      const std::int32_t* L = lumaI + row;
      for (int x = 0; x < w; ++x) {
        const std::int32_t diff = 25 * L[x] - vsum[x];
        vContrast[x] = static_cast<float>(
            static_cast<double>(diff < 0 ? -diff : diff) * kInvContrastScale);
      }
      // Slide the vertical window down one row: add the row entering the
      // window, drop the row leaving it (both clamped).
      if (y + 1 < h) {
        const std::int32_t* add =
            hsum + static_cast<std::size_t>(std::clamp(y + 3, 0, h - 1)) * w;
        const std::int32_t* drop =
            hsum + static_cast<std::size_t>(std::clamp(y - 2, 0, h - 1)) * w;
        for (int x = 0; x < w; ++x) vsum[x] += add[x] - drop[x];
      }
    } else {
      std::fill(vContrast, vContrast + w, 0.0f);
    }
    if (wantSat || wantSal) {
      const Color* px = small + row;
      for (int x = 0; x < w; ++x) {
        const Color c = px[x];
        const int mx = std::max({c.r, c.g, c.b});
        const int mn = std::min({c.r, c.g, c.b});
        vSat[x] = static_cast<float>(mx - mn) / 255.0f;
        const float dr = static_cast<float>(c.r - meanColor.r);
        const float dg = static_cast<float>(c.g - meanColor.g);
        const float db = static_cast<float>(c.b - meanColor.b);
        vSal[x] = std::sqrt(dr * dr + dg * dg + db * db) / 442.0f;
      }
    }
    if (!wantSat) std::fill(vSat, vSat + w, 0.0f);
    if (!wantSal) std::fill(vSal, vSal + w, 0.0f);

    // Prefix pass: per channel, the row's running sum in double plus the
    // cell above — the reference integral recurrence.
    const double* above = integrals_.data() +
                          static_cast<std::size_t>(y) * rowCells + kChannelCount;
    double* out = integrals_.data() +
                  static_cast<std::size_t>(y + 1) * rowCells + kChannelCount;
    double run[kChannelCount] = {};
    for (int x = 0; x < w; ++x) {
      run[0] += vLuma[x];
      run[1] += vEdge[x];
      run[2] += vContrast[x];
      run[3] += vSat[x];
      run[4] += vSal[x];
      for (int c = 0; c < kChannelCount; ++c) out[c] = above[c] + run[c];
      above += kChannelCount;
      out += kChannelCount;
    }
  }

  // Map-constant context cues, cached once: per-channel global means and the
  // center-vs-surround luma difference. These are the exact values the
  // on-demand computations produced (same integral lookups and arithmetic);
  // the candidate descriptor reads them per grid position.
  const Rect all{0, 0, width_ * scale_, height_ * scale_};
  for (int c = 0; c < kChannelCount; ++c) {
    globalMeans_[static_cast<std::size_t>(c)] =
        boxMean(static_cast<Channel>(c), all);
  }
  const int fw = width_ * scale_;
  const int fh = height_ * scale_;
  const Rect center{fw / 4, fh / 4, fw / 2, fh / 2};
  const float centerMean = boxMean(Channel::kLuma, center);
  const float globalMeanL = globalMeans_[static_cast<int>(Channel::kLuma)];
  // global = (center*A_c + surround*A_s) / A; recover the surround mean.
  const double areaC = 0.25, areaS = 0.75;
  const double surround = (globalMeanL - centerMean * areaC) / areaS;
  centerSurround_ = static_cast<float>(centerMean - surround);
}

FeatureMap::~FeatureMap() {
  if (integrals_.capacity() == 0) return;
  FeatureScratch& s = featureScratch();
  constexpr std::size_t kMaxPooled = 8;
  if (s.planePool.size() < kMaxPooled) {
    s.planePool.push_back(std::move(integrals_));
  }
}

namespace {

/// toCells along one axis: the clipped cell interval [lo, lo + len) of the
/// full-res extent [start, start + length).
struct CellSpan {
  int lo = 0;
  int len = 0;
};
CellSpan cellSpan(int start, int length, int scale, int cells) {
  const int lo = std::clamp(start / scale, 0, cells);
  const int hi = std::clamp((start + length + scale - 1) / scale, 0, cells);
  return {lo, std::max(hi - lo, 0)};
}

}  // namespace

Rect FeatureMap::toCells(const Rect& fullResRect) const {
  const CellSpan x = cellSpan(fullResRect.x, fullResRect.width, scale_, width_);
  const CellSpan y =
      cellSpan(fullResRect.y, fullResRect.height, scale_, height_);
  return {x.lo, y.lo, x.len, y.len};
}

double FeatureMap::integralSum(int channel, const Rect& cells) const {
  if (cells.empty()) return 0.0;
  const double a = corner(cells.x, cells.y)[channel];
  const double b = corner(cells.right(), cells.y)[channel];
  const double c = corner(cells.x, cells.bottom())[channel];
  const double d = corner(cells.right(), cells.bottom())[channel];
  return d - b - c + a;
}

float FeatureMap::boxMean(Channel c, const Rect& fullResRect) const {
  const Rect cells = toCells(fullResRect);
  if (cells.empty()) return 0.0f;
  return static_cast<float>(integralSum(static_cast<int>(c), cells) /
                            static_cast<double>(cells.area()));
}

float FeatureMap::ringContrast(Channel c, const Rect& fullResRect) const {
  const int margin =
      std::max(std::min(fullResRect.width, fullResRect.height) / 2, 2) + 2;
  const Rect outer = fullResRect.inflated(margin);
  const Rect innerCells = toCells(fullResRect);
  const Rect outerCells = toCells(outer);
  if (innerCells.empty() || outerCells.empty()) return 0.0f;
  const double innerSum = integralSum(static_cast<int>(c), innerCells);
  const double outerSum = integralSum(static_cast<int>(c), outerCells);
  const double ringArea =
      static_cast<double>(outerCells.area()) - innerCells.area();
  if (ringArea <= 0.0) return 0.0f;
  const double innerMean = innerSum / static_cast<double>(innerCells.area());
  const double ringMean = (outerSum - innerSum) / ringArea;
  return static_cast<float>(innerMean - ringMean);
}

float FeatureMap::globalMean(Channel c) const {
  return globalMeans_[static_cast<std::size_t>(c)];
}

float FeatureMap::centerSurroundLuma() const { return centerSurround_; }

void candidateGeometryInto(Size fullSize, const Rect& box,
                           std::span<float> out) {
  float* f = out.data();
  int k = 0;
  const float W = static_cast<float>(fullSize.width);
  const float H = static_cast<float>(fullSize.height);
  const float w = static_cast<float>(box.width);
  const float h = static_cast<float>(box.height);
  const float cx = static_cast<float>(box.x) + w / 2;
  const float cy = static_cast<float>(box.y) + h / 2;
  f[k++] = w / W;
  f[k++] = h / H;
  f[k++] = (w * h) / (W * H);
  f[k++] = std::clamp(std::log(w / std::max(h, 1.0f)), -2.0f, 2.0f);
  f[k++] = cx / W;
  f[k++] = cy / H;
  // Distance to the nearest screen corner, normalized by the half-diagonal.
  const float dCorner = std::min(
      {std::hypot(cx, cy), std::hypot(W - cx, cy), std::hypot(cx, H - cy),
       std::hypot(W - cx, H - cy)});
  const float halfDiag = std::hypot(W, H) / 2.0f;
  f[k++] = dCorner / halfDiag;
  // Distance to the screen center.
  f[k++] = std::hypot(cx - W / 2, cy - H / 2) / halfDiag;
}

DescriptorAxes descriptorAxes(const FeatureMap& map, const Rect& box) {
  // The rects of the descriptor (see candidateFeaturesPlannedInto), as
  // Rect::inflated / Rect::translated would build them, one axis at a time.
  const int ring = std::max(std::min(box.width, box.height) / 2, 2) + 2;
  const int core = -std::max(2, std::min(box.width, box.height) / 4);
  const auto axis = [&](int start, int length, int cells) {
    DescriptorAxis a;
    const auto put = [&](DescriptorAxis::Span k, int from, int extent) {
      const CellSpan span = cellSpan(from, extent, map.scale(), cells);
      a.lo[k] = span.lo;
      a.len[k] = span.len;
    };
    put(DescriptorAxis::kBox, start, length);
    put(DescriptorAxis::kRing, start - ring, length + 2 * ring);
    put(DescriptorAxis::kBorder, start - 2, length + 4);
    put(DescriptorAxis::kCore, start - core, length + 2 * core);
    put(DescriptorAxis::kBefore, start - length, length);
    put(DescriptorAxis::kAfter, start + length, length);
    return a;
  };
  return {axis(box.x, box.width, map.width()),
          axis(box.y, box.height, map.height())};
}

void candidateFeaturesPlannedInto(const FeatureMap& map,
                                  const DescriptorAxis& x,
                                  const DescriptorAxis& y,
                                  const float* geometry, float* out,
                                  std::size_t stride) {
  using A = DescriptorAxis;
  int k = 0;
  const auto put = [&](float v) { out[static_cast<std::size_t>(k++) * stride] = v; };
  const auto empty = [&](A::Span sx, A::Span sy) {
    return x.len[sx] <= 0 || y.len[sy] <= 0;
  };
  const auto area = [&](A::Span sx, A::Span sy) {
    return static_cast<std::int64_t>(x.len[sx]) * y.len[sy];
  };
  // The four corner groups of a rect: all channels of a corner are
  // adjacent, so a box's five sums read four groups instead of twenty
  // scattered doubles.
  struct Corners {
    const double* a;
    const double* b;
    const double* c;
    const double* d;
  };
  const auto corners = [&](A::Span sx, A::Span sy) {
    const int x0 = x.lo[sx], x1 = x0 + x.len[sx];
    const int y0 = y.lo[sy], y1 = y0 + y.len[sy];
    return Corners{map.corner(x0, y0), map.corner(x1, y0), map.corner(x0, y1),
                   map.corner(x1, y1)};
  };
  const auto sum = [](const Corners& q, int c) {
    return q.d[c] - q.b[c] - q.c[c] + q.a[c];
  };
  const auto boxMean = [&](Channel channel, A::Span sx, A::Span sy) {
    if (empty(sx, sy)) return 0.0f;
    return static_cast<float>(sum(corners(sx, sy), static_cast<int>(channel)) /
                              static_cast<double>(area(sx, sy)));
  };

  // Per channel: box mean and ring contrast, sharing the inner sum. The
  // ring's outer rect is the box inflated by half its smaller side + 2 px.
  const bool innerEmpty = empty(A::kBox, A::kBox);
  const bool outerEmpty = empty(A::kRing, A::kRing);
  const double innerArea = static_cast<double>(area(A::kBox, A::kBox));
  const double ringArea = static_cast<double>(area(A::kRing, A::kRing)) -
                          area(A::kBox, A::kBox);
  const bool hasRing = !innerEmpty && !outerEmpty && ringArea > 0.0;
  Corners inner{};
  Corners outer{};
  if (!innerEmpty) inner = corners(A::kBox, A::kBox);
  if (hasRing) outer = corners(A::kRing, A::kRing);
  for (int c = 0; c < kChannelCount; ++c) {
    const double innerSum = innerEmpty ? 0.0 : sum(inner, c);
    put(innerEmpty ? 0.0f : static_cast<float>(innerSum / innerArea));
    if (hasRing) {
      const double outerSum = sum(outer, c);
      const double innerMean = innerSum / innerArea;
      const double ringMean = (outerSum - innerSum) / ringArea;
      put(static_cast<float>(innerMean - ringMean));
    } else {
      put(0.0f);
    }
  }
  for (int g = 0; g < kCandidateGeometryDim; ++g) put(geometry[g]);
  // Global context: overall darkness (scrim cue), edge business, and the
  // center-vs-surround luma difference (modal panel cue).
  put(map.globalMean(Channel::kLuma));
  put(map.globalMean(Channel::kEdge));
  put(map.centerSurroundLuma());
  // Border edge density: edges concentrated on the candidate's perimeter
  // (the box inflated by 2 px) against its core (deflated by a quarter of
  // its smaller side, at least 2 px).
  put(boxMean(Channel::kEdge, A::kBorder, A::kBorder) -
      boxMean(Channel::kEdge, A::kCore, A::kCore));
  // Edge continuation: an isolated option has quiet neighbors on both sides
  // of each axis, while a panel border continues across them. min() over the
  // opposite pair is high only when the structure runs through.
  put(std::min(boxMean(Channel::kContrast, A::kBefore, A::kBox),
               boxMean(Channel::kContrast, A::kAfter, A::kBox)));
  put(std::min(boxMean(Channel::kContrast, A::kBox, A::kBefore),
               boxMean(Channel::kContrast, A::kBox, A::kAfter)));
}

void candidateFeaturesInto(const FeatureMap& map, const Rect& box,
                           std::span<float> out) {
  const DescriptorAxes axes = descriptorAxes(map, box);
  std::array<float, kCandidateGeometryDim> geometry{};
  candidateGeometryInto(map.fullSize(), box, geometry);
  candidateFeaturesPlannedInto(map, axes.x, axes.y, geometry.data(),
                               out.data(), 1);
}

std::vector<float> candidateFeatures(const FeatureMap& map, const Rect& box) {
  std::vector<float> f(kCandidateFeatureDim);
  candidateFeaturesInto(map, box, f);
  return f;
}

}  // namespace darpa::cv
