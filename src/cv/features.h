// Visual feature extraction for AUI detection.
//
// The paper's YOLOv5 learns its own convolutional features; our from-scratch
// reproduction computes an engineered multi-channel feature map (luma, edge
// energy, local contrast, saturation, color saliency) at 1/4 resolution with
// integral images for O(1) box statistics, and the detector heads are
// trained MLPs over per-candidate descriptors built from those channels.
// This captures exactly the signal the paper argues AUIs expose — *visual*
// asymmetry in size, position and contrast — while staying fast enough to
// "run on the phone" (the simulated device's CPU budget).
//
// Channels can be disabled individually; the ablation bench uses this to
// show which visual signal carries the detection.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gfx/bitmap.h"
#include "util/geometry.h"

namespace darpa::cv {

enum class Channel : std::uint8_t {
  kLuma = 0,       ///< Brightness.
  kEdge,           ///< Sobel gradient magnitude.
  kContrast,       ///< |luma - local 5x5 mean| (pop-out), over integer luma.
  kSaturation,     ///< max(rgb) - min(rgb).
  kSaliency,       ///< Color distance from the global mean color.
};
inline constexpr int kChannelCount = 5;

[[nodiscard]] constexpr std::string_view channelName(Channel c) {
  switch (c) {
    case Channel::kLuma: return "luma";
    case Channel::kEdge: return "edge";
    case Channel::kContrast: return "contrast";
    case Channel::kSaturation: return "saturation";
    case Channel::kSaliency: return "saliency";
  }
  return "?";
}

/// Bitmask of enabled channels; default all.
struct ChannelSet {
  std::uint8_t mask = 0x1f;

  [[nodiscard]] bool enabled(Channel c) const {
    return (mask >> static_cast<int>(c)) & 1;
  }
  [[nodiscard]] static ChannelSet all() { return {0x1f}; }
  [[nodiscard]] static ChannelSet only(std::span<const Channel> channels) {
    ChannelSet set{0};
    for (Channel c : channels) set.mask |= static_cast<std::uint8_t>(1u << static_cast<int>(c));
    return set;
  }
  [[nodiscard]] ChannelSet without(Channel c) const {
    return {static_cast<std::uint8_t>(mask & ~(1u << static_cast<int>(c)))};
  }
  [[nodiscard]] int count() const;
};

/// Per-thread statistics for the fused feature pass's scratch arena. The
/// plane buffers (luma, sliding-window sums) live in a thread_local arena
/// reused across FeatureMap constructions; `growths` counts the heap
/// allocations that arena performed and stops increasing once frames of the
/// working size have been seen. The hot-path bench's zero-steady-state-
/// allocation contract reads these counters.
struct FeatureScratchStats {
  std::int64_t frames = 0;      ///< FeatureMaps built on this thread.
  std::int64_t growths = 0;     ///< Scratch buffer growths (heap allocs).
  std::int64_t grownBytes = 0;  ///< Capacity bytes added by those growths.
};

/// This thread's scratch statistics (thread_local; see FeatureScratchStats).
[[nodiscard]] const FeatureScratchStats& featureScratchStats();
void resetFeatureScratchStats();

/// Downscaled multi-channel feature planes with integral images.
class FeatureMap {
 public:
  /// Extracts features from a full-resolution screenshot in one fused
  /// traversal (all enabled channels + their integral images; the 5x5
  /// contrast window runs as a two-pass separable integer sliding window,
  /// O(1) per pixel and exactly equal to the naive 25-tap sum). `scale` is
  /// the downscale factor (default 4). Disabled channels read as all-zero.
  FeatureMap(const gfx::Bitmap& screenshot, ChannelSet channels = ChannelSet::all(),
             int scale = 4);

  /// Returns the integral-plane buffer to the thread-local pool so the next
  /// FeatureMap on this thread skips the multi-megabyte allocation (and
  /// zeroes only the integral borders instead of whole planes).
  ~FeatureMap();
  FeatureMap(const FeatureMap&) = delete;
  FeatureMap& operator=(const FeatureMap&) = delete;

  [[nodiscard]] int width() const { return width_; }    ///< Downscaled.
  [[nodiscard]] int height() const { return height_; }  ///< Downscaled.
  [[nodiscard]] int scale() const { return scale_; }
  [[nodiscard]] Size fullSize() const { return fullSize_; }
  [[nodiscard]] ChannelSet channels() const { return channels_; }

  /// Mean of a channel over a full-resolution rect (clipped; empty -> 0).
  [[nodiscard]] float boxMean(Channel c, const Rect& fullResRect) const;

  /// Contrast between a box and its surrounding ring (inflated by half the
  /// box's smaller side + 2 px): mean(inner) - mean(ring \ inner).
  [[nodiscard]] float ringContrast(Channel c, const Rect& fullResRect) const;

  /// Global mean of a channel.
  [[nodiscard]] float globalMean(Channel c) const;

  /// Mean over the central half of the screen minus mean over the border —
  /// a "modal panel / scrim" context cue.
  [[nodiscard]] float centerSurroundLuma() const;

  /// Full-res rect -> downscaled integral-grid cells (clipped).
  [[nodiscard]] Rect toCells(const Rect& fullResRect) const;

  /// Raw channel sum over integral-grid cells (see toCells).
  [[nodiscard]] double integralSum(int channel, const Rect& cells) const;

  /// The kChannelCount integral values at grid corner (x, y), 0 <= x <=
  /// width(), 0 <= y <= height(): one contiguous group per corner, so a
  /// box's sums over every channel read four groups.
  [[nodiscard]] const double* corner(int x, int y) const {
    return integrals_.data() +
           (static_cast<std::size_t>(y) * (width_ + 1) + x) * kChannelCount;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int scale_ = 4;
  Size fullSize_;
  ChannelSet channels_;
  // Cell-interleaved integral images: (width_+1)*(height_+1) cells of
  // kChannelCount doubles, channel c of corner (x, y) at corner(x, y)[c].
  std::vector<double> integrals_;
  // Map-constant context cues, computed once at construction (the candidate
  // descriptor reads them per grid position — thousands of times per frame).
  std::array<float, kChannelCount> globalMeans_{};
  float centerSurround_ = 0.0f;
};

/// Dimension of the per-candidate descriptor built by candidateFeatures().
inline constexpr int kCandidateFeatureDim = 2 * kChannelCount + 14;

/// Builds the descriptor for a candidate box (full-res coords):
/// per-channel [box mean, ring contrast], geometric priors (size, aspect,
/// position, corner/center distances), global context cues, and two
/// edge-continuation cues (does the local structure continue past the box —
/// separates isolated blobs from panel-border segments).
[[nodiscard]] std::vector<float> candidateFeatures(const FeatureMap& map,
                                                   const Rect& box);

/// candidateFeatures() into a caller-provided buffer of exactly
/// kCandidateFeatureDim floats — the allocation-free form that fills
/// descriptor matrix rows one box at a time (training's negative scoring,
/// the two-stage heads).
void candidateFeaturesInto(const FeatureMap& map, const Rect& box,
                           std::span<float> out);

/// The descriptor's geometric-prior block: kCandidateGeometryDim floats at
/// offset kCandidateGeometryOffset, a pure function of (frame size, box).
/// The batched detector precomputes one block per anchor-grid entry and
/// replays it across every frame of that size (bit-equal by construction —
/// this very function produced the cached values).
inline constexpr int kCandidateGeometryDim = 8;
inline constexpr int kCandidateGeometryOffset = 2 * kChannelCount;
void candidateGeometryInto(Size fullSize, const Rect& box,
                           std::span<float> out);

/// The clipped integral-grid cell intervals of a candidate's descriptor
/// rects along one axis. The descriptor reads eight rects — the box, its
/// ring (outer) rect, the edge border and core, and the four neighbours —
/// and each is a product of two intervals, one per axis, that depend only on
/// the box's extent along that axis (plus margins fixed by its shape). The
/// batched detector therefore caches one DescriptorAxis per grid column and
/// one per grid row of each anchor, instead of clipping 8 rects per
/// candidate.
struct DescriptorAxis {
  enum Span : int { kBox = 0, kRing, kBorder, kCore, kBefore, kAfter };
  static constexpr int kSpans = 6;
  std::array<std::int32_t, kSpans> lo{};   ///< First cell.
  std::array<std::int32_t, kSpans> len{};  ///< Cell count (0 = empty).
};

/// A candidate box's two axes: `x` varies only with the box's column,
/// `y` only with its row.
struct DescriptorAxes {
  DescriptorAxis x;
  DescriptorAxis y;
};
[[nodiscard]] DescriptorAxes descriptorAxes(const FeatureMap& map,
                                            const Rect& box);

/// The descriptor of the box whose axes are (`x`, `y`) — the same values
/// candidateFeaturesInto computes — with the geometric block copied from
/// `geometry` (a kCandidateGeometryDim block from candidateGeometryInto).
/// Feature k goes to out[k * stride]: stride 1 writes a row-major row,
/// stride nn::Mlp::kTileRows one column of a feature-major tile.
void candidateFeaturesPlannedInto(const FeatureMap& map,
                                  const DescriptorAxis& x,
                                  const DescriptorAxis& y,
                                  const float* geometry, float* out,
                                  std::size_t stride);

}  // namespace darpa::cv
