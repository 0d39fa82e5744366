// ScreenFrame — the immutable, refcounted unit of perception evidence.
//
// One stabilized screen produces exactly one ScreenFrame: the UI dump, the
// foreground package, the lazily memoized screen fingerprint, and (once the
// screenshot stage ran) the composited pixels. Every layer that previously
// deep-copied that evidence — the analysis context, the ScreenshotVault,
// the detection executor — now holds a shared_ptr to the same frame, with
// zero pixel copies.
//
// Immutability protocol: the owning session thread builds the frame
// (constructor + at most one attachPixels()); after that every holder sees
// it through FramePtr (shared_ptr<const ScreenFrame>) and only reads. A
// frame stays confined to its session, like the rest of the pass state,
// which is what makes the lazily memoized fingerprint safe. The pixels
// keep their slab provenance, so pooled buffers flow back to the
// gfx::FramePool when the last holder lets go.
//
// §IV-E custody: the destructor scrubs the pixel buffer (overwrites with
// black) before the slab is released — the paper's "rinse immediately
// after running the CV-model" becomes scrub-on-last-release. No copy of
// the screenshot exists to outlive the scrub, by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "android/window_manager.h"
#include "gfx/bitmap.h"

namespace darpa::core {

class ScreenFrame {
 public:
  /// Captures the structural evidence. `packageName` is the foreground
  /// package the fingerprint is salted with (empty when no app window).
  ScreenFrame(android::UiDump dump, std::string packageName);
  ~ScreenFrame();

  ScreenFrame(const ScreenFrame&) = delete;
  ScreenFrame& operator=(const ScreenFrame&) = delete;

  [[nodiscard]] const android::UiDump& dump() const { return dump_; }
  [[nodiscard]] const std::string& packageName() const { return package_; }

  /// The package-mixed screen fingerprint, memoized on first call.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Attaches the composited screenshot. At most once.
  void attachPixels(gfx::Bitmap pixels);
  [[nodiscard]] bool hasPixels() const { return !pixels_.empty(); }
  /// The attached screenshot (an empty bitmap when none was attached).
  /// Const access only — frames are immutable once shared.
  [[nodiscard]] const gfx::Bitmap& pixels() const { return pixels_; }
  /// Pixel payload bytes (0 when no pixels attached).
  [[nodiscard]] std::size_t pixelBytes() const { return pixels_.pixelBytes(); }

  /// Mixes the foreground package into the screen fingerprint so two apps
  /// that happen to render structurally identical trees (bare class names,
  /// no resource ids) can never share a cached verdict.
  [[nodiscard]] static std::uint64_t mixPackage(std::uint64_t fp,
                                               const std::string& package);

 private:
  android::UiDump dump_;
  std::string package_;
  mutable std::optional<std::uint64_t> fingerprint_;
  gfx::Bitmap pixels_;
};

/// The sharing handle: everything downstream of capture reads, never writes.
using FramePtr = std::shared_ptr<const ScreenFrame>;

}  // namespace darpa::core
