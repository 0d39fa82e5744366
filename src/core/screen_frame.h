// ScreenFrame — the immutable, refcounted unit of perception evidence.
//
// One stabilized screen produces exactly one ScreenFrame: the foreground
// package, the package-mixed screen fingerprint, and (once the screenshot
// stage ran) the composited pixels. The frame holds no UI dump: the
// fingerprint is hashed straight off the live view tree, and lint, the one
// stage that reads the nodes, dumps them itself. Every layer that previously
// deep-copied that evidence — the analysis context, the ScreenshotVault,
// the detection executor — now holds a shared_ptr to the same frame, with
// zero pixel copies.
//
// Immutability protocol: the owning session thread builds the frame
// (constructor + at most one attachPixels()); after that every holder sees
// it through FramePtr (shared_ptr<const ScreenFrame>) and only reads. The
// pixels keep their slab provenance, so pooled buffers flow back to the
// gfx::FramePool when the last holder lets go.
//
// §IV-E custody: the destructor scrubs the pixel buffer (overwrites with
// black) before the slab is released — the paper's "rinse immediately
// after running the CV-model" becomes scrub-on-last-release. No copy of
// the screenshot exists to outlive the scrub, by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "android/window_manager.h"
#include "gfx/bitmap.h"

namespace darpa::core {

class ScreenFrame {
 public:
  /// Captures the structural evidence: `screenFingerprint` is the
  /// WindowManager fingerprint of the screen (a pass with both verdict
  /// caches off passes 0: nothing reads it), `packageName` the foreground
  /// package it is salted with (empty when no app window).
  ScreenFrame(std::uint64_t screenFingerprint, std::string packageName);
  /// The frame of a stored dump: hashes it once and keeps only the hash.
  ScreenFrame(const android::UiDump& dump, std::string packageName);
  ~ScreenFrame();

  ScreenFrame(const ScreenFrame&) = delete;
  ScreenFrame& operator=(const ScreenFrame&) = delete;

  [[nodiscard]] const std::string& packageName() const { return package_; }

  /// The package-mixed screen fingerprint.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

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
  std::string package_;
  std::uint64_t fingerprint_;
  gfx::Bitmap pixels_;
};

/// The sharing handle: everything downstream of capture reads, never writes.
using FramePtr = std::shared_ptr<const ScreenFrame>;

}  // namespace darpa::core
