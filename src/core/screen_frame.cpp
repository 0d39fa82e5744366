#include "core/screen_frame.h"

#include <utility>

namespace darpa::core {

ScreenFrame::ScreenFrame(std::uint64_t screenFingerprint,
                         std::string packageName)
    : package_(std::move(packageName)),
      fingerprint_(mixPackage(screenFingerprint, package_)) {}

ScreenFrame::ScreenFrame(const android::UiDump& dump, std::string packageName)
    : ScreenFrame(android::WindowManager::fingerprint(dump),
                  std::move(packageName)) {}

// §IV-E: scrub the privacy-sensitive capture before its slab is released
// (and possibly recycled through the FramePool). Runs when the last
// FramePtr lets go, so no holder can observe pixels after the scrub.
ScreenFrame::~ScreenFrame() {
  if (!pixels_.empty()) pixels_.fill(colors::kBlack);
}

void ScreenFrame::attachPixels(gfx::Bitmap pixels) {
  pixels_ = std::move(pixels);
}

std::uint64_t ScreenFrame::mixPackage(std::uint64_t fp,
                                      const std::string& package) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : package) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return fp ^ (h | 1);  // |1 keeps the mix non-zero for the empty package.
}

}  // namespace darpa::core
