#include "android/webview.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/rng.h"

namespace darpa::android {

std::string_view virtualRoleClassName(VirtualRole role) {
  switch (role) {
    case VirtualRole::kWebArea:
      return "android.webkit.WebView";
    case VirtualRole::kGenericContainer:
      return "android.view.View";
    case VirtualRole::kImage:
      return "android.widget.Image";
    case VirtualRole::kStaticText:
      return "android.view.View";
    case VirtualRole::kButton:
      return "android.widget.Button";
    case VirtualRole::kLink:
      return "android.view.View";
  }
  return "android.view.View";
}

namespace {

/// Every node edge a page hands over must lie within +-kMaxPageCoord.
constexpr std::int64_t kMaxPageCoord = std::int64_t{1} << 20;

bool boundsInPageRange(const Rect& r) {
  const auto inRange = [](std::int64_t v) {
    return v >= -kMaxPageCoord && v <= kMaxPageCoord;
  };
  return r.width >= 0 && r.height >= 0 && inRange(r.x) && inRange(r.y) &&
         inRange(static_cast<std::int64_t>(r.x) + r.width) &&
         inRange(static_cast<std::int64_t>(r.y) + r.height);
}

double sanitizedOpacity(double opacity) {
  return std::isnan(opacity) ? 0.0 : std::clamp(opacity, 0.0, 1.0);
}

}  // namespace

void WebView::setPage(VirtualNode root) {
  rejectedVirtualNodes_ = 0;
  if (!boundsInPageRange(root.bounds)) {
    rejectedVirtualNodes_ = 1;
    hasPage_ = false;
    return;
  }
  page_ = std::move(root);
  hasPage_ = true;
  // Explicit stack for the same reason as forEachVirtual: page depth is
  // page-controlled.
  std::vector<VirtualNode*> stack{&page_};
  while (!stack.empty()) {
    VirtualNode* node = stack.back();
    stack.pop_back();
    node->opacity = sanitizedOpacity(node->opacity);
    rejectedVirtualNodes_ += static_cast<int>(
        std::erase_if(node->children, [](const VirtualNode& child) {
          return !boundsInPageRange(child.bounds);
        }));
    for (VirtualNode& child : node->children) stack.push_back(&child);
  }
}

void WebView::forEachVirtual(
    const std::function<void(const VirtualNode&, int depth, double effOpacity)>&
        fn) const {
  if (!hasPage_) return;
  struct Frame {
    const VirtualNode* node;
    int depth;
    double parentOpacity;
  };
  // Explicit stack: pages nest arbitrarily deep, and the walk must not be
  // bounded by the C++ call stack. Children are pushed in reverse so they
  // pop in document order (pre-order == paint order == dump order).
  std::vector<Frame> stack;
  stack.push_back({&page_, 0, 1.0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const double effOpacity = f.parentOpacity * f.node->opacity;
    fn(*f.node, f.depth, effOpacity);
    for (auto it = f.node->children.rbegin(); it != f.node->children.rend();
         ++it) {
      stack.push_back({&*it, f.depth + 1, effOpacity});
    }
  }
}

const VirtualNode* WebView::findVirtual(std::string_view id) const {
  if (id.empty()) return nullptr;
  const VirtualNode* found = nullptr;
  forEachVirtual([&](const VirtualNode& node, int, double) {
    if (found == nullptr && node.virtualId == id) found = &node;
  });
  return found;
}

Rect WebView::virtualBoundsInRoot(std::string_view id) const {
  const VirtualNode* node = findVirtual(id);
  if (node == nullptr) return {};
  const Point origin = positionInRoot();
  return node->bounds.translated(origin.x, origin.y);
}

int WebView::virtualNodeCount() const {
  int n = 0;
  forEachVirtual([&](const VirtualNode&, int, double) { ++n; });
  return n;
}

View* WebView::hitTest(Point p) {
  if (!visible()) return nullptr;
  const Rect local{0, 0, frame().width, frame().height};
  if (!local.contains(p)) return nullptr;
  // The topmost clickable virtual node wins: pre-order is paint order, so
  // the *last* hit in the walk is the one drawn on top.
  const VirtualNode* hit = nullptr;
  forEachVirtual([&](const VirtualNode& node, int, double effOpacity) {
    if (node.clickable && effOpacity > 0.0 && node.bounds.contains(p)) {
      hit = &node;
    }
  });
  // Virtual nodes have no native View identity — the host WebView consumes
  // the click on their behalf, exactly like the platform does.
  if (hit != nullptr) return this;
  return View::hitTest(p);
}

namespace {

/// Procedural "creative" texture identical in spirit to ImageView's: a
/// seeded gradient plus scattered shapes, so web ad imagery composites the
/// same way native ad imagery does.
void paintCreative(gfx::Canvas& canvas, const Rect& r, std::uint64_t seed,
                   double effAlpha) {
  Rng rng(seed);
  const auto channel = [&] {
    return static_cast<std::uint8_t>(rng.uniformInt(40, 220));
  };
  const Color top = Color::rgb(channel(), channel(), channel());
  const Color bottom = Color::rgb(channel(), channel(), channel());
  const auto fade = [&](Color c) {
    return c.withAlpha(static_cast<std::uint8_t>(
        std::clamp(c.a * effAlpha, 0.0, 255.0)));
  };
  canvas.fillVerticalGradient(r, fade(top), fade(bottom));
  const int shapes = rng.uniformInt(2, 6);
  for (int i = 0; i < shapes; ++i) {
    const Color c = fade(
        Color::rgba(static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.uniformInt(0, 255)), 200));
    const int w = rng.uniformInt(r.width / 8 + 1, r.width / 3 + 2);
    const int h = rng.uniformInt(r.height / 8 + 1, r.height / 3 + 2);
    const int x = r.x + rng.uniformInt(0, std::max(r.width - w, 1));
    const int y = r.y + rng.uniformInt(0, std::max(r.height - h, 1));
    if (rng.chance(0.5)) {
      canvas.fillRoundedRect({x, y, w, h}, c, std::min(w, h) / 4);
    } else {
      canvas.fillCircle({x + w / 2, y + h / 2}, std::min(w, h) / 2, c);
    }
  }
}

}  // namespace

void WebView::paintContent(gfx::Canvas& canvas, const Rect& absRect,
                           double effAlpha) const {
  if (!hasPage_) return;
  forEachVirtual([&](const VirtualNode& node, int, double effOpacity) {
    const double a = effAlpha * effOpacity;
    if (a <= 0.0) return;
    const Rect r = node.bounds.translated(absRect.x, absRect.y);
    if (r.empty()) return;
    if (node.background.a > 0) {
      const Color bg = withEffAlpha(node.background, a);
      if (node.cornerRadius > 0) {
        canvas.fillRoundedRect(r, bg, node.cornerRadius);
      } else {
        canvas.fillRect(r, bg);
      }
    }
    if (node.role == VirtualRole::kImage) {
      paintCreative(canvas, r, node.patternSeed, a);
    }
    if (!node.text.empty()) {
      const int cell = 2;
      const int textW = gfx::Canvas::pseudoTextWidth(node.text, cell);
      const int textH = gfx::Canvas::pseudoTextHeight(cell);
      const Point origin{r.x + std::max((r.width - textW) / 2, 1),
                         r.y + std::max((r.height - textH) / 2, 1)};
      canvas.drawPseudoText(origin, node.text,
                            withEffAlpha(node.contentColor, a), cell);
    }
    if (node.crossGlyph) {
      canvas.drawCross(r, withEffAlpha(node.contentColor, a), 2);
    }
  });
}

}  // namespace darpa::android
