#include "android/window_manager.h"

#include <algorithm>

#include "android/webview.h"

namespace darpa::android {

namespace {

/// Inlines a WebView's virtual accessibility tree into the dump, directly
/// below the host's own node. Depth continues past the host, bounds are
/// carried into screen space through the host's position, the host's
/// effective alpha multiplies into every node's opacity chain, and
/// resourceId stays empty throughout — virtual nodes only ever have a
/// page-global virtualId. The walk itself is iterative (forEachVirtual),
/// so hostile page depth cannot overflow the dumping service's stack.
void appendVirtualNodes(const WebView& web, const Rect& hostAbs,
                        int hostDepth, double hostEffAlpha, UiDump& out) {
  web.forEachVirtual([&](const VirtualNode& vn, int depth, double effOpacity) {
    UiNode node;
    node.className = std::string(virtualRoleClassName(vn.role));
    node.boundsOnScreen = vn.bounds.translated(hostAbs.x, hostAbs.y);
    node.clickable = vn.clickable;
    node.text = vn.text;
    node.depth = hostDepth + 1 + depth;
    node.background = vn.background;
    if (!vn.text.empty() || vn.crossGlyph) {
      node.contentColor = vn.contentColor;
      node.hasContentColor = true;
    }
    node.effAlpha = hostEffAlpha * effOpacity;
    node.isVirtual = true;
    node.virtualId = vn.virtualId;
    out.push_back(std::move(node));
  });
}

}  // namespace

WindowManager::WindowManager() : WindowManager(Config{}) {}
WindowManager::WindowManager(Config config) : config_(config) {}

Rect WindowManager::appFrame(bool fullscreen) const {
  if (fullscreen) return screenBounds();
  return {0, config_.statusBarHeight, config_.screenSize.width,
          config_.screenSize.height - config_.statusBarHeight -
              config_.navBarHeight};
}

Window* WindowManager::showAppWindow(std::string packageName,
                                     std::unique_ptr<View> content,
                                     bool fullscreen) {
  const Rect frame = appFrame(fullscreen);
  content->setFrame({0, 0, frame.width, frame.height});
  appStack_.push_back(std::make_unique<Window>(
      nextWindowId_++, std::move(packageName), std::move(content), fullscreen));
  Window* w = appStack_.back().get();
  emit(EventType::kWindowStateChanged, w->packageName());
  emit(EventType::kWindowsChanged, w->packageName());
  return w;
}

void WindowManager::popAppWindow() {
  if (appStack_.empty()) return;
  const std::string package = appStack_.back()->packageName();
  appStack_.pop_back();
  emit(EventType::kWindowsChanged, package);
  if (!appStack_.empty()) {
    emit(EventType::kWindowStateChanged, appStack_.back()->packageName());
  }
}

Window* WindowManager::topAppWindow() {
  return appStack_.empty() ? nullptr : appStack_.back().get();
}

const Window* WindowManager::topAppWindow() const {
  return appStack_.empty() ? nullptr : appStack_.back().get();
}

void WindowManager::notifyContentChanged(int burst) {
  const Window* top = topAppWindow();
  const std::string package = top ? top->packageName() : std::string{};
  for (int i = 0; i < burst; ++i) {
    emit(EventType::kWindowContentChanged, package);
  }
}

void WindowManager::emitEvent(EventType type) {
  const Window* top = topAppWindow();
  emit(type, top ? top->packageName() : std::string{});
}

int WindowManager::addOverlay(std::unique_ptr<View> view,
                              const LayoutParams& params) {
  const Window* top = topAppWindow();
  const Rect frame = top ? appFrame(top->fullscreen()) : screenBounds();
  const Rect screenRect{frame.x + params.x, frame.y + params.y, params.width,
                        params.height};
  view->setFrame(screenRect);
  overlays_.push_back(
      Overlay{nextOverlayId_++, std::move(view), screenRect});
  return overlays_.back().id;
}

std::optional<Point> WindowManager::overlayLocationOnScreen(
    int overlayId) const {
  if (auto r = overlayBoundsOnScreen(overlayId)) return Point{r->x, r->y};
  return std::nullopt;
}

std::optional<Rect> WindowManager::overlayBoundsOnScreen(int overlayId) const {
  for (const Overlay& o : overlays_) {
    if (o.id == overlayId) return o.screenRect;
  }
  return std::nullopt;
}

bool WindowManager::removeOverlay(int overlayId) {
  const auto it =
      std::find_if(overlays_.begin(), overlays_.end(),
                   [&](const Overlay& o) { return o.id == overlayId; });
  if (it == overlays_.end()) return false;
  overlays_.erase(it);
  return true;
}

void WindowManager::removeAllOverlays() { overlays_.clear(); }

gfx::Bitmap WindowManager::composite() const {
  // Pool-backed when a FramePool is installed: the per-capture screen
  // buffer is the fleet's dominant allocation, and a recycled slab is
  // re-filled to the identical initial state a fresh one would have.
  gfx::Bitmap screen =
      framePool_ != nullptr
          ? framePool_->acquire(config_.screenSize.width,
                                config_.screenSize.height, colors::kBlack)
          : gfx::Bitmap(config_.screenSize.width, config_.screenSize.height,
                        colors::kBlack);
  gfx::Canvas canvas(screen);

  // Application windows, bottom-up. Each window paints inside its frame.
  for (const auto& window : appStack_) {
    const Rect frame = appFrame(window->fullscreen());
    window->content().draw(canvas, {frame.x, frame.y});
  }

  // System bars, unless the foreground window claimed the whole screen.
  const Window* top = topAppWindow();
  const bool barsVisible = top == nullptr || !top->fullscreen();
  if (barsVisible) {
    const Color barColor = Color::rgb(20, 20, 28);
    canvas.fillRect({0, 0, config_.screenSize.width, config_.statusBarHeight},
                    barColor);
    // Clock and signal glyphs so the status bar has realistic texture.
    canvas.drawPseudoText({6, 7}, "12:00", colors::kWhite, 2);
    canvas.fillCircle({config_.screenSize.width - 14, 12}, 4, colors::kWhite);
    canvas.fillRect({config_.screenSize.width - 30, 8, 8, 8},
                    colors::kLightGray);
    canvas.fillRect({0, config_.screenSize.height - config_.navBarHeight,
                     config_.screenSize.width, config_.navBarHeight},
                    barColor);
    const int navY = config_.screenSize.height - config_.navBarHeight / 2;
    const int cx = config_.screenSize.width / 2;
    canvas.strokeCircle({cx, navY}, 8, colors::kWhite, 2);
    canvas.fillRect({cx - 70, navY - 7, 14, 14}, colors::kWhite);
    canvas.drawLine({cx + 56, navY - 8}, {cx + 70, navY},
                    colors::kWhite);
    canvas.drawLine({cx + 70, navY}, {cx + 56, navY + 8}, colors::kWhite);
  }

  // Overlays (accessibility decorations) on top of everything.
  for (const Overlay& o : overlays_) {
    o.view->draw(canvas, {0, 0});
  }
  return screen;
}

void WindowManager::dumpViewRecursive(const View& view, Point origin,
                                      int depth, double parentAlpha,
                                      UiDump& out) const {
  if (!view.visible()) return;
  const Rect abs{origin.x + view.frame().x, origin.y + view.frame().y,
                 view.frame().width, view.frame().height};
  const double effAlpha = parentAlpha * view.alpha();
  UiNode node;
  node.className = std::string(view.className());
  node.resourceId = view.resourceId();
  node.boundsOnScreen = abs;
  node.clickable = view.clickable();
  node.depth = depth;
  node.background = view.background();
  node.effAlpha = effAlpha;
  if (const auto* text = dynamic_cast<const TextView*>(&view)) {
    node.text = text->text();
    node.contentColor = text->textColor();
    node.hasContentColor = true;
  } else if (const auto* icon = dynamic_cast<const IconView*>(&view)) {
    node.contentColor = icon->glyphColor();
    node.hasContentColor = true;
  }
  out.push_back(std::move(node));
  if (const auto* web = dynamic_cast<const WebView*>(&view);
      web != nullptr && web->hasPage()) {
    appendVirtualNodes(*web, abs, depth, effAlpha, out);
  }
  for (const auto& child : view.children()) {
    dumpViewRecursive(*child, {abs.x, abs.y}, depth + 1, effAlpha, out);
  }
}

namespace {

/// FNV-1a 64-bit, with a finalizing mix borrowed from splitmix64 so nearby
/// integer inputs (bounds off by one pixel) diverge across the whole word.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void hashBytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void hashString(std::uint64_t& h, const std::string& s) {
  hashBytes(h, s.data(), s.size());
  hashBytes(h, "\x1f", 1);  // field separator: ("ab","c") != ("a","bc")
}

void hashInt(std::uint64_t& h, std::int64_t v) { hashBytes(h, &v, sizeof(v)); }

std::uint64_t finalize(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

std::uint64_t WindowManager::fingerprint(const UiDump& dump) {
  std::uint64_t h = kFnvOffset;
  std::int64_t hashedNodes = 0;
  for (const UiNode& node : dump) {
    // Never hash DARPA's own decoration views: the fingerprint must be
    // identical before and after the service decorates a screen, or every
    // decorated screen would invalidate its own cache entry.
    if (node.className == "DarpaDecorationView") continue;
    ++hashedNodes;
    hashString(h, node.className);
    hashString(h, node.resourceId);
    hashString(h, node.text);
    hashInt(h, node.boundsOnScreen.x);
    hashInt(h, node.boundsOnScreen.y);
    hashInt(h, node.boundsOnScreen.width);
    hashInt(h, node.boundsOnScreen.height);
    hashInt(h, node.depth);
    hashInt(h, node.clickable ? 1 : 0);
    hashInt(h, node.background.toArgb());
    hashInt(h, node.hasContentColor
                   ? static_cast<std::int64_t>(node.contentColor.toArgb())
                   : std::int64_t{-1});
    // Alpha is a double; quantize to 1/1024 so float noise cannot split
    // visually identical screens into distinct fingerprints.
    hashInt(h, static_cast<std::int64_t>(node.effAlpha * 1024.0));
    // Virtual (WebView) nodes have no resource id to mix, so their
    // page-global id enters the stream instead, plus a marker that keeps a
    // virtual node from colliding with a native one that happens to share
    // class/bounds/text. Native nodes hash exactly as before: the
    // fingerprint of an all-native dump is bit-identical across versions.
    if (node.isVirtual) {
      hashString(h, node.virtualId);
      hashInt(h, 1);
    }
  }
  hashInt(h, hashedNodes);
  return finalize(h);
}

std::uint64_t WindowManager::topWindowFingerprint() const {
  const UiDump dump = dumpTopWindow();
  return fingerprint(dump);
}

UiDump WindowManager::dumpTopWindow() const {
  UiDump dump;
  const Window* top = topAppWindow();
  if (top == nullptr) return dump;
  const Rect frame = appFrame(top->fullscreen());
  dumpViewRecursive(top->content(), {frame.x, frame.y}, 0, 1.0, dump);
  return dump;
}

View* WindowManager::clickAt(Point screen) {
  emit(EventType::kTouchInteractionStart,
       topAppWindow() ? topAppWindow()->packageName() : std::string{});
  // Overlays, topmost first.
  for (auto it = overlays_.rbegin(); it != overlays_.rend(); ++it) {
    const Point local{screen.x - it->screenRect.x,
                      screen.y - it->screenRect.y};
    if (View* hit = it->view->hitTest(local)) {
      hit->performClick();
      emit(EventType::kViewClicked, std::string{});
      emit(EventType::kTouchInteractionEnd, std::string{});
      return hit;
    }
  }
  // Top app window.
  View* consumed = nullptr;
  if (Window* top = topAppWindow()) {
    const Rect frame = appFrame(top->fullscreen());
    if (frame.contains(screen)) {
      const Point local{screen.x - frame.x, screen.y - frame.y};
      if (View* hit = top->content().hitTest(local)) {
        // The click handler may pop this very window (a dialog dismissing
        // itself), destroying `top` and its view tree — copy the package
        // name out before dispatching.
        const std::string package = top->packageName();
        hit->performClick();
        emit(EventType::kViewClicked, package);
        consumed = hit;
      }
    }
  }
  emit(EventType::kTouchInteractionEnd,
       topAppWindow() ? topAppWindow()->packageName() : std::string{});
  return consumed;
}

void WindowManager::emit(EventType type, const std::string& package) {
  if (sink_ == nullptr) return;
  AccessibilityEvent event;
  event.type = type;
  event.time = now();
  event.windowId = topAppWindow() ? topAppWindow()->id() : 0;
  event.packageName = package;
  sink_->onUiEvent(event);
}

}  // namespace darpa::android
