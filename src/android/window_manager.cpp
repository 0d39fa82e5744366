#include "android/window_manager.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "android/webview.h"

namespace darpa::android {

namespace {

/// One node of the top window's pre-order walk, as both the dump and the
/// fingerprint read it: views into the live tree (or into a stored UiNode)
/// plus scalars. Valid only for the duration of the visitor call.
struct NodeRef {
  std::string_view className;
  std::string_view resourceId;
  std::string_view text;
  Rect bounds;
  int depth;
  bool clickable;
  Color background;
  Color contentColor;
  bool hasContentColor;
  double effAlpha;
  bool isVirtual;
  std::string_view virtualId;
};

/// Visits `view`'s subtree in pre-order: invisible subtrees are skipped,
/// bounds are carried into screen space, alpha multiplies down the tree,
/// and a WebView's virtual tree is inlined directly below its host node —
/// depth continuing past the host, bounds translated through the host's
/// position, the host's effective alpha multiplied into every node's
/// opacity chain, and no resource id (virtual nodes only ever have a
/// page-global virtualId). The virtual walk is iterative (forEachVirtual),
/// so hostile page depth cannot overflow the service's stack.
template <typename Visitor>
void walkView(const View& view, Point origin, int depth, double parentAlpha,
              Visitor& visit) {
  if (!view.visible()) return;
  const Rect abs{origin.x + view.frame().x, origin.y + view.frame().y,
                 view.frame().width, view.frame().height};
  const double effAlpha = parentAlpha * view.alpha();
  const ViewContent content = view.dumpContent();
  visit(NodeRef{view.className(), view.resourceId(), content.text, abs, depth,
                view.clickable(), view.background(), content.contentColor,
                content.hasContentColor, effAlpha, false, {}});
  if (content.page != nullptr) {
    content.page->forEachVirtual(
        [&](const VirtualNode& vn, int virtualDepth, double effOpacity) {
          const bool hasContent = !vn.text.empty() || vn.crossGlyph;
          visit(NodeRef{virtualRoleClassName(vn.role), {}, vn.text,
                        vn.bounds.translated(abs.x, abs.y),
                        depth + 1 + virtualDepth, vn.clickable,
                        vn.background,
                        hasContent ? vn.contentColor : colors::kTransparent,
                        hasContent, effAlpha * effOpacity, true,
                        vn.virtualId});
        });
  }
  for (const auto& child : view.children()) {
    walkView(*child, {abs.x, abs.y}, depth + 1, effAlpha, visit);
  }
}

/// Hands every node of `wm`'s top app window to `visit`, in dump order.
template <typename Visitor>
void walkTopWindow(const WindowManager& wm, Visitor& visit) {
  const Window* top = wm.topAppWindow();
  if (top == nullptr) return;
  const Rect frame = wm.appFrame(top->fullscreen());
  walkView(top->content(), {frame.x, frame.y}, 0, 1.0, visit);
}

/// FNV-1a 64-bit, with a finalizing mix borrowed from splitmix64 so nearby
/// integer inputs (bounds off by one pixel) diverge across the whole word.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// kFnvPrimePowers[k] = kFnvPrime^k mod 2^64.
constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

void hashBytes(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void hashString(std::uint64_t& h, std::string_view s) {
  hashBytes(h, s);
  hashBytes(h, "\x1f");  // field separator: ("ab","c") != ("a","bc")
}

/// Hashes v's eight little-endian bytes. FNV-1a on a zero byte is a bare
/// multiply (h ^= 0 changes nothing), so the run of zero bytes above the
/// highest non-zero one folds into a single multiply by kFnvPrime^k — the
/// same value mod 2^64 as the byte loop, for the small non-negative ints
/// (bounds, depth, quantized alpha) that make up most of the stream.
void hashInt(std::uint64_t& h, std::int64_t v) {
  auto bits = static_cast<std::uint64_t>(v);
  std::size_t hashed = 0;
  for (; bits != 0; bits >>= 8, ++hashed) {
    h ^= bits & 0xFF;
    h *= kFnvPrime;
  }
  h *= kFnvPrimePowers[8 - hashed];
}

std::uint64_t finalize(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// The fingerprint stream of one node.
void hashNode(std::uint64_t& h, const NodeRef& node) {
  hashString(h, node.className);
  hashString(h, node.resourceId);
  hashString(h, node.text);
  hashInt(h, node.bounds.x);
  hashInt(h, node.bounds.y);
  hashInt(h, node.bounds.width);
  hashInt(h, node.bounds.height);
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

/// Folds nodes into the screen fingerprint, one hashNode per node.
class FingerprintVisitor {
 public:
  void operator()(const NodeRef& node) {
    // Never hash DARPA's own decoration views: the fingerprint must be
    // identical before and after the service decorates a screen, or every
    // decorated screen would invalidate its own cache entry.
    if (node.className == "DarpaDecorationView") return;
    ++hashedNodes_;
    hashNode(h_, node);
  }

  [[nodiscard]] std::uint64_t finish() {
    hashInt(h_, hashedNodes_);
    return finalize(h_);
  }

 private:
  std::uint64_t h_ = kFnvOffset;
  std::int64_t hashedNodes_ = 0;
};

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

UiDump WindowManager::dumpTopWindow() const {
  UiDump dump;
  auto copy = [&dump](const NodeRef& node) {
    dump.push_back(UiNode{
        std::string(node.className), std::string(node.resourceId),
        node.bounds, node.clickable, std::string(node.text), node.depth,
        node.background, node.contentColor, node.hasContentColor,
        node.effAlpha, node.isVirtual, std::string(node.virtualId)});
  };
  walkTopWindow(*this, copy);
  return dump;
}

std::uint64_t WindowManager::fingerprint(const UiDump& dump) {
  FingerprintVisitor hash;
  for (const UiNode& node : dump) {
    hash(NodeRef{node.className, node.resourceId, node.text,
                 node.boundsOnScreen, node.depth, node.clickable,
                 node.background, node.contentColor, node.hasContentColor,
                 node.effAlpha, node.isVirtual, node.virtualId});
  }
  return hash.finish();
}

std::uint64_t WindowManager::topWindowFingerprint() const {
  FingerprintVisitor hash;
  walkTopWindow(*this, hash);
  return hash.finish();
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
