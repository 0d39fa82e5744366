// Window manager: windows, system bars, compositing, input, UI dumps.
//
// Models the parts of Android's WindowManagerService that DARPA's design
// hinges on:
//
//  * An activity back-stack of application windows. Windows are either
//    full-screen or inset by the status/navigation bars — the latter is what
//    creates the screen-vs-window coordinate mismatch that §IV-D's anchor
//    view calibration solves (Fig. 4).
//  * Overlay views (WindowManager.addView) whose LayoutParams coordinates
//    are interpreted relative to the *current application window frame*, not
//    the screen. getLocationOnScreen() is only available for a caller's own
//    overlay views — app windows' view objects live in another process and
//    are not reachable, exactly the restriction the paper works around.
//  * Compositing all of the above (plus the system bars) into a Bitmap —
//    the "screenshot" the Accessibility Service hands to the CV model.
//  * An ADB-style UI hierarchy dump (resource ids + bounds + classes) that
//    the FraudDroid-like baseline consumes.
//  * Click dispatch with accessibility-event emission.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "android/accessibility_event.h"
#include "android/view.h"
#include "gfx/bitmap.h"
#include "gfx/frame_pool.h"

namespace darpa::android {

/// Receives UI events from the window manager; implemented by the
/// AccessibilityManager (kept as an interface to break the dependency cycle).
class UiEventSink {
 public:
  virtual ~UiEventSink() = default;
  virtual void onUiEvent(const AccessibilityEvent& event) = 0;
};

/// Subset of android.view.WindowManager.LayoutParams used by overlays.
struct LayoutParams {
  enum class Type { kApplicationOverlay, kAccessibilityOverlay };
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;
  Type type = Type::kAccessibilityOverlay;
};

/// One application window (activity) on the back stack.
class Window {
 public:
  Window(int id, std::string packageName, std::unique_ptr<View> content,
         bool fullscreen)
      : id_(id),
        packageName_(std::move(packageName)),
        content_(std::move(content)),
        fullscreen_(fullscreen) {}

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& packageName() const { return packageName_; }
  [[nodiscard]] View& content() { return *content_; }
  [[nodiscard]] const View& content() const { return *content_; }
  [[nodiscard]] bool fullscreen() const { return fullscreen_; }

 private:
  int id_;
  std::string packageName_;
  std::unique_ptr<View> content_;
  bool fullscreen_;
};

/// One node of the ADB-style hierarchy dump. Besides the classic
/// uiautomator fields (class, resource id, bounds, clickable, text) the dump
/// carries the *declared* style attributes a static analyzer can read from a
/// layout file without rendering: background color, content (text/glyph)
/// color, and the effective alpha inherited down the tree. Nodes appear in
/// pre-order, so `depth` reconstructs the hierarchy and z-order (later
/// siblings draw on top).
///
/// Hybrid dumps: a WebView's virtual accessibility tree (webview.h) is
/// inlined below its host node with `isVirtual` set, `depth` continuing
/// past the host, and `resourceId` always empty — virtual nodes carry a
/// page-global `virtualId` instead, exactly the asymmetry §VI-C exploits.
struct UiNode {
  std::string className;
  std::string resourceId;  ///< Empty when obfuscated / dynamic / virtual.
  Rect boundsOnScreen;
  bool clickable = false;
  std::string text;  ///< TextView content, if any.
  int depth = 0;     ///< 0 for the window root; children are parent + 1.
  Color background = colors::kTransparent;  ///< Declared background color.
  Color contentColor = colors::kTransparent;  ///< Text/glyph color.
  bool hasContentColor = false;  ///< True for TextView/IconView nodes.
  double effAlpha = 1.0;  ///< View alpha multiplied through its ancestors.
  bool isVirtual = false;  ///< Node of a WebView's virtual subtree.
  std::string virtualId;   ///< Page-global DOM id; may be empty/duplicated.
};

using UiDump = std::vector<UiNode>;

class WindowManager {
 public:
  struct Config {
    Size screenSize{360, 720};
    int statusBarHeight = 24;
    int navBarHeight = 48;
  };

  // Defined out of line: Config's default member initializers are not
  // available for a default argument inside the still-incomplete class.
  WindowManager();
  explicit WindowManager(Config config);

  /// Event sink for accessibility-event emission (may be null). The sink
  /// must outlive the window manager.
  void setEventSink(UiEventSink* sink) { sink_ = sink; }
  /// Clock used to stamp events (may be null → time 0). Must outlive us.
  void setClock(const SimClock* clock) { clock_ = clock; }

  /// Slab pool composite() allocates its screen buffers from (null = plain
  /// heap allocation per capture). The pool is borrowed and must outlive
  /// every bitmap composited through it.
  void setFramePool(gfx::FramePool* pool) { framePool_ = pool; }
  [[nodiscard]] gfx::FramePool* framePool() const { return framePool_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Rect screenBounds() const {
    return {0, 0, config_.screenSize.width, config_.screenSize.height};
  }
  /// The frame an app window occupies given its full-screen flag.
  [[nodiscard]] Rect appFrame(bool fullscreen) const;

  // --- application windows (activity stack) -------------------------------
  /// Pushes a new app window on the stack; emits WINDOW_STATE_CHANGED and
  /// WINDOWS_CHANGED. Returns a non-owning pointer valid until the window is
  /// popped.
  Window* showAppWindow(std::string packageName, std::unique_ptr<View> content,
                        bool fullscreen);
  /// Pops the top window (back navigation); emits window events. No-op when
  /// the stack is empty.
  void popAppWindow();
  [[nodiscard]] Window* topAppWindow();
  [[nodiscard]] const Window* topAppWindow() const;
  [[nodiscard]] std::size_t appWindowCount() const { return appStack_.size(); }

  /// Apps call this after mutating their view tree; emits `burst`
  /// WINDOW_CONTENT_CHANGED events (real apps generate storms of them).
  void notifyContentChanged(int burst = 1);

  /// Emits an arbitrary event from the top window's package (scroll, focus,
  /// click... — used by the Monkey driver to model real event traffic).
  void emitEvent(EventType type);

  // --- overlay views (DARPA's decorations & anchor) ------------------------
  /// Adds an overlay view. LayoutParams (x, y) are relative to the current
  /// app window frame (Android positions TYPE_ACCESSIBILITY_OVERLAY views in
  /// window coordinates); the view is sized to (width, height). Returns an
  /// overlay id. Overlays added while no app window exists are positioned
  /// relative to the screen.
  int addOverlay(std::unique_ptr<View> view, const LayoutParams& params);
  /// Screen-space origin of one of *your own* overlay views — the only
  /// getLocationOnScreen the platform offers a third-party service, and the
  /// basis of the paper's anchor-view calibration trick.
  [[nodiscard]] std::optional<Point> overlayLocationOnScreen(int overlayId) const;
  [[nodiscard]] std::optional<Rect> overlayBoundsOnScreen(int overlayId) const;
  bool removeOverlay(int overlayId);
  void removeAllOverlays();
  [[nodiscard]] std::size_t overlayCount() const { return overlays_.size(); }

  // --- compositing ----------------------------------------------------------
  /// Renders the full screen: app windows bottom-up, system bars (unless the
  /// top window is full-screen), then overlays.
  [[nodiscard]] gfx::Bitmap composite() const;

  // --- introspection ---------------------------------------------------------
  /// ADB-style dump of the top app window's hierarchy (screen coordinates).
  [[nodiscard]] UiDump dumpTopWindow() const;

  /// Stable 64-bit fingerprint of a UI dump: a hash over every node's
  /// geometry, class, text, and declared style. Two dumps hash equal iff
  /// the screens are structurally identical, so a re-stabilized unchanged
  /// screen (app switch back, dialog re-show) is recognizable without
  /// pixels. DARPA's own overlay views never poison the fingerprint: the
  /// dump only covers the top *app* window, and decoration nodes are
  /// skipped defensively besides.
  ///
  /// The hash never leans on resource ids alone — class, bounds, text,
  /// depth and style all mix in, and virtual (WebView) nodes additionally
  /// mix their page-global virtualId — so all-empty-`resourceId` virtual
  /// subtrees still fingerprint apart when structurally distinct. Native
  /// nodes hash byte-for-byte as they always did: the virtual fields only
  /// enter the stream for nodes with `isVirtual` set.
  [[nodiscard]] static std::uint64_t fingerprint(const UiDump& dump);
  /// Equals fingerprint(dumpTopWindow()), hashed while walking the live
  /// view tree: no dump is built and no node string is copied.
  [[nodiscard]] std::uint64_t topWindowFingerprint() const;

  // --- input ------------------------------------------------------------------
  /// Dispatches a tap at screen coordinates: overlays first (topmost wins),
  /// then the top app window. Emits TOUCH_INTERACTION and VIEW_CLICKED
  /// events. Returns the view that consumed the click, or nullptr.
  View* clickAt(Point screen);

 private:
  struct Overlay {
    int id;
    std::unique_ptr<View> view;
    Rect screenRect;  ///< Resolved at add time.
  };

  void emit(EventType type, const std::string& package);
  [[nodiscard]] Millis now() const { return clock_ ? clock_->now() : Millis{}; }

  Config config_;
  UiEventSink* sink_ = nullptr;
  const SimClock* clock_ = nullptr;
  gfx::FramePool* framePool_ = nullptr;
  std::vector<std::unique_ptr<Window>> appStack_;
  std::vector<Overlay> overlays_;
  int nextWindowId_ = 1;
  int nextOverlayId_ = 1;
};

}  // namespace darpa::android
