// detlint — the determinism & concurrency source linter for this repo.
//
// DARPA's thesis is that a cheap static pass in front of an expensive
// runtime path pays for itself (the AUI lint in src/analysis). detlint
// applies the same idea to this codebase's own contracts: the properties
// the last five PRs guarded by hand-review — bit-identical fig8/Table III/
// Table VII/bench digests across worker counts, pooling modes, and
// batched/scalar lanes — are exactly the properties a grep-level scanner
// can enforce mechanically, before TSan or a digest-diff ever runs.
//
// Rules (ids are stable; see DESIGN.md §12 for the catalog):
//
//   wall-clock-in-digest-path
//       wallMicros / std::chrono / steady_clock / gettimeofday / ... inside
//       digest-affecting code. Wall time varies run to run; anything it
//       feeds cannot be byte-stable. The scheduler's finish-time metrics
//       are the one audited exception (explicit allow regions).
//   ambient-rng-in-digest-path
//       rand / srand / std::random_device / arc4random inside
//       digest-affecting code. All randomness must flow from the seeded
//       util::Rng so reruns replay exactly.
//   unordered-iteration-in-digest-path
//       Range-for or .begin()/.cbegin() over a std::unordered_map/set
//       declared in the same file, inside digest-affecting code. Hash
//       order is salted per process; iterating it leaks that order into
//       results. Membership ops (find/count/insert/erase) stay legal.
//   pointer-keyed-ordered-container
//       std::map/std::set keyed by a pointer type in digest-affecting
//       code. Ordered iteration over addresses is allocation-order — i.e.
//       nondeterministic across runs — wearing a deterministic disguise.
//   env-config-in-digest-path
//       getenv / secure_getenv / __builtin_cpu_supports / __get_cpuid
//       inside digest-affecting code. Ambient host configuration (env
//       vars, CPUID) varies machine to machine and deploy to deploy;
//       code that branches on it mid-computation produces digests that
//       depend on where the run happened. The one legal shape is
//       one-time init whose every outcome is bit-equal (e.g. a CPUID
//       pick between exact-integer kernels, where the read only picks a
//       speed) — documented with an explicit begin-allow region. src/
//       has no such instance; fixtures/env_dispatch.cpp exercises it.
//   mutex-missing-guarded-by
//       A std::mutex / RankedMutex member whose file contains no
//       GUARDED_BY(<that mutex>) annotation. Applies everywhere (not only
//       digest paths): an unannotated mutex is invisible to the
//       -Wthread-safety lane, so its protected set is unchecked.
//   raw-mutex-in-fleet
//       A raw std::mutex member in fleet code (any file whose path
//       contains "fleet"). The work-stealing scheduler's deadlock-freedom
//       argument is the lock-rank order, and the rank validator only sees
//       RankedMutex — a raw std::mutex bypasses it, so a rank inversion
//       through that lock would go undetected until it deadlocks in
//       production.
//
// What counts as digest-affecting:
//   * Path rules: every file under src/ (the runtime + substrate that
//     feeds every digest). bench/ and tests/ are out of scope — benches
//     time themselves with wall clocks by design and assert their digest
//     contracts at run time.
//   * Region tags, for future digest code outside src/:
//         // detlint: digest-path begin
//         // detlint: digest-path end
//
// Suppressions, each carrying its audit trail in the comment:
//   * line:    ... // detlint: allow(rule-id[,rule-id]) reason
//   * region:  // detlint: begin-allow(rule-id) reason
//              // detlint: end-allow(rule-id)
//
// Modes:
//   detlint --root <repo-root>      lint <root>/src; exit 1 on findings
//   detlint --self-test <dir>       fixture mode: every file in <dir> is
//                                   scanned as digest-path code and its
//                                   "// expect: rule-id" markers must match
//                                   the findings exactly (each rule must
//                                   demonstrably fire, nothing extra).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct FileReport {
  std::vector<Finding> findings;
  /// Self-test expectations: (line, rule) from "// expect: rule" markers.
  std::vector<std::pair<int, std::string>> expected;
};

const char kRuleWallClock[] = "wall-clock-in-digest-path";
const char kRuleAmbientRng[] = "ambient-rng-in-digest-path";
const char kRuleUnorderedIter[] = "unordered-iteration-in-digest-path";
const char kRulePtrKeyed[] = "pointer-keyed-ordered-container";
const char kRuleEnvConfig[] = "env-config-in-digest-path";
const char kRuleMutexGuard[] = "mutex-missing-guarded-by";
const char kRuleRawMutexFleet[] = "raw-mutex-in-fleet";

/// Strips // and /* */ comments plus string/char literal CONTENTS from one
/// line, so banned tokens in comments or messages never fire. `inBlock`
/// carries /* */ state across lines. Literal delimiters are kept (the
/// stripped text stays roughly token-shaped).
std::string stripCommentsAndStrings(const std::string& line, bool& inBlock) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (inBlock) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        inBlock = false;
        ++i;
      }
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      inBlock = true;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.push_back(quote);
      ++i;
      while (i < line.size() && line[i] != quote) {
        if (line[i] == '\\') ++i;  // skip escaped char
        ++i;
      }
      out.push_back(quote);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Region/line state driven by the detlint directives in comments.
struct ScanState {
  bool inBlockComment = false;
  bool inDigestRegion = false;             ///< "digest-path begin" tag seen.
  std::set<std::string> allowRegions;      ///< Open begin-allow(rule)s.
  /// Names declared in this file as unordered containers / mutexes.
  std::set<std::string> unorderedNames;
  std::map<std::string, int> mutexDecls;   ///< name -> line declared.
  std::set<std::string> guardedByRefs;     ///< Names seen in GUARDED_BY().
  std::set<std::string> mutexAllowed;      ///< Mutex names with line allows.
  /// std::mutex (not RankedMutex) members: name -> line, for the
  /// fleet-path rank-bypass rule.
  std::map<std::string, int> rawMutexDecls;
  std::set<std::string> rawMutexAllowed;   ///< Raw-mutex names with allows.
};

/// Parses "// detlint: ..." directives and "// expect: ..." markers from
/// the RAW line (they live in comments on purpose).
void parseDirectives(const std::string& raw, int lineNo, ScanState& state,
                     std::set<std::string>& lineAllows, FileReport& report) {
  static const std::regex kDigestBegin(R"(//\s*detlint:\s*digest-path\s+begin)");
  static const std::regex kDigestEnd(R"(//\s*detlint:\s*digest-path\s+end)");
  static const std::regex kAllow(R"(//\s*detlint:\s*allow\(([^)]+)\))");
  static const std::regex kBeginAllow(R"(//\s*detlint:\s*begin-allow\(([^)]+)\))");
  static const std::regex kEndAllow(R"(//\s*detlint:\s*end-allow\(([^)]+)\))");
  static const std::regex kExpect(R"(//\s*expect:\s*([A-Za-z0-9-]+))");

  std::smatch m;
  if (std::regex_search(raw, m, kDigestBegin)) state.inDigestRegion = true;
  if (std::regex_search(raw, m, kDigestEnd)) state.inDigestRegion = false;

  auto splitRules = [](const std::string& list, std::set<std::string>& into) {
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const auto first = rule.find_first_not_of(" \t");
      const auto last = rule.find_last_not_of(" \t");
      if (first != std::string::npos) {
        into.insert(rule.substr(first, last - first + 1));
      }
    }
  };
  if (std::regex_search(raw, m, kAllow)) splitRules(m[1].str(), lineAllows);
  if (std::regex_search(raw, m, kBeginAllow)) {
    std::set<std::string> rules;
    splitRules(m[1].str(), rules);
    state.allowRegions.insert(rules.begin(), rules.end());
  }
  if (std::regex_search(raw, m, kEndAllow)) {
    std::set<std::string> rules;
    splitRules(m[1].str(), rules);
    for (const std::string& rule : rules) state.allowRegions.erase(rule);
  }
  auto begin = std::sregex_iterator(raw.begin(), raw.end(), kExpect);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    report.expected.emplace_back(lineNo, (*it)[1].str());
  }
}

bool suppressed(const std::string& rule, const ScanState& state,
                const std::set<std::string>& lineAllows) {
  return lineAllows.count(rule) > 0 || state.allowRegions.count(rule) > 0;
}

/// Pass 1 over the stripped line: collect declarations the cross-line
/// rules need (unordered members, mutex members, GUARDED_BY references).
void collectDeclarations(const std::string& text, int lineNo, ScanState& state,
                         const std::set<std::string>& lineAllows) {
  // Declarations may end at end-of-line with the annotation macro on the
  // next line, hence the `$` alternative after the declared name.
  static const std::regex kUnorderedDecl(
      R"(std::unordered_(?:map|set)\s*<.*>\s+([A-Za-z_]\w*)\s*(?:[;={(]|$))");
  static const std::regex kMutexDecl(
      R"((?:std::mutex|RankedMutex)\s+([A-Za-z_]\w*)\s*(?:[;={]|$))");
  static const std::regex kRawMutexDecl(
      R"(std::mutex\s+([A-Za-z_]\w*)\s*(?:[;={]|$))");
  static const std::regex kGuardedBy(R"(GUARDED_BY\(\s*([A-Za-z_]\w*)\s*\))");

  std::smatch m;
  if (std::regex_search(text, m, kUnorderedDecl)) {
    state.unorderedNames.insert(m[1].str());
  }
  if (std::regex_search(text, m, kMutexDecl)) {
    const std::string name = m[1].str();
    state.mutexDecls.emplace(name, lineNo);
    if (lineAllows.count(kRuleMutexGuard) > 0) state.mutexAllowed.insert(name);
  }
  if (std::regex_search(text, m, kRawMutexDecl)) {
    const std::string name = m[1].str();
    state.rawMutexDecls.emplace(name, lineNo);
    if (lineAllows.count(kRuleRawMutexFleet) > 0) {
      state.rawMutexAllowed.insert(name);
    }
  }
  auto begin = std::sregex_iterator(text.begin(), text.end(), kGuardedBy);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    state.guardedByRefs.insert((*it)[1].str());
  }
}

/// Pass 2: the per-line digest-path rules.
void checkDigestRules(const std::string& text, const std::string& file,
                      int lineNo, const ScanState& state,
                      const std::set<std::string>& lineAllows,
                      FileReport& report) {
  struct TokenRule {
    const char* rule;
    std::regex pattern;
    const char* what;
  };
  static const std::vector<TokenRule> kTokenRules = {
      {kRuleWallClock,
       std::regex(R"(\bwallMicros\b|std::chrono\b|\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b|\bclock_gettime\b|\bgettimeofday\b)"),
       "wall-clock read"},
      {kRuleAmbientRng,
       std::regex(R"(\brand\s*\(|\bsrand\s*\(|std::random_device\b|\brandom_device\b|\barc4random\b)"),
       "ambient (unseeded) randomness"},
      {kRulePtrKeyed,
       std::regex(R"(std::(?:map|set)\s*<\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*)"),
       "pointer-keyed ordered container (iteration order = address order)"},
      {kRuleEnvConfig,
       std::regex(R"(\bgetenv\s*\(|\bsecure_getenv\s*\(|__builtin_cpu_supports\b|__get_cpuid\b)"),
       "ambient host configuration read (env/CPUID); only legal as "
       "documented one-time init whose outcomes are all bit-equal"},
  };

  for (const TokenRule& tr : kTokenRules) {
    if (suppressed(tr.rule, state, lineAllows)) continue;
    if (std::regex_search(text, tr.pattern)) {
      report.findings.push_back(
          {file, lineNo, tr.rule,
           std::string(tr.what) + " in digest-affecting code"});
    }
  }

  if (!suppressed(kRuleUnorderedIter, state, lineAllows)) {
    static const std::regex kRangeFor(
        R"(for\s*\([^;)]*:\s*\*?([A-Za-z_]\w*)\s*\))");
    static const std::regex kBeginCall(R"(\b([A-Za-z_]\w*)\.c?begin\s*\()");
    std::smatch m;
    std::string hit;
    if (std::regex_search(text, m, kRangeFor) &&
        state.unorderedNames.count(m[1].str()) > 0) {
      hit = m[1].str();
    } else if (std::regex_search(text, m, kBeginCall) &&
               state.unorderedNames.count(m[1].str()) > 0) {
      hit = m[1].str();
    }
    if (!hit.empty()) {
      report.findings.push_back(
          {file, lineNo, kRuleUnorderedIter,
           "iteration over unordered container '" + hit +
               "' in digest-affecting code (hash order leaks into output)"});
    }
  }
}

/// Scans one file. `forceDigest` marks the whole file digest-affecting
/// (fixture mode and src/ path rule).
FileReport scanFile(const fs::path& path, const std::string& displayName,
                    bool forceDigest) {
  FileReport report;
  std::ifstream in(path);
  if (!in) {
    report.findings.push_back({displayName, 0, "io-error", "cannot open"});
    return report;
  }

  ScanState state;
  // The digest rules need the declaration table before flagging usage, and
  // members are routinely declared after use sites (class bodies list
  // methods first). Two passes over the buffered lines.
  std::vector<std::string> rawLines;
  for (std::string line; std::getline(in, line);) rawLines.push_back(line);

  {
    bool inBlock = false;
    int lineNo = 0;
    for (const std::string& raw : rawLines) {
      ++lineNo;
      std::set<std::string> lineAllows;
      FileReport scratch;  // declaration pass ignores expects/regions
      parseDirectives(raw, lineNo, state, lineAllows, scratch);
      const std::string text = stripCommentsAndStrings(raw, inBlock);
      collectDeclarations(text, lineNo, state, lineAllows);
    }
    // parseDirectives in the declaration pass may leave region state set;
    // reset everything positional for the checking pass.
    state.inBlockComment = false;
    state.inDigestRegion = false;
    state.allowRegions.clear();
  }

  bool inBlock = false;
  int lineNo = 0;
  for (const std::string& raw : rawLines) {
    ++lineNo;
    std::set<std::string> lineAllows;
    parseDirectives(raw, lineNo, state, lineAllows, report);
    const std::string text = stripCommentsAndStrings(raw, inBlock);
    const bool digest = forceDigest || state.inDigestRegion;
    if (digest) {
      checkDigestRules(text, displayName, lineNo, state, lineAllows, report);
    }
  }

  // File-scope rule: every mutex member must be referenced by a GUARDED_BY
  // somewhere in the same file (or carry an explicit allow).
  for (const auto& [name, declLine] : state.mutexDecls) {
    if (state.guardedByRefs.count(name) > 0) continue;
    if (state.mutexAllowed.count(name) > 0) continue;
    report.findings.push_back(
        {displayName, declLine, kRuleMutexGuard,
         "mutex member '" + name +
             "' has no GUARDED_BY(" + name +
             ") field in this file — its protected set is invisible to "
             "-Wthread-safety"});
  }

  // File-scope rule: fleet code — and the shared verdict tier, which sits
  // on the fleet's lock-rank spine at kVerdictTier — never declares a raw
  // std::mutex member; it must be a RankedMutex so the lock-rank validator
  // (the scheduler's deadlock-freedom argument) can see every acquisition.
  if (displayName.find("fleet") != std::string::npos ||
      displayName.find("verdict_tier") != std::string::npos) {
    for (const auto& [name, declLine] : state.rawMutexDecls) {
      if (state.rawMutexAllowed.count(name) > 0) continue;
      report.findings.push_back(
          {displayName, declLine, kRuleRawMutexFleet,
           "raw std::mutex member '" + name +
               "' in fleet code bypasses the lock-rank validator — use "
               "util::RankedMutex with a documented rank"});
    }
  }
  return report;
}

[[nodiscard]] bool isSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

/// Deterministically ordered source files under `dir` (the linter obeys
/// its own rules: no directory-entry hash order in its output).
std::vector<fs::path> collectFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && isSourceFile(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int lintTree(const fs::path& root) {
  const fs::path srcDir = root / "src";
  if (!fs::exists(srcDir)) {
    std::fprintf(stderr, "detlint: no src/ under %s\n", root.c_str());
    return 2;
  }
  std::vector<Finding> all;
  for (const fs::path& file : collectFiles(srcDir)) {
    const std::string display = fs::relative(file, root).generic_string();
    // Path rule: everything under src/ is digest-affecting.
    FileReport report = scanFile(file, display, /*forceDigest=*/true);
    all.insert(all.end(), report.findings.begin(), report.findings.end());
  }
  for (const Finding& f : all) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!all.empty()) {
    std::printf("detlint: %zu finding(s)\n", all.size());
    return 1;
  }
  std::printf("detlint: clean\n");
  return 0;
}

int selfTest(const fs::path& fixtureDir) {
  if (!fs::exists(fixtureDir)) {
    std::fprintf(stderr, "detlint: no fixture dir %s\n", fixtureDir.c_str());
    return 2;
  }
  int failures = 0;
  std::set<std::string> rulesFired;
  for (const fs::path& file : collectFiles(fixtureDir)) {
    const std::string display = file.filename().string();
    FileReport report = scanFile(file, display, /*forceDigest=*/true);

    std::multiset<std::pair<int, std::string>> expected(
        report.expected.begin(), report.expected.end());
    std::multiset<std::pair<int, std::string>> actual;
    for (const Finding& f : report.findings) {
      actual.insert({f.line, f.rule});
      rulesFired.insert(f.rule);
    }
    for (const auto& [line, rule] : expected) {
      if (actual.count({line, rule}) == 0) {
        std::printf("SELF-TEST FAIL %s:%d: expected [%s], did not fire\n",
                    display.c_str(), line, rule.c_str());
        ++failures;
      }
    }
    for (const auto& [line, rule] : actual) {
      if (expected.count({line, rule}) == 0) {
        std::printf("SELF-TEST FAIL %s:%d: unexpected [%s]\n", display.c_str(),
                    line, rule.c_str());
        ++failures;
      }
    }
  }
  // Coverage contract: the fixture suite must make every rule fire at
  // least once, or a silently dead rule would pass CI forever.
  for (const char* rule : {kRuleWallClock, kRuleAmbientRng, kRuleUnorderedIter,
                           kRulePtrKeyed, kRuleEnvConfig, kRuleMutexGuard,
                           kRuleRawMutexFleet}) {
    if (rulesFired.count(rule) == 0) {
      std::printf("SELF-TEST FAIL: rule [%s] fired on no fixture\n", rule);
      ++failures;
    }
  }
  if (failures > 0) {
    std::printf("detlint self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("detlint self-test: all rules fire as expected\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--root") return lintTree(args[1]);
  if (args.size() == 2 && args[0] == "--self-test") return selfTest(args[1]);
  std::fprintf(stderr,
               "usage: detlint --root <repo-root> | --self-test <fixture-dir>\n");
  return 2;
}
