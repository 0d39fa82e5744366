// Fixture: env-config-in-digest-path must fire on every ambient host
// configuration read (env vars, CPUID) in digest-affecting code, and the
// allow machinery must be able to carve out the one legal shape: a
// documented one-time init whose every outcome is bit-equal (e.g. a
// CPUID pick between integer kernels that accumulate exactly).
#include <cstdlib>

extern "C" char* secure_getenv(const char*);  // expect: env-config-in-digest-path

namespace fixture {

int batchSizeFromEnv() {
  // Branching the computation on an env var: digests now depend on the
  // deploy environment. The canonical bug this rule exists for.
  const char* v = std::getenv("DARPA_BATCH");  // expect: env-config-in-digest-path
  return v != nullptr ? std::atoi(v) : 64;
}

bool debugFlag() {
  return secure_getenv("DARPA_DEBUG") != nullptr;  // expect: env-config-in-digest-path
}

int tileWidthFromCpu() {
  // Sizing a digest-affecting tile by CPUID: fp32 summation order would
  // change per host. (Exact integer accumulation would dodge this — see
  // the allowed region below.)
  return __builtin_cpu_supports("avx2") ? 8 : 4;  // expect: env-config-in-digest-path
}

// "getenv" or "__builtin_cpu_supports" in a comment must NOT fire, and
// neither must the token inside a string literal:
const char* docString() { return "set via getenv(DARPA_LANE)"; }

// The audited exception shape: a one-time lane pick where every outcome
// is bit-equal, so the ambient read selects a speed, never a value.
// detlint: begin-allow(env-config-in-digest-path) one-time init; all lanes bit-equal
inline int pickLaneOnce() {
  if (std::getenv("DARPA_LANE") != nullptr) return 0;
  return __builtin_cpu_supports("avx2") ? 2 : 1;
}
// detlint: end-allow(env-config-in-digest-path)

int lineAllow() {
  return std::getenv("X") ? 1 : 0;  // detlint: allow(env-config-in-digest-path) audited
}

}  // namespace fixture
