// qugeo_lint: repo-specific invariant checker.
//
// Generic tooling (compiler warnings, clang-tidy, sanitizers) cannot know
// the conventions this codebase depends on. qugeo_lint enforces the seven
// that have historically drifted or would fail silently:
//
//  1. GateKind dispatch exhaustiveness — every `switch` over GateKind in
//     src/ must either enumerate every enumerator explicitly (so -Wswitch
//     guards it too) or reject the remainder loudly: a `default:` is only
//     legal when its body throws / calls a fail helper, or when it carries
//     a `qugeo-lint: safe-default(<reason>)` comment.
//  2. Environment-variable documentation — the set of `QUGEO_*` names
//     appearing in string literals under src/ and bench/ must exactly
//     match the env table in docs/ARCHITECTURE.md, in both directions.
//  3. Micro-bench registration — every bench/bench_micro_*.cpp must
//     include bench_micro_main.h (the main() that merges its numbers into
//     BENCH_micro.json) and be named in .github/workflows/ci.yml so the
//     perf-smoke job actually runs it.
//  4. Determinism — src/ must not call std::rand/srand/time()/clock()/
//     std::random_device (seeded qugeo::Rng streams only); a line may opt
//     out with a `qugeo-lint: allow-nondeterminism(<reason>)` comment.
//  5. Fault-site coverage — every `fault::site("<name>")` registered in
//     src/ must be exercised by at least one test under tests/ (the quoted
//     name appears there) and listed in the docs/ARCHITECTURE.md fault-site
//     registry; an injection point nobody injects into is dead robustness
//     code.
//  6. SIMD scalar equivalence — every `*_avx2(` kernel entry point
//     declared in a src/ header must appear in at least one test under
//     tests/: the AVX2
//     kernels carry a <= 1e-12-per-amplitude contract against their scalar
//     twins, and a vector kernel nobody compares is a silent-corruption
//     risk on the exact hardware CI does not cover.
//  7. Strict ExecutionConfig env parsing — apply_env_overrides in
//     src/qsim/backend.cpp must never parse an override with a lenient C
//     parser (strtoul/atoi/stod/...), only the throwing common/env.h
//     parsers: a lenient parser turns a typo into a silent 0.
//
// Exposed as a library so the fixture-based tests (tests/
// test_qugeo_lint.cpp) can run each check against known-bad trees; the
// main() in main.cpp runs all checks against a real repo root and is
// registered in CTest and CI.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace qugeo::lint {

/// One rule violation: `rule` is the stable check name, `where` a
/// file[:line] location, `message` the human-readable finding.
struct Violation {
  std::string rule;
  std::string where;
  std::string message;
};

/// Formats as "rule: where: message" (the line format main() prints).
[[nodiscard]] std::string to_string(const Violation& v);

/// Check 1: GateKind switch exhaustiveness / explicit rejection.
[[nodiscard]] std::vector<Violation> check_gatekind_dispatch(
    const std::filesystem::path& repo_root);

/// Check 2: QUGEO_* env vars in source vs the docs/ARCHITECTURE.md table.
[[nodiscard]] std::vector<Violation> check_env_var_docs(
    const std::filesystem::path& repo_root);

/// Check 3: bench_micro_* harness registration (JSON merge + CI).
[[nodiscard]] std::vector<Violation> check_bench_micro_registration(
    const std::filesystem::path& repo_root);

/// Check 4: nondeterminism sources in src/.
[[nodiscard]] std::vector<Violation> check_determinism(
    const std::filesystem::path& repo_root);

/// Check 5: every fault::site("...") in src/ is covered by a test and
/// documented in the ARCHITECTURE.md fault-site registry.
[[nodiscard]] std::vector<Violation> check_fault_site_coverage(
    const std::filesystem::path& repo_root);

/// Check 6: every *_avx2( kernel declared in a src/ header has a
/// scalar-equivalence test under tests/ (the identifier appears there).
[[nodiscard]] std::vector<Violation> check_simd_scalar_equivalence(
    const std::filesystem::path& repo_root);

/// Check 7: apply_env_overrides (src/qsim/backend.cpp) uses no lenient
/// C parser.
[[nodiscard]] std::vector<Violation> check_execution_config_env(
    const std::filesystem::path& repo_root);

/// All checks in order; empty result means the tree is clean.
[[nodiscard]] std::vector<Violation> run_all_checks(
    const std::filesystem::path& repo_root);

}  // namespace qugeo::lint
