// qugeo_lint's own coverage: the fixture trees under
// tools/qugeo_lint/fixtures must fail exactly the check they were built to
// fail (and the clean fixture must pass everything), and the real repo
// tree must be clean — the same verdict the `qugeo_lint` CTest entry and
// the CI lint job enforce.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "qugeo_lint/lint.h"

namespace qugeo::lint {
namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(QUGEO_LINT_FIXTURES_DIR) / name;
}

bool any_violation(const std::vector<Violation>& vs, const std::string& rule,
                   const std::string& message_fragment) {
  return std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
    return v.rule == rule &&
           v.message.find(message_fragment) != std::string::npos;
  });
}

std::string render(const std::vector<Violation>& vs) {
  std::string out;
  for (const auto& v : vs) out += to_string(v) + "\n";
  return out;
}

TEST(QugeoLint, CleanFixturePassesEveryCheck) {
  const auto violations = run_all_checks(fixture("clean"));
  EXPECT_TRUE(violations.empty()) << render(violations);
}

TEST(QugeoLint, MissingGateKindCaseFails) {
  const auto violations = check_gatekind_dispatch(fixture("missing_gatekind"));
  // The incomplete switch reports the one absent enumerator...
  EXPECT_TRUE(any_violation(violations, "gatekind-dispatch", "kGamma"))
      << render(violations);
  // ...and the handled ones are not reported.
  EXPECT_FALSE(any_violation(violations, "gatekind-dispatch", "kAlpha"));
  EXPECT_FALSE(any_violation(violations, "gatekind-dispatch", "kBeta"));
  // The silent `default:` at the second site is its own finding.
  EXPECT_TRUE(any_violation(violations, "gatekind-dispatch", "default"))
      << render(violations);
  EXPECT_EQ(violations.size(), 2u) << render(violations);
}

TEST(QugeoLint, UndocumentedEnvVarFailsBothDirections) {
  const auto violations = check_env_var_docs(fixture("undocumented_env"));
  EXPECT_TRUE(any_violation(violations, "env-var-docs", "QUGEO_SECRET"))
      << render(violations);
  EXPECT_TRUE(any_violation(violations, "env-var-docs", "QUGEO_GHOST"))
      << render(violations);
  EXPECT_EQ(violations.size(), 2u) << render(violations);
}

TEST(QugeoLint, StdRandAndTimeFail) {
  const auto violations = check_determinism(fixture("uses_rand"));
  EXPECT_TRUE(any_violation(violations, "determinism", "std::rand"))
      << render(violations);
  EXPECT_TRUE(any_violation(violations, "determinism", "time()"))
      << render(violations);
  // Exactly two: the comment, the string literal, and the waived line
  // must not be findings.
  EXPECT_EQ(violations.size(), 2u) << render(violations);
}

TEST(QugeoLint, UntestedFaultSiteFailsBothWays) {
  const auto violations =
      check_fault_site_coverage(fixture("untested_fault_site"));
  // The uncovered site is reported twice: no test injects into it, and
  // the docs registry does not list it.
  EXPECT_TRUE(any_violation(violations, "fault-site-coverage",
                            "\"demo.untested\" is registered in src/ but no "
                            "test"))
      << render(violations);
  EXPECT_TRUE(any_violation(violations, "fault-site-coverage",
                            "\"demo.untested\" is missing from the "
                            "docs/ARCHITECTURE.md"))
      << render(violations);
  // The covered site and the commented-out one produce nothing.
  EXPECT_FALSE(any_violation(violations, "fault-site-coverage", "demo.covered"));
  EXPECT_FALSE(
      any_violation(violations, "fault-site-coverage", "demo.commented-out"));
  EXPECT_EQ(violations.size(), 2u) << render(violations);
}

TEST(QugeoLint, UntestedSimdKernelFails) {
  const auto violations = check_simd_scalar_equivalence(fixture("untested_simd"));
  EXPECT_TRUE(any_violation(violations, "simd-scalar-equivalence",
                            "apply_untested_avx2"))
      << render(violations);
  // The covered kernel, the commented-out call, and the string-literal
  // mention produce nothing.
  EXPECT_FALSE(any_violation(violations, "simd-scalar-equivalence",
                             "apply_covered_avx2"));
  EXPECT_FALSE(any_violation(violations, "simd-scalar-equivalence",
                             "apply_commented_avx2"));
  EXPECT_FALSE(any_violation(violations, "simd-scalar-equivalence",
                             "some_stringonly_avx2"));
  EXPECT_EQ(violations.size(), 1u) << render(violations);
}

TEST(QugeoLint, LenientEnvParserFails) {
  const auto violations =
      check_execution_config_env(fixture("lenient_env_parser"));
  // delta is parsed with a lenient C parser; alpha, parsed strictly, is
  // clean.
  EXPECT_TRUE(
      any_violation(violations, "execution-config-env", "lenient `strtoul`"))
      << render(violations);
  EXPECT_EQ(violations.size(), 1u) << render(violations);
}

TEST(QugeoLint, NegativeFixturesAreCleanElsewhere) {
  // Each negative fixture trips only its target check, so a regression
  // that cross-fires another rule is visible here.
  EXPECT_TRUE(check_determinism(fixture("missing_gatekind")).empty());
  EXPECT_TRUE(check_env_var_docs(fixture("missing_gatekind")).empty());
  EXPECT_TRUE(check_gatekind_dispatch(fixture("undocumented_env")).empty());
  EXPECT_TRUE(check_gatekind_dispatch(fixture("uses_rand")).empty());
  EXPECT_TRUE(check_fault_site_coverage(fixture("missing_gatekind")).empty());
  EXPECT_TRUE(check_fault_site_coverage(fixture("uses_rand")).empty());
  EXPECT_TRUE(check_env_var_docs(fixture("untested_fault_site")).empty());
  EXPECT_TRUE(check_determinism(fixture("untested_fault_site")).empty());
  EXPECT_TRUE(
      check_gatekind_dispatch(fixture("untested_fault_site")).empty());
  EXPECT_TRUE(check_simd_scalar_equivalence(fixture("missing_gatekind")).empty());
  EXPECT_TRUE(check_simd_scalar_equivalence(fixture("uses_rand")).empty());
  EXPECT_TRUE(
      check_simd_scalar_equivalence(fixture("untested_fault_site")).empty());
  EXPECT_TRUE(check_env_var_docs(fixture("untested_simd")).empty());
  EXPECT_TRUE(check_determinism(fixture("untested_simd")).empty());
  EXPECT_TRUE(check_gatekind_dispatch(fixture("untested_simd")).empty());
  EXPECT_TRUE(check_fault_site_coverage(fixture("untested_simd")).empty());
  // Check 7 no-ops on every tree without an apply_env_overrides body...
  EXPECT_TRUE(check_execution_config_env(fixture("missing_gatekind")).empty());
  EXPECT_TRUE(check_execution_config_env(fixture("undocumented_env")).empty());
  EXPECT_TRUE(check_execution_config_env(fixture("uses_rand")).empty());
  EXPECT_TRUE(
      check_execution_config_env(fixture("untested_fault_site")).empty());
  EXPECT_TRUE(check_execution_config_env(fixture("untested_simd")).empty());
  // ...and the check-7 fixture stays clean under every other check.
  EXPECT_TRUE(check_gatekind_dispatch(fixture("lenient_env_parser")).empty());
  EXPECT_TRUE(check_env_var_docs(fixture("lenient_env_parser")).empty());
  EXPECT_TRUE(check_determinism(fixture("lenient_env_parser")).empty());
  EXPECT_TRUE(
      check_fault_site_coverage(fixture("lenient_env_parser")).empty());
  EXPECT_TRUE(
      check_simd_scalar_equivalence(fixture("lenient_env_parser")).empty());
  EXPECT_TRUE(
      check_bench_micro_registration(fixture("lenient_env_parser")).empty());
}

TEST(QugeoLint, RealRepositoryTreeIsClean) {
  const auto violations = run_all_checks(QUGEO_REPO_ROOT);
  EXPECT_TRUE(violations.empty()) << render(violations);
}

}  // namespace
}  // namespace qugeo::lint
