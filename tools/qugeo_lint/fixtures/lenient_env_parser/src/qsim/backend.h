// Fixture for check 7 (execution-config-env): apply_env_overrides must
// parse every override with the throwing common/env.h parsers, never a
// lenient C parser.
#pragma once

#include <cstddef>

struct ExecutionConfig {
  /// Parsed strictly: clean.
  std::size_t alpha = 1;
  /// Parsed with a lenient C parser: the violation.
  std::size_t delta = 4;
};

ExecutionConfig apply_env_overrides(ExecutionConfig base);
