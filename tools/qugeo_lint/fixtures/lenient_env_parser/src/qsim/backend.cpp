#include "backend.h"

#include <cstdlib>
#include <stdexcept>

ExecutionConfig apply_env_overrides(ExecutionConfig base) {
  if (const char* v = std::getenv("QUGEO_ALPHA")) {
    if (*v < '0' || *v > '9') throw std::invalid_argument("QUGEO_ALPHA");
    base.alpha = static_cast<std::size_t>(*v - '0');
  }
  if (const char* v = std::getenv("QUGEO_DELTA"))
    base.delta = std::strtoul(v, nullptr, 10);
  return base;
}
