// Environment-variable helpers: common/options.h resolves the engine knobs
// through them, and the benchmark binaries scale element counts and thread
// counts with them without recompiling.

#ifndef FITREE_COMMON_ENV_H_
#define FITREE_COMMON_ENV_H_

#include <cstdint>
#include <cstdlib>

namespace fitree {

// Returns the value of `name` parsed as a 64-bit integer, or `def` when the
// variable is unset or unparsable.
inline int64_t GetEnvInt64(const char* name, int64_t def) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return def;
  return static_cast<int64_t>(parsed);
}

inline int GetEnvInt(const char* name, int def) {
  return static_cast<int>(GetEnvInt64(name, static_cast<int64_t>(def)));
}

}  // namespace fitree

#endif  // FITREE_COMMON_ENV_H_
