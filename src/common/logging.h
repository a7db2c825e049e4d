// Minimal leveled logging to stderr. Off by default above WARN so tests and
// benches stay quiet; set VedbLogLevel() for debugging.

#ifndef VEDB_COMMON_LOGGING_H_
#define VEDB_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

namespace vedb {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global minimum level that is actually printed (default: kWarn).
LogLevel& VedbLogLevel();

/// `path` past its last '/'. Log lines name the source file, not the
/// directory the tree was built in, so output does not depend on it.
constexpr const char* SourceBasename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace vedb

#define VEDB_LOG(level, ...)                                        \
  do {                                                              \
    if (static_cast<int>(::vedb::LogLevel::level) >=                \
        static_cast<int>(::vedb::VedbLogLevel())) {                 \
      fprintf(stderr, "[%s] %s:%d: ", #level,                       \
              ::vedb::SourceBasename(__FILE__), __LINE__);          \
      fprintf(stderr, __VA_ARGS__);                                 \
      fprintf(stderr, "\n");                                        \
    }                                                               \
  } while (0)

/// Fatal invariant violation: prints and aborts. Use for programming errors,
/// never for I/O failures (those return Status).
#define VEDB_CHECK(cond, ...)                                            \
  do {                                                                   \
    if (!(cond)) {                                                       \
      fprintf(stderr, "CHECK failed at %s:%d: %s\n",                     \
              ::vedb::SourceBasename(__FILE__), __LINE__, #cond);        \
      fprintf(stderr, "" __VA_ARGS__);                                   \
      fprintf(stderr, "\n");                                             \
      abort();                                                           \
    }                                                                    \
  } while (0)

#endif  // VEDB_COMMON_LOGGING_H_
