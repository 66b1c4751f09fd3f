// Minimal leveled logging to stderr.  The runtime is a library: it stays
// quiet below the warn threshold unless asked.
//
// Severity is filtered by the UNIMEM_LOG env var, read once:
//   names:   off | error | warn | info | debug
//   numbers: 0=off, 1=info, 2=debug   (legacy scheme, kept for compat)
// Default is `warn`: operational notes that previously went to stderr
// unconditionally (torn-line drops, worker death) stay visible, but a
// machine consumer can silence them with UNIMEM_LOG=off or keep only
// errors with UNIMEM_LOG=error.  Every line is prefixed with its
// severity ("[unimem:warn] ", ...) so log scrapers can filter.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace unimem {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
};

class Log {
 public:
  static LogLevel level() {
    static const LogLevel lvl = from_env();
    return lvl;
  }

  static bool enabled(LogLevel lvl) {
    return static_cast<int>(level()) >= static_cast<int>(lvl);
  }

  template <typename... Args>
  static void error(const char* fmt, Args... args) {
    if (enabled(LogLevel::kError)) emit("[unimem:error] ", fmt, args...);
  }

  template <typename... Args>
  static void warn(const char* fmt, Args... args) {
    if (enabled(LogLevel::kWarn)) emit("[unimem:warn] ", fmt, args...);
  }

  template <typename... Args>
  static void info(const char* fmt, Args... args) {
    if (enabled(LogLevel::kInfo)) emit("[unimem] ", fmt, args...);
  }

  template <typename... Args>
  static void debug(const char* fmt, Args... args) {
    if (enabled(LogLevel::kDebug)) emit("[unimem:dbg] ", fmt, args...);
  }

 private:
  static LogLevel from_env() {
    const char* e = std::getenv("UNIMEM_LOG");
    if (e == nullptr) return LogLevel::kWarn;
    if (std::strcmp(e, "off") == 0) return LogLevel::kOff;
    if (std::strcmp(e, "error") == 0) return LogLevel::kError;
    if (std::strcmp(e, "warn") == 0) return LogLevel::kWarn;
    if (std::strcmp(e, "info") == 0) return LogLevel::kInfo;
    if (std::strcmp(e, "debug") == 0) return LogLevel::kDebug;
    // Legacy numeric scheme: 0=off, 1=info, 2(+)=debug.
    const int v = std::atoi(e);
    if (v <= 0) return LogLevel::kOff;
    return v == 1 ? LogLevel::kInfo : LogLevel::kDebug;
  }

  template <typename... Args>
  static void emit(const char* prefix, const char* fmt, Args... args) {
    std::fputs(prefix, stderr);
    std::fprintf(stderr, fmt, args...);
    std::fputc('\n', stderr);
  }
};

}  // namespace unimem
