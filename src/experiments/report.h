// Minimal fixed-width table printer for the bench binaries, so every
// figure/table harness prints rows in the same aligned format the paper's
// tables use.  Besides the stdout table, a report can serialize itself as
// CSV and JSONL — either explicitly (save_csv/save_jsonl) or driven by the
// UNIMEM_CSV / UNIMEM_JSONL environment variables at print() time.  Each
// names a file prefix:
//
//   UNIMEM_CSV=path/prefix     <prefix>-<title-slug>.csv
//   UNIMEM_JSONL=path/prefix   <prefix>-<title-slug>.jsonl
//
// An empty value names no file: print() says so on stderr and writes
// nothing for that variable.  File names are derived per report from
// the title slug (made unique within the process), so several reports in
// one binary never clobber each other's files.  Concurrent *processes*
// printing identically-titled reports still share a path — give each run
// its own prefix (e.g. UNIMEM_CSV=out/run-$$) to separate them.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"

namespace unimem::exp {

using unimem::json_escape;

class Report {
 public:
  explicit Report(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> cols) { header_ = std::move(cols); }
  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Format helper: fixed-precision double.
  static std::string num(double v, int prec = 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
  }

  /// Aligned table to `out`, plus any UNIMEM_CSV / UNIMEM_JSONL files.
  void print(std::FILE* out = stdout) const;

  /// Filesystem-safe slug of the title, unique within this process (a
  /// repeated title gets a "-2", "-3", ... suffix on first use).
  std::string slug() const;

  /// Whole table as CSV (header + rows, comma-separated).
  std::string to_csv() const;
  /// One JSON object per row, keyed by header column names.
  std::string to_jsonl() const;

  /// Explicit file output (throws std::runtime_error on open failure).
  void save_csv(const std::string& path) const;
  void save_jsonl(const std::string& path) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  mutable std::string slug_;  ///< assigned on first slug() call
};

}  // namespace unimem::exp
