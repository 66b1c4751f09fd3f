// JSON string escaping shared by every JSON writer: JSONL result rows,
// exp::Report, the metrics snapshot and the Chrome trace export.
// parse_jsonl_line (sweep/result_store.cc) inverts exactly this output.
#pragma once

#include <cstdio>
#include <string>

namespace unimem {

/// Escapes quotes, backslash, \n and \t by name and every other control
/// character as \u00XX.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace unimem
