#include "experiments/report.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>

namespace unimem::exp {

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("Report: cannot open " + path);
  std::fputs(content.c_str(), f);
  std::fclose(f);
}

}  // namespace

std::string Report::slug() const {
  if (!slug_.empty()) return slug_;
  std::string s;
  bool dash = false;
  for (char c : title_) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      dash = false;
    } else if (!s.empty() && !dash) {
      s += '-';
      dash = true;
    }
    if (s.size() >= 48) break;
  }
  while (!s.empty() && s.back() == '-') s.pop_back();
  if (s.empty()) s = "report";

  // Per-process uniqueness: a second report with the same title gets a
  // numeric suffix instead of silently overwriting the first one's files.
  static std::mutex mu;
  static std::set<std::string> used;
  std::lock_guard<std::mutex> lk(mu);
  std::string candidate = s;
  for (int n = 2; used.count(candidate) != 0; ++n)
    candidate = s + "-" + std::to_string(n);
  used.insert(candidate);
  slug_ = candidate;
  return slug_;
}

std::string Report::to_csv() const {
  std::string out;
  auto row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ',';
      out += cells[i];
    }
    out += '\n';
  };
  row(header_);
  for (const auto& r : rows_) row(r);
  return out;
}

std::string Report::to_jsonl() const {
  std::string out;
  for (const auto& r : rows_) {
    out += "{\"report\":\"" + json_escape(title_) + "\"";
    for (std::size_t i = 0; i < r.size(); ++i) {
      const std::string key =
          i < header_.size() ? header_[i] : "col" + std::to_string(i);
      out += ",\"" + json_escape(key) + "\":\"" + json_escape(r[i]) + "\"";
    }
    out += "}\n";
  }
  return out;
}

void Report::save_csv(const std::string& path) const {
  write_file(path, to_csv());
}

void Report::save_jsonl(const std::string& path) const {
  write_file(path, to_jsonl());
}

void Report::print(std::FILE* out) const {
  std::fprintf(out, "\n== %s ==\n", title_.c_str());

  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size() && i < width.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i)
      std::fprintf(out, "%-*s  ", static_cast<int>(i < width.size() ? width[i] : 8),
                   row[i].c_str());
    std::fputc('\n', out);
  };
  print_row(header_);
  for (std::size_t i = 0; i < width.size(); ++i)
    std::fprintf(out, "%s  ", std::string(width[i], '-').c_str());
  std::fputc('\n', out);
  for (const auto& r : rows_) print_row(r);

  // Environment-driven side outputs are best-effort: an unwritable
  // prefix must not abort a harness that already printed its table.
  auto side_output = [&](const char* var, const char* ext,
                         void (Report::*save)(const std::string&) const) {
    const char* prefix = std::getenv(var);
    if (prefix == nullptr) return;
    if (prefix[0] == '\0') {
      std::fprintf(stderr, "Report: %s is empty; set it to a file prefix\n",
                   var);
      return;
    }
    try {
      (this->*save)(std::string(prefix) + "-" + slug() + ext);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "Report: %s: %s\n", var, e.what());
    }
  };
  side_output("UNIMEM_CSV", ".csv", &Report::save_csv);
  side_output("UNIMEM_JSONL", ".jsonl", &Report::save_jsonl);
}

}  // namespace unimem::exp
