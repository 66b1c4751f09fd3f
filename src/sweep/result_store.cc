#include "sweep/result_store.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace unimem::sweep {

using exp::json_escape;

namespace {

std::string num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

SweepResultStore::~SweepResultStore() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() call is the way
    // to observe CSV write failures.
  }
}

void SweepResultStore::stream_jsonl(const std::string& path) {
  jsonl_ = std::fopen(path.c_str(), "w");
  if (jsonl_ == nullptr)
    throw std::runtime_error("SweepResultStore: cannot open " + path);
}

std::string SweepResultStore::jsonl_line(const SweepRow& row) {
  std::string out;
  auto str_field = [&](const char* key, const std::string& v) {
    out += ",\"";
    out += key;
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  };
  auto raw_field = [&](const char* key, const std::string& v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += v;
  };
  out += "{\"index\":";
  out += std::to_string(row.index);
  str_field("label", row.label);
  out += ",\"axis\":{";
  bool first = true;
  for (const auto& [k, v] : row.axis) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
  raw_field("ok", row.ok ? "true" : "false");
  if (!row.ok) str_field("error", row.error);
  raw_field("time_s", num17(row.result.time_s));
  raw_field("checksum", num17(row.result.checksum));
  if (row.baseline_time_s > 0) {
    raw_field("baseline_time_s", num17(row.baseline_time_s));
    raw_field("normalized", num17(row.normalized));
  }
  raw_field("migrations", std::to_string(row.result.total_migrations));
  raw_field("bytes_moved", std::to_string(row.result.total_bytes_moved));
  raw_field("overhead_pct", num17(row.result.mean_overhead_percent));
  raw_field("overlap_pct", num17(row.result.mean_overlap_percent));
  out += '}';
  return out;
}

void SweepResultStore::add(const SweepRow& row) {
  rows_.push_back(row);
  if (jsonl_ != nullptr) {
    const std::string line = jsonl_line(row);
    std::fputs(line.c_str(), jsonl_);
    std::fputc('\n', jsonl_);
    std::fflush(jsonl_);
  }
}

void SweepResultStore::finish() {
  if (finished_) return;
  finished_ = true;
  std::sort(rows_.begin(), rows_.end(),
            [](const SweepRow& a, const SweepRow& b) { return a.index < b.index; });
  if (jsonl_ != nullptr) {
    std::fclose(jsonl_);
    jsonl_ = nullptr;
  }
  if (!jsonl_path_.empty()) {
    std::FILE* f = std::fopen(jsonl_path_.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("SweepResultStore: cannot open " + jsonl_path_);
    for (const SweepRow& r : rows_) {
      const std::string line = jsonl_line(r);
      std::fputs(line.c_str(), f);
      std::fputc('\n', f);
    }
    std::fclose(f);
  }
  if (csv_path_.empty()) return;
  std::FILE* f = std::fopen(csv_path_.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("SweepResultStore: cannot open " + csv_path_);
  std::fputs(
      "index,label,ok,error,time_s,baseline_time_s,normalized,checksum,"
      "migrations,bytes_moved,overhead_pct,overlap_pct\n",
      f);
  // Keep every field a single CSV cell: labels come from explicit-point
  // specs (free text, may carry commas), errors from exception messages.
  auto csv_cell = [](std::string v) {
    std::replace(v.begin(), v.end(), ',', ';');
    std::replace(v.begin(), v.end(), '\n', ' ');
    return v;
  };
  for (const SweepRow& r : rows_) {
    std::fprintf(f, "%zu,%s,%d,%s,%s,%s,%s,%s,%llu,%llu,%s,%s\n", r.index,
                 csv_cell(r.label).c_str(), r.ok ? 1 : 0,
                 csv_cell(r.error).c_str(),
                 num17(r.result.time_s).c_str(),
                 num17(r.baseline_time_s).c_str(), num17(r.normalized).c_str(),
                 num17(r.result.checksum).c_str(),
                 static_cast<unsigned long long>(r.result.total_migrations),
                 static_cast<unsigned long long>(r.result.total_bytes_moved),
                 num17(r.result.mean_overhead_percent).c_str(),
                 num17(r.result.mean_overlap_percent).c_str());
  }
  std::fclose(f);
}

exp::Report SweepResultStore::report(const std::string& title) const {
  exp::Report rep(title);
  rep.set_header({"point", "label", "time (ms)", "normalized", "migrations",
                  "status"});
  std::vector<SweepRow> sorted = rows_;
  std::sort(sorted.begin(), sorted.end(),
            [](const SweepRow& a, const SweepRow& b) { return a.index < b.index; });
  for (const SweepRow& r : sorted) {
    rep.add_row({std::to_string(r.index), r.label,
                 exp::Report::num(r.result.time_s * 1e3, 3),
                 r.baseline_time_s > 0 ? exp::Report::num(r.normalized, 3) : "-",
                 std::to_string(r.result.total_migrations),
                 r.ok ? "ok" : ("FAILED: " + r.error)});
  }
  return rep;
}

namespace {

/// Strict sequential cursor over one jsonl_line()-formatted line.  The
/// store always emits keys in a fixed order with no whitespace, so the
/// parser can demand the exact byte shape and fail loudly on anything
/// else (hand-edited or foreign JSON is not merge input).
class LineCursor {
 public:
  explicit LineCursor(const std::string& line) : s_(line) {}

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void expect(const char* lit) {
    if (!literal(lit)) fail(std::string("expected '") + lit + "'");
  }

  /// A JSON string body up to the closing quote, json_escape inverted.
  std::string string_body() {
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          for (std::size_t i = 0; i < 4; ++i)
            if (std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])) == 0)
              fail("non-hex \\u escape");
          out += static_cast<char>(
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          break;
        }
        default: fail("unknown escape");
      }
    }
    expect("\"");
    return out;
  }

  /// The writer's own %.17g form only: strtod alone would also take
  /// leading whitespace, hex floats and other spellings jsonl_line never
  /// writes.
  double number() {
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + pos_, &end);
    const std::size_t len = static_cast<std::size_t>(end - s_.c_str()) - pos_;
    if (len == 0) fail("expected number");
    if (s_.compare(pos_, len, num17(v)) != 0) fail("non-canonical number");
    pos_ += len;
    return v;
  }

  /// Digits only: strtoull alone would also take leading whitespace and
  /// a sign (wrapping "-1" to ULLONG_MAX) and clamp overflow silently.
  unsigned long long unsigned_int() {
    if (pos_ >= s_.size() ||
        std::isdigit(static_cast<unsigned char>(s_[pos_])) == 0)
      fail("expected integer");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s_.c_str() + pos_, &end, 10);
    if (errno == ERANGE) fail("integer out of range");
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return v;
  }

  bool done() const { return pos_ == s_.size(); }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("parse_jsonl_line: " + why + " at byte " +
                             std::to_string(pos_) + " of: " + s_);
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

SweepRow parse_jsonl_line(const std::string& line) {
  LineCursor c(line);
  SweepRow row;
  c.expect("{\"index\":");
  row.index = static_cast<std::size_t>(c.unsigned_int());
  c.expect(",\"label\":\"");
  row.label = c.string_body();
  c.expect(",\"axis\":{");
  while (!c.literal("}")) {
    if (!row.axis.empty()) c.expect(",");
    c.expect("\"");
    const std::string key = c.string_body();
    c.expect(":\"");
    row.axis[key] = c.string_body();
  }
  c.expect(",\"ok\":");
  row.ok = c.literal("true");
  if (!row.ok) c.expect("false");
  if (c.literal(",\"error\":\"")) row.error = c.string_body();
  c.expect(",\"time_s\":");
  row.result.time_s = c.number();
  c.expect(",\"checksum\":");
  row.result.checksum = c.number();
  if (c.literal(",\"baseline_time_s\":")) {
    row.baseline_time_s = c.number();
    c.expect(",\"normalized\":");
    row.normalized = c.number();
  }
  c.expect(",\"migrations\":");
  row.result.total_migrations = c.unsigned_int();
  c.expect(",\"bytes_moved\":");
  row.result.total_bytes_moved = c.unsigned_int();
  c.expect(",\"overhead_pct\":");
  row.result.mean_overhead_percent = c.number();
  c.expect(",\"overlap_pct\":");
  row.result.mean_overlap_percent = c.number();
  c.expect("}");
  if (!c.done()) c.fail("trailing bytes");
  return row;
}

std::vector<SweepRow> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("read_jsonl: cannot open " + path);
  std::vector<SweepRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(parse_jsonl_line(line));
  }
  // getline ends on both EOF and stream errors; only EOF means the whole
  // file was read — a read error would otherwise truncate the tail
  // silently.
  if (in.bad()) throw std::runtime_error("read_jsonl: read error on " + path);
  return rows;
}

std::vector<SweepRow> read_jsonl_tolerant(const std::string& path,
                                          std::size_t* dropped) {
  std::ifstream in(path);
  if (!in.good())
    throw std::runtime_error("read_jsonl_tolerant: cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  if (in.bad())
    throw std::runtime_error("read_jsonl_tolerant: read error on " + path);
  if (dropped != nullptr) *dropped = 0;

  std::vector<SweepRow> rows;
  std::map<std::size_t, std::size_t> pos_of;  // index -> slot in rows
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SweepRow row;
    try {
      row = parse_jsonl_line(lines[i]);
    } catch (const std::exception&) {
      // Only the FINAL line may be malformed: that is the torn tail of a
      // writer killed mid-fputs, and dropping it loses one re-runnable
      // point.  A malformed line with complete lines after it is real
      // corruption and still throws.
      if (i + 1 == lines.size()) {
        if (dropped != nullptr) *dropped = 1;
        break;
      }
      throw;
    }
    const auto it = pos_of.find(row.index);
    if (it != pos_of.end()) {
      // Later duplicates win: a resumed campaign appends fresh rows for
      // points whose earlier rows were failures.
      rows[it->second] = row;
    } else {
      pos_of[row.index] = rows.size();
      rows.push_back(row);
    }
  }
  return rows;
}

std::vector<SweepRow> merge_shards(const std::vector<std::string>& paths) {
  std::vector<SweepRow> rows;
  for (const std::string& p : paths) {
    std::vector<SweepRow> shard = read_jsonl(p);
    rows.insert(rows.end(), std::make_move_iterator(shard.begin()),
                std::make_move_iterator(shard.end()));
  }
  std::sort(rows.begin(), rows.end(),
            [](const SweepRow& a, const SweepRow& b) { return a.index < b.index; });
  for (std::size_t i = 1; i < rows.size(); ++i)
    if (rows[i].index == rows[i - 1].index)
      throw std::runtime_error(
          "merge_shards: duplicate point index " +
          std::to_string(rows[i].index) +
          " (inputs are overlapping shard runs, not a partition)");
  return rows;
}

const SweepRow* find_row(const std::vector<SweepRow>& rows,
                         const std::map<std::string, std::string>& where) {
  for (const SweepRow& r : rows) {
    bool match = true;
    for (const auto& [k, v] : where) {
      auto it = r.axis.find(k);
      if (it == r.axis.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return &r;
  }
  return nullptr;
}

}  // namespace unimem::sweep
