#include "trace/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "common/json.h"

namespace unimem::trace {

namespace {

// ---- binary encoding helpers (little-endian, explicit widths) -------------

void put_u32(std::FILE* f, std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  std::fwrite(b, 1, 4, f);
}

void put_u64(std::FILE* f, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  std::fwrite(b, 1, 8, f);
}

void put_f64(std::FILE* f, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(f, bits);
}

bool get_u32(std::FILE* f, std::uint32_t* v) {
  unsigned char b[4];
  if (std::fread(b, 1, 4, f) != 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return true;
}

bool get_u64(std::FILE* f, std::uint64_t* v) {
  unsigned char b[8];
  if (std::fread(b, 1, 8, f) != 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return true;
}

bool get_f64(std::FILE* f, double* v) {
  std::uint64_t bits;
  if (!get_u64(f, &bits)) return false;
  std::memcpy(v, &bits, 8);
  return true;
}

constexpr char kMagic[8] = {'U', 'N', 'I', 'M', 'T', 'R', 'C', '1'};
// A declared length or count is only a claim until the bytes arrive: the
// reader grows strings a piece at a time and reserves at most this many
// table entries up front, so a short input cannot make it commit memory
// its contents could not fill.
constexpr std::size_t kReadPieceBytes = 64 * 1024;
constexpr std::uint64_t kMaxReserve = 1024;

/// Read `len` bytes into *s, kReadPieceBytes at a time.
bool get_bytes(std::FILE* f, std::uint32_t len, std::string* s) {
  s->clear();
  while (s->size() < len) {
    const std::size_t at = s->size();
    const std::size_t n = std::min<std::size_t>(kReadPieceBytes, len - at);
    s->resize(at + n);
    if (std::fread(s->data() + at, 1, n, f) != n) return false;
  }
  return true;
}

std::size_t capped_reserve(std::uint64_t count) {
  return static_cast<std::size_t>(std::min(count, kMaxReserve));
}

struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

TraceData::TraceData() {
  strings.push_back("");          // index 0: the absent string
  tracks.push_back({"untracked", 1 << 20});
}

std::uint32_t TraceData::intern(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  for (std::uint32_t i = 0; i < strings.size(); ++i)
    if (strings[i] == s) return i;
  strings.emplace_back(s);
  return static_cast<std::uint32_t>(strings.size() - 1);
}

const std::string& TraceData::str(std::uint32_t idx) const {
  return idx < strings.size() ? strings[idx] : strings[0];
}

void merge_into(TraceData* base, const TraceData& shard,
                const std::string& track_prefix) {
  // Wall alignment: shift the shard by the epoch delta, clamped at zero
  // so a shard whose recorder started before base's keeps its origin
  // rather than underflowing.
  std::uint64_t shift_ns = 0;
  if (base->epoch_realtime_ns != 0 && shard.epoch_realtime_ns != 0 &&
      shard.epoch_realtime_ns > base->epoch_realtime_ns)
    shift_ns = shard.epoch_realtime_ns - base->epoch_realtime_ns;

  std::vector<std::uint32_t> smap(shard.strings.size(), 0);
  for (std::uint32_t i = 1; i < shard.strings.size(); ++i)
    smap[i] = base->intern(shard.strings[i].c_str());

  std::vector<std::uint32_t> tmap(shard.tracks.size(), 0);
  for (std::uint32_t i = 1; i < shard.tracks.size(); ++i) {
    TraceTrack t = shard.tracks[i];
    t.name = track_prefix + t.name;
    base->tracks.push_back(std::move(t));
    tmap[i] = static_cast<std::uint32_t>(base->tracks.size() - 1);
  }

  base->events.reserve(base->events.size() + shard.events.size());
  for (TraceEventRow row : shard.events) {
    row.cat = row.cat < smap.size() ? smap[row.cat] : 0;
    row.name = row.name < smap.size() ? smap[row.name] : 0;
    row.arg_name0 = row.arg_name0 < smap.size() ? smap[row.arg_name0] : 0;
    row.arg_name1 = row.arg_name1 < smap.size() ? smap[row.arg_name1] : 0;
    row.track = row.track < tmap.size() ? tmap[row.track] : 0;
    row.wall_ns += shift_ns;
    base->events.push_back(row);
  }
  base->dropped += shard.dropped;
}

void sort_events(TraceData* data) {
  std::stable_sort(data->events.begin(), data->events.end(),
                   [](const TraceEventRow& a, const TraceEventRow& b) {
                     return a.wall_ns < b.wall_ns;
                   });
}

bool write_chrome_json(const TraceData& data, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  FileCloser closer{f};

  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };

  // Metadata: two processes (clock domains), each with one named thread
  // per track.  tid = track index + 1 (Perfetto dislikes tid 0).
  const struct {
    int pid;
    const char* name;
  } clocks[] = {{1, "virtual time"}, {2, "wall time"}};
  for (const auto& clk : clocks) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 clk.pid, clk.name);
    for (std::uint32_t t = 0; t < data.tracks.size(); ++t) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
                   "\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"%s\"}}",
                   clk.pid, t + 1, json_escape(data.tracks[t].name).c_str());
      sep();
      std::fprintf(f,
                   "{\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
                   "\"name\":\"thread_sort_index\","
                   "\"args\":{\"sort_index\":%d}}",
                   clk.pid, t + 1, data.tracks[t].sort_hint);
    }
  }

  auto emit_one = [&](const TraceEventRow& e, int pid, double ts_us) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"%c\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                 "\"cat\":\"%s\",\"name\":\"%s\"",
                 e.phase, pid, e.track + 1, ts_us,
                 json_escape(data.str(e.cat)).c_str(),
                 json_escape(data.str(e.name)).c_str());
    const bool has_args = e.arg_name0 != 0 || e.arg_name1 != 0;
    if (has_args) {
      std::fprintf(f, ",\"args\":{");
      bool afirst = true;
      if (e.arg_name0 != 0) {
        std::fprintf(f, "\"%s\":%" PRIu64,
                     json_escape(data.str(e.arg_name0)).c_str(), e.arg0);
        afirst = false;
      }
      if (e.arg_name1 != 0)
        std::fprintf(f, "%s\"%s\":%" PRIu64, afirst ? "" : ",",
                     json_escape(data.str(e.arg_name1)).c_str(), e.arg1);
      std::fprintf(f, "}");
    }
    if (e.phase == 'i') std::fprintf(f, ",\"s\":\"t\"");
    std::fprintf(f, "}");
  };

  for (const TraceEventRow& e : data.events) {
    if (e.vt >= 0.0) emit_one(e, 1, e.vt * 1e6);
    emit_one(e, 2, static_cast<double>(e.wall_ns) / 1e3);
  }

  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ms\","
               "\"otherData\":{\"format\":\"unimem-trace\","
               "\"epoch_realtime_ns\":%" PRIu64 ",\"dropped\":%" PRIu64 "}}\n",
               data.epoch_realtime_ns, data.dropped);
  return std::ferror(f) == 0;
}

bool write_binary(const TraceData& data, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  FileCloser closer{f};

  std::fwrite(kMagic, 1, sizeof kMagic, f);
  put_u64(f, data.epoch_realtime_ns);
  put_u64(f, data.dropped);

  put_u32(f, static_cast<std::uint32_t>(data.strings.size()));
  for (const std::string& s : data.strings) {
    put_u32(f, static_cast<std::uint32_t>(s.size()));
    std::fwrite(s.data(), 1, s.size(), f);
  }

  put_u32(f, static_cast<std::uint32_t>(data.tracks.size()));
  for (const TraceTrack& t : data.tracks) {
    put_u32(f, static_cast<std::uint32_t>(t.name.size()));
    std::fwrite(t.name.data(), 1, t.name.size(), f);
    put_u32(f, static_cast<std::uint32_t>(t.sort_hint));
  }

  put_u64(f, static_cast<std::uint64_t>(data.events.size()));
  for (const TraceEventRow& e : data.events) {
    put_u32(f, e.cat);
    put_u32(f, e.name);
    put_u32(f, e.arg_name0);
    put_u32(f, e.arg_name1);
    put_u64(f, e.arg0);
    put_u64(f, e.arg1);
    put_f64(f, e.vt);
    put_u64(f, e.wall_ns);
    put_u32(f, e.track);
    std::fputc(e.phase, f);
  }
  return std::ferror(f) == 0;
}

bool read_binary(const std::string& path, TraceData* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  FileCloser closer{f};

  char magic[8];
  if (std::fread(magic, 1, sizeof magic, f) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    return false;

  TraceData data;
  data.strings.clear();
  data.tracks.clear();
  if (!get_u64(f, &data.epoch_realtime_ns)) return false;
  if (!get_u64(f, &data.dropped)) return false;

  std::uint32_t nstr = 0;
  if (!get_u32(f, &nstr) || nstr == 0) return false;
  data.strings.reserve(capped_reserve(nstr));
  for (std::uint32_t i = 0; i < nstr; ++i) {
    std::uint32_t len = 0;
    std::string s;
    if (!get_u32(f, &len) || !get_bytes(f, len, &s)) return false;
    data.strings.push_back(std::move(s));
  }

  std::uint32_t ntrk = 0;
  if (!get_u32(f, &ntrk) || ntrk == 0) return false;
  data.tracks.reserve(capped_reserve(ntrk));
  for (std::uint32_t i = 0; i < ntrk; ++i) {
    std::uint32_t len = 0;
    TraceTrack t;
    if (!get_u32(f, &len) || !get_bytes(f, len, &t.name)) return false;
    std::uint32_t hint = 0;
    if (!get_u32(f, &hint)) return false;
    t.sort_hint = static_cast<int>(hint);
    data.tracks.push_back(std::move(t));
  }

  std::uint64_t nev = 0;
  if (!get_u64(f, &nev)) return false;
  data.events.reserve(capped_reserve(nev));
  for (std::uint64_t i = 0; i < nev; ++i) {
    TraceEventRow e;
    if (!get_u32(f, &e.cat) || !get_u32(f, &e.name) ||
        !get_u32(f, &e.arg_name0) || !get_u32(f, &e.arg_name1) ||
        !get_u64(f, &e.arg0) || !get_u64(f, &e.arg1) || !get_f64(f, &e.vt) ||
        !get_u64(f, &e.wall_ns) || !get_u32(f, &e.track))
      return false;
    const int ph = std::fgetc(f);
    if (ph == EOF) return false;
    e.phase = static_cast<char>(ph);
    data.events.push_back(e);
  }
  *out = std::move(data);
  return true;
}

std::vector<TraceSummaryRow> summarize(const TraceData& data) {
  struct Acc {
    std::uint64_t count = 0;
    double wall_total_s = 0.0;
    double vt_total_s = 0.0;
    std::uint64_t truncated = 0;
  };
  // (cat idx, name idx) -> accumulator; per-track stacks match B/E pairs.
  std::map<std::pair<std::uint32_t, std::uint32_t>, Acc> acc;
  std::map<std::uint32_t, std::vector<TraceEventRow>> open;  // track -> stack

  std::vector<TraceEventRow> events = data.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEventRow& a, const TraceEventRow& b) {
                     return a.wall_ns < b.wall_ns;
                   });

  for (const TraceEventRow& e : events) {
    const auto key = std::make_pair(e.cat, e.name);
    switch (e.phase) {
      case 'B':
        open[e.track].push_back(e);
        break;
      case 'E': {
        auto& stack = open[e.track];
        // Unwind to the matching begin; tolerate torn traces where the
        // open was dropped by ring overflow.  Each non-matching BEGIN the
        // unwind discards is a span whose END never arrived — count it as
        // truncated under its own (cat, name) instead of losing it.
        while (!stack.empty()) {
          const TraceEventRow b = stack.back();
          stack.pop_back();
          if (b.cat == e.cat && b.name == e.name) {
            Acc& a = acc[key];
            ++a.count;
            a.wall_total_s +=
                static_cast<double>(e.wall_ns - b.wall_ns) / 1e9;
            if (b.vt >= 0.0 && e.vt >= 0.0) a.vt_total_s += e.vt - b.vt;
            break;
          }
          ++acc[std::make_pair(b.cat, b.name)].truncated;
        }
        break;
      }
      case 'i':
      case 'C':
        ++acc[key].count;
        break;
      default:
        break;
    }
  }

  // Whatever is still open after the last event is torn too: the writer
  // never emitted the END (crash mid-span, or the final span of a spill
  // cut off at the iteration the trace stopped).
  for (const auto& kv : open)
    for (const TraceEventRow& b : kv.second)
      ++acc[std::make_pair(b.cat, b.name)].truncated;

  std::vector<TraceSummaryRow> rows;
  rows.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    TraceSummaryRow r;
    r.cat = data.str(key.first);
    r.name = data.str(key.second);
    r.count = a.count;
    r.wall_total_s = a.wall_total_s;
    r.vt_total_s = a.vt_total_s;
    r.truncated = a.truncated;
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const TraceSummaryRow& a, const TraceSummaryRow& b) {
              if (a.cat != b.cat) return a.cat < b.cat;
              return a.name < b.name;
            });
  return rows;
}

}  // namespace unimem::trace
