// Drained-trace container and exporters.
//
// TraceData is the post-drain form of a recording: strings interned into
// a table, tracks resolved, events in fixed-width rows.  Two encodings:
//
//   * Chrome trace-event JSON (write_chrome_json) — loads directly in
//     Perfetto / chrome://tracing.  Each recording renders as TWO trace
//     processes: pid 1 is the virtual-time clock (ts = virtual seconds as
//     microseconds; events without a virtual stamp are omitted) and pid 2
//     is the wall clock (ts = wall ns / 1000).  One thread per track in
//     each process, named from the track table.
//
//   * Compact binary ("UNIMTRC1", write_binary/read_binary) — the spill
//     format task children write and `tools/unimem_trace` converts.
//     Little-endian, string-table-relative, ~34 bytes/event.
//
// merge_into stitches shards from different processes into one timeline:
// string/track ids are remapped, and each shard's wall clock is shifted
// by the difference of the CLOCK_REALTIME epochs the recorders captured
// at start() (clamped at zero — a shard that started earlier than the
// base keeps its origin).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace unimem::trace {

/// One drained event.  Indices point into TraceData::strings; an index of
/// 0 (the interned empty string) means "absent".
struct TraceEventRow {
  std::uint32_t cat = 0;
  std::uint32_t name = 0;
  std::uint32_t arg_name0 = 0;
  std::uint32_t arg_name1 = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  double vt = -1.0;           ///< virtual seconds; < 0 = no virtual stamp
  std::uint64_t wall_ns = 0;  ///< ns since the recording's wall origin
  std::uint32_t track = 0;
  char phase = 'i';  ///< 'B' | 'E' | 'i' | 'C'
};

struct TraceTrack {
  std::string name;
  int sort_hint = 0;
};

struct TraceData {
  /// CLOCK_REALTIME ns at recorder start; aligns wall clocks across
  /// processes when merging shards.
  std::uint64_t epoch_realtime_ns = 0;
  /// Interned strings; index 0 is always "".
  std::vector<std::string> strings;
  /// Track table; index 0 is the fallback "untracked" row.
  std::vector<TraceTrack> tracks;
  std::vector<TraceEventRow> events;
  /// Events lost to full rings across the recording.
  std::uint64_t dropped = 0;

  TraceData();

  /// Intern `s`, returning its index (0 for empty / null).
  std::uint32_t intern(const char* s);

  /// Resolve a string index (out-of-range → "").
  const std::string& str(std::uint32_t idx) const;

  bool empty() const { return events.empty(); }
};

/// Append `shard`'s tracks and events to `base`, remapping ids and
/// aligning the shard's wall clock to base's epoch.  `track_prefix`
/// (e.g. "task-3/") namespaces the shard's track names.
void merge_into(TraceData* base, const TraceData& shard,
                const std::string& track_prefix = "");

/// Sort events by wall time (stable), as exporters expect.
void sort_events(TraceData* data);

/// Chrome trace-event JSON; returns false on I/O error.
bool write_chrome_json(const TraceData& data, const std::string& path);

/// Compact binary spill; returns false on I/O error.
bool write_binary(const TraceData& data, const std::string& path);

/// Parse a binary spill.  Returns false (and leaves *out unspecified) on
/// read or format error, including a length or count the rest of the
/// input is too short to hold.  `path` need not be seekable (a pipe or
/// FIFO works), and memory grows only with the bytes actually read.
bool read_binary(const std::string& path, TraceData* out);

/// Per-category/name rollup used by `unimem_trace --summary`: span pairs
/// matched per track (B/E nesting), instants and counters tallied.
struct TraceSummaryRow {
  std::string cat;
  std::string name;
  std::uint64_t count = 0;
  double wall_total_s = 0.0;  ///< summed span durations (wall clock)
  double vt_total_s = 0.0;    ///< summed span durations (virtual clock)
  /// Torn spans: BEGINs whose END never arrived (writer died mid-span or
  /// the ring dropped the END).  Their durations are unknowable, so they
  /// are excluded from count/totals and tallied here instead.
  std::uint64_t truncated = 0;
};

std::vector<TraceSummaryRow> summarize(const TraceData& data);

}  // namespace unimem::trace
