// Low-overhead structured tracing (heapprofd's always-on framing from
// SNIPPETS.md #1: a cheap event stream mined out of band, never a
// perturbation of the thing being measured).
//
// Model: typed span/instant/counter events on per-thread tracks.  Every
// event carries a wall-clock timestamp (steady ns since recorder start)
// and, when the emitter lives inside a simulated World, the virtual time
// too — exporters render both clocks (export.h).  Event and category
// names must be string literals (static storage): the hot path stores the
// pointers and interning happens once, at drain time.
//
// Cost contract (BM_TraceEmitProduction in bench/micro_components.cc and
// `trace_emit_overhead` in BENCH_components.json):
//   * compiled out       — define UNIMEM_TRACE_DISABLED: the macros expand
//     to nothing and no trace symbol is referenced;
//   * runtime-disabled   — one relaxed atomic load + branch (<= 1 ns);
//   * enabled            — raw TSC-class timestamp + lock-free SPSC ring
//     push (<= 50 ns), no allocation, no syscall, no lock.  clock_gettime
//     would alone blow the budget on VM-class hosts, so events carry raw
//     ticks and the drain converts them to ns against steady_clock.
//
// Concurrency: each thread owns the producer side of its own ring; the
// drainer (flush/stop, any single thread) owns every consumer side.  A
// full ring drops the NEW event and counts it (TraceData::dropped) — a
// tracer that blocks or reallocates on overflow would perturb exactly the
// schedules it exists to observe.  Virtual time is never advanced by
// tracing, so traced and untraced runs produce bit-identical artifacts
// (asserted by the trace_golden ctest).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/export.h"

namespace unimem::trace {

enum class Phase : char {
  kBegin = 'B',    ///< span open (matched by kEnd on the same track)
  kEnd = 'E',      ///< span close
  kInstant = 'i',  ///< point event
  kCounter = 'C',  ///< sampled counter value (arg0)
};

/// One buffered event.  POD on purpose: the ring copies it by value and
/// the name/category/arg-name pointers must be string literals.
struct Event {
  const char* cat = nullptr;
  const char* name = nullptr;
  const char* arg_name0 = nullptr;
  const char* arg_name1 = nullptr;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  double vt = -1.0;         ///< virtual seconds; < 0 = no virtual clock
  std::uint64_t ticks = 0;  ///< raw timestamp (TSC-class counter), stamped
                            ///< by emit; converted to wall ns at drain
  std::uint32_t track = 0;  ///< stamped by emit
  Phase phase = Phase::kInstant;
};

/// Single-producer single-consumer lock-free ring.  The producer is the
/// owning thread (push), the consumer is whoever drains the recorder
/// (pop_into) — TSan-clean through the usual acquire/release pairing.
/// Indices grow monotonically and are masked into the slot array, so
/// wraparound is exercised continuously, not as an edge case.
class Ring {
 public:
  /// `capacity` is rounded up to a power of two, minimum 8.
  explicit Ring(std::size_t capacity);

  /// Producer side.  False (and a dropped count) when the ring is full.
  bool push(const Event& e);

  /// Consumer side: move every currently-visible event into `out`,
  /// returning how many were taken.
  std::size_t pop_into(std::vector<Event>* out);

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

  /// Owner-side farewell: the owning thread is exiting and will never
  /// push again.  The release store pairs with the drainer's retired()
  /// acquire, so a drain that observes retirement sees every push —
  /// use_count() alone cannot give that ordering.
  void retire() { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }

 private:
  std::vector<Event> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};     ///< next write (producer)
  std::atomic<std::uint64_t> tail_{0};     ///< next read (consumer)
  std::atomic<std::uint64_t> dropped_{0};  ///< producer-side overflow count
  std::atomic<bool> retired_{false};       ///< owner thread exited
};

/// Fast-path gate: a relaxed load of this flag, inlined at every macro
/// site, is the whole cost of disabled-at-runtime tracing.
extern std::atomic<bool> g_trace_on;
inline bool on() { return g_trace_on.load(std::memory_order_relaxed); }

/// Process-wide recorder: a registry of per-thread rings plus the track
/// table.  Threads register lazily on first emit (or eagerly through
/// set_thread_track); start/stop/flush are the drain side.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Enable tracing with `buf_events` ring slots per thread (0 = default
  /// 16Ki).  Restarts cleanly when already active: prior buffered events,
  /// tracks, and thread registrations are discarded — which is exactly
  /// what a forked task child needs to shed its parent's state.
  void start(std::size_t buf_events = 0);

  /// True between start() and stop().
  bool active() const { return on(); }

  /// Ring slots per thread of the most recent start().  Call from the
  /// thread that started the recorder.
  std::size_t buf_events() const { return buf_events_; }

  /// Drain every ring into the accumulated TraceData (safe while
  /// producers keep emitting; call from one thread at a time).
  void flush();

  /// Disable, drain the tail, and return everything recorded since
  /// start().  The recorder is reusable afterwards.
  TraceData stop();

  /// Name the calling thread's track ("rank 0", "sweep-worker 3", ...).
  /// Registers the thread if needed; renames its track otherwise.
  /// `sort_hint` orders tracks in the exported timeline (lower = higher).
  void set_thread_track(const std::string& name, int sort_hint = 0);

  /// Append `e` (stamped with wall time + track) to the calling thread's
  /// ring.  No-op when inactive.
  void emit(Event e);

  /// Epoch (CLOCK_REALTIME ns) of the most recent start() — lets a merge
  /// align wall clocks across processes (export.h merge_into).
  std::uint64_t epoch_realtime_ns() const { return epoch_realtime_ns_; }

 private:
  TraceRecorder() = default;

  /// Per-thread view, cached in a thread_local and revalidated against
  /// generation_ so a restart (or fork-child restart) re-registers.  The
  /// destructor retires the ring, letting flush() reap it safely once
  /// the owning thread is gone.
  struct ThreadState {
    std::uint64_t generation = ~std::uint64_t{0};
    std::shared_ptr<Ring> ring;
    std::uint32_t track = 0;

    ~ThreadState() {
      if (ring != nullptr) ring->retire();
    }
  };

  struct RegisteredRing {
    std::shared_ptr<Ring> ring;
  };

  static ThreadState& thread_state();

  /// Slow path: (re-)register the calling thread under the current
  /// generation, naming its track `default_name` if it has none yet.
  void register_thread(ThreadState* ts, const std::string& default_name,
                       int sort_hint);

  std::atomic<std::uint64_t> generation_{0};

  std::mutex mu_;  ///< guards rings_, data_, buf_events_
  std::vector<RegisteredRing> rings_;
  TraceData data_;  ///< accumulates drained events + the track table
  std::size_t buf_events_ = 0;
  std::uint64_t epoch_realtime_ns_ = 0;
  std::uint64_t start_steady_ns_ = 0;
  std::uint64_t start_ticks_ = 0;  ///< fast_ticks() at start(); drain origin
};

// ---- emit helpers (called through the macros below) -----------------------

void emit_event(Phase ph, const char* cat, const char* name, double vt,
                const char* an0 = nullptr, std::uint64_t a0 = 0,
                const char* an1 = nullptr, std::uint64_t a1 = 0);

/// Name the current thread's track; safe to call when tracing is off.
void set_thread_track(const std::string& name, int sort_hint = 0);

}  // namespace unimem::trace

// ---------------------------------------------------------------------------
// Macro surface.  UNIMEM_TRACE_DISABLED compiles every site to nothing
// (arguments unevaluated); otherwise each site is the runtime-flag branch
// plus, when enabled, one emit.  `vt` is virtual seconds (pass -1.0 for
// wall-only emitters such as the sweep layer).
#ifndef UNIMEM_TRACE_DISABLED

#define UNIMEM_TRACE_EMIT_(ph, cat, name, vt, ...)                      \
  do {                                                                  \
    if (::unimem::trace::on())                                          \
      ::unimem::trace::emit_event(::unimem::trace::Phase::ph, (cat),    \
                                  (name), (vt), ##__VA_ARGS__);         \
  } while (0)

#define UNIMEM_TRACE_BEGIN(cat, name, vt) \
  UNIMEM_TRACE_EMIT_(kBegin, cat, name, vt)
#define UNIMEM_TRACE_BEGIN1(cat, name, vt, an0, a0) \
  UNIMEM_TRACE_EMIT_(kBegin, cat, name, vt, an0,    \
                     static_cast<std::uint64_t>(a0))
#define UNIMEM_TRACE_BEGIN2(cat, name, vt, an0, a0, an1, a1)             \
  UNIMEM_TRACE_EMIT_(kBegin, cat, name, vt, an0,                         \
                     static_cast<std::uint64_t>(a0), an1,                \
                     static_cast<std::uint64_t>(a1))
#define UNIMEM_TRACE_END(cat, name, vt) UNIMEM_TRACE_EMIT_(kEnd, cat, name, vt)
#define UNIMEM_TRACE_END1(cat, name, vt, an0, a0) \
  UNIMEM_TRACE_EMIT_(kEnd, cat, name, vt, an0, static_cast<std::uint64_t>(a0))
#define UNIMEM_TRACE_END2(cat, name, vt, an0, a0, an1, a1)               \
  UNIMEM_TRACE_EMIT_(kEnd, cat, name, vt, an0,                           \
                     static_cast<std::uint64_t>(a0), an1,                \
                     static_cast<std::uint64_t>(a1))
#define UNIMEM_TRACE_INSTANT(cat, name, vt) \
  UNIMEM_TRACE_EMIT_(kInstant, cat, name, vt)
#define UNIMEM_TRACE_INSTANT1(cat, name, vt, an0, a0) \
  UNIMEM_TRACE_EMIT_(kInstant, cat, name, vt, an0,    \
                     static_cast<std::uint64_t>(a0))
#define UNIMEM_TRACE_INSTANT2(cat, name, vt, an0, a0, an1, a1)           \
  UNIMEM_TRACE_EMIT_(kInstant, cat, name, vt, an0,                       \
                     static_cast<std::uint64_t>(a0), an1,                \
                     static_cast<std::uint64_t>(a1))
#define UNIMEM_TRACE_COUNTER(cat, name, vt, value)     \
  UNIMEM_TRACE_EMIT_(kCounter, cat, name, vt, "value", \
                     static_cast<std::uint64_t>(value))

#else  // UNIMEM_TRACE_DISABLED

#define UNIMEM_TRACE_BEGIN(...) do {} while (0)
#define UNIMEM_TRACE_BEGIN1(...) do {} while (0)
#define UNIMEM_TRACE_BEGIN2(...) do {} while (0)
#define UNIMEM_TRACE_END(...) do {} while (0)
#define UNIMEM_TRACE_END1(...) do {} while (0)
#define UNIMEM_TRACE_END2(...) do {} while (0)
#define UNIMEM_TRACE_INSTANT(...) do {} while (0)
#define UNIMEM_TRACE_INSTANT1(...) do {} while (0)
#define UNIMEM_TRACE_INSTANT2(...) do {} while (0)
#define UNIMEM_TRACE_COUNTER(...) do {} while (0)

#endif  // UNIMEM_TRACE_DISABLED
