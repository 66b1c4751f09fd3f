#include "trace/trace.h"

#include <chrono>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace unimem::trace {

std::atomic<bool> g_trace_on{false};

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t realtime_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Hot-path timestamp.  clock_gettime runs ~44 ns on the VM-class hosts
// this targets — alone nearly the whole <=50 ns emit budget — so emit
// stamps the raw invariant TSC (or the aarch64 generic timer) and flush()
// converts ticks to ns with a linear calibration against steady_clock
// over the elapsed recording interval.  The calibration is refreshed per
// drain; the ppm-level scale jitter between drains is far below the cost
// of the events being measured.
inline std::uint64_t fast_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return steady_now_ns();  // fallback: calibration lands at ~1.0 ns/tick
#endif
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v && p < (std::size_t{1} << 30)) p <<= 1;
  return p;
}

// Per-thread ring slots.  Sweeps spawn a fresh set of rank threads per
// world, so the per-ring footprint (slots * ~80 B) is multiplied by the
// number of threads alive between flushes — keep the default modest and
// let --trace-buf raise it.
constexpr std::size_t kDefaultBufEvents = std::size_t{16} * 1024;

}  // namespace

// ---- Ring -----------------------------------------------------------------

Ring::Ring(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

bool Ring::push(const Event& e) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[static_cast<std::size_t>(head) & mask_] = e;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::size_t Ring::pop_into(std::vector<Event>* out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  for (std::uint64_t i = tail; i != head; ++i)
    out->push_back(slots_[static_cast<std::size_t>(i) & mask_]);
  tail_.store(head, std::memory_order_release);
  return static_cast<std::size_t>(head - tail);
}

// ---- TraceRecorder --------------------------------------------------------

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* rec = new TraceRecorder();  // leaked: outlives TLS
  return *rec;
}

TraceRecorder::ThreadState& TraceRecorder::thread_state() {
  thread_local ThreadState ts;
  return ts;
}

void TraceRecorder::start(std::size_t buf_events) {
  std::lock_guard<std::mutex> lk(mu_);
  // Bump the generation first: every thread's cached state goes stale and
  // re-registers on next emit.  A forked child inherits the parent's
  // registry and TLS; this discards both views cleanly.
  generation_.fetch_add(1, std::memory_order_release);
  rings_.clear();
  data_ = TraceData();
  buf_events_ = buf_events != 0 ? buf_events : kDefaultBufEvents;
  epoch_realtime_ns_ = realtime_now_ns();
  start_steady_ns_ = steady_now_ns();
  start_ticks_ = fast_ticks();
  data_.epoch_realtime_ns = epoch_realtime_ns_;
  g_trace_on.store(true, std::memory_order_release);
}

void TraceRecorder::register_thread(ThreadState* ts,
                                    const std::string& default_name,
                                    int sort_hint) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!active()) return;
  ts->generation = generation_.load(std::memory_order_acquire);
  ts->ring = std::make_shared<Ring>(buf_events_);
  data_.tracks.push_back({default_name, sort_hint});
  ts->track = static_cast<std::uint32_t>(data_.tracks.size() - 1);
  rings_.push_back({ts->ring});
}

void TraceRecorder::set_thread_track(const std::string& name, int sort_hint) {
  if (!active()) return;
  ThreadState& ts = thread_state();
  if (ts.generation != generation_.load(std::memory_order_acquire)) {
    register_thread(&ts, name, sort_hint);
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (ts.track < data_.tracks.size()) {
    data_.tracks[ts.track].name = name;
    data_.tracks[ts.track].sort_hint = sort_hint;
  }
}

void TraceRecorder::emit(Event e) {
  if (!active()) return;
  ThreadState& ts = thread_state();
  if (ts.generation != generation_.load(std::memory_order_acquire)) {
    register_thread(&ts, "thread", 1000);
    if (ts.ring == nullptr) return;  // recorder stopped under us
  }
  e.ticks = fast_ticks();
  e.track = ts.track;
  ts.ring->push(e);
}

void TraceRecorder::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  // Tick -> ns calibration over everything recorded so far.  Every
  // drained event falls inside [start, now], so the linear fit bounds its
  // conversion error by the clocks' relative drift over that window.
  const std::uint64_t now_ticks = fast_ticks();
  const std::uint64_t now_ns = steady_now_ns();
  const double ns_per_tick =
      now_ticks > start_ticks_ && now_ns > start_steady_ns_
          ? static_cast<double>(now_ns - start_steady_ns_) /
                static_cast<double>(now_ticks - start_ticks_)
          : 1.0;
  std::vector<Event> batch;
  std::size_t keep = 0;
  for (RegisteredRing& r : rings_) {
    // Read retirement BEFORE draining: the acquire pairs with the owning
    // thread's release in retire(), so a ring observed retired has every
    // push visible to this pop.
    const bool retired = r.ring->retired();
    batch.clear();
    r.ring->pop_into(&batch);
    for (const Event& e : batch) {
      TraceEventRow row;
      row.cat = data_.intern(e.cat);
      row.name = data_.intern(e.name);
      row.arg_name0 = data_.intern(e.arg_name0);
      row.arg_name1 = data_.intern(e.arg_name1);
      row.arg0 = e.arg0;
      row.arg1 = e.arg1;
      row.vt = e.vt;
      row.wall_ns = e.ticks > start_ticks_
                        ? static_cast<std::uint64_t>(
                              static_cast<double>(e.ticks - start_ticks_) *
                              ns_per_tick)
                        : 0;
      row.track = e.track;
      row.phase = static_cast<char>(e.phase);
      data_.events.push_back(row);
    }
    // Reap rings whose owning thread has exited — sweeps churn through
    // rank threads, and a drained dead ring is pure ballast.  Fold its
    // drop count now.
    if (retired) {
      data_.dropped += r.ring->dropped();
      continue;
    }
    rings_[keep++] = std::move(r);
  }
  rings_.resize(keep);
}

TraceData TraceRecorder::stop() {
  // Disable first so producers stop emitting, then take the tail.  An emit that
  // raced past the flag check lands in a ring we still drain here (the
  // push itself is lock-free and safe); one that arrives later is lost,
  // which is the documented drop-don't-block contract.
  g_trace_on.store(false, std::memory_order_release);
  flush();
  std::lock_guard<std::mutex> lk(mu_);
  for (const RegisteredRing& r : rings_) data_.dropped += r.ring->dropped();
  generation_.fetch_add(1, std::memory_order_release);
  rings_.clear();
  TraceData out = std::move(data_);
  data_ = TraceData();
  return out;
}

// ---- free helpers ---------------------------------------------------------

void emit_event(Phase ph, const char* cat, const char* name, double vt,
                const char* an0, std::uint64_t a0, const char* an1,
                std::uint64_t a1) {
  Event e;
  e.phase = ph;
  e.cat = cat;
  e.name = name;
  e.vt = vt;
  e.arg_name0 = an0;
  e.arg0 = a0;
  e.arg_name1 = an1;
  e.arg1 = a1;
  TraceRecorder::instance().emit(e);
}

void set_thread_track(const std::string& name, int sort_hint) {
  TraceRecorder::instance().set_thread_track(name, sort_hint);
}

}  // namespace unimem::trace
