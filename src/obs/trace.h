// Nested-span tracing with steady-clock timing.
//
// A span is an RAII guard: construction stamps the start, destruction stamps
// the duration and appends one event to the tracer's buffer. While the
// tracer is disabled (the default) constructing a span is one relaxed atomic
// load and a branch — cheap enough to leave in serve admission, batch
// dispatch, thread-pool tasks, and the training loop permanently
// (bench/obs_overhead pins the budget). While enabled, recording takes a
// short mutex; spans are coarse (stages, epochs, batches), so contention is
// negligible next to the work they time.
//
// Export formats:
//   WriteChromeTrace   Chrome trace_event JSON ("X" complete events); open
//                      in chrome://tracing or https://ui.perfetto.dev
//   (metrics go through obs::MetricsRegistry — see obs/metrics.h)
//
// Nesting needs no explicit parent links: events carry (tid, ts, dur) and
// the viewers reconstruct the stack from containment on each thread track.
#ifndef DEEPMAP_OBS_TRACE_H_
#define DEEPMAP_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace deepmap::obs {

/// One completed span. Timestamps are microseconds on the steady clock,
/// relative to the tracer's epoch (set when tracing was last enabled).
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   // start, relative to the tracer epoch
  double dur_us = 0.0;  // duration
  int tid = 0;          // dense per-thread track id
};

/// Process-wide span collector. All methods are thread-safe.
class Tracer {
 public:
  /// Cap on buffered events; spans beyond it are counted (dropped_events)
  /// but not stored, so a forgotten --trace-out cannot eat the heap.
  static constexpr size_t kMaxEvents = 1 << 20;

  static Tracer& Global();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts collecting; resets the epoch and clears prior events.
  void Enable();
  /// Stops collecting; buffered events stay readable until Enable/Clear.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Clear();
  size_t NumEvents() const;
  int64_t dropped_events() const;
  /// Copy of the buffered events (tests and custom exporters).
  std::vector<TraceEvent> Events() const;

  /// Chrome trace_event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void WriteChromeTrace(std::ostream& os) const;

  /// RAII span. Records a TraceEvent on destruction when the owning tracer
  /// was enabled at construction (a span open across Disable is dropped).
  class Span {
   public:
    /// `name` must outlive the span (string literals at every call site);
    /// `category` groups events into chrome://tracing rows ("serve", "nn",
    /// "pool", ...).
    Span(Tracer& tracer, const char* name, const char* category = "")
        : tracer_(tracer), name_(name), category_(category),
          active_(tracer.enabled()) {
      if (active_) start_ = std::chrono::steady_clock::now();
    }
    ~Span() {
      if (active_) tracer_.Record(name_, category_, start_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    const char* category_;
    bool active_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  void Record(const char* name, const char* category,
              std::chrono::steady_clock::time_point start);

  /// Dense track id of the calling thread (assigned under mu_).
  int TrackId(std::thread::id id);

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, int> track_ids_;
};

/// Spans a scope on the global tracer:
///   DEEPMAP_TRACE_SPAN("serve.complete", "serve");
/// The two-level concat is required so __LINE__ expands before pasting;
/// direct ##__LINE__ would name every span variable identically and break
/// scopes containing two spans.
#define DEEPMAP_TRACE_CONCAT_INNER(a, b) a##b
#define DEEPMAP_TRACE_CONCAT(a, b) DEEPMAP_TRACE_CONCAT_INNER(a, b)
#define DEEPMAP_TRACE_SPAN(name, category)                                  \
  ::deepmap::obs::Tracer::Span DEEPMAP_TRACE_CONCAT(deepmap_trace_span_,    \
                                                    __LINE__)(              \
      ::deepmap::obs::Tracer::Global(), (name), (category))

}  // namespace deepmap::obs

#endif  // DEEPMAP_OBS_TRACE_H_
