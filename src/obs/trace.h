#ifndef MBTA_OBS_TRACE_H_
#define MBTA_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace mbta {

/// One flight-recorder entry: a compact copy of a finished span or
/// instant, kept in the Tracer's bounded ring (see Tracer below).
struct FlightEvent {
  std::string track;   // track name, e.g. "main" or "service/writer"
  std::string name;    // span/instant name (slash-path grammar)
  int depth = 0;       // nesting depth on its track at emission
  double ts_us = 0.0;  // start, microseconds since tracer construction
  double dur_us = 0.0;  // 0 for instants
};

/// Snapshot of the flight recorder, taken when a solve degrades
/// (deadline hit, cancellation observed, fallback retry). Stored in
/// SolveStats::flight so post-mortems can see the last things the solver
/// did before it gave up, without shipping the whole trace around.
struct TraceSnapshot {
  std::string trigger;  // "deadline", "cancel" or "fallback/retry"
  /// Events ever recorded to the ring (>= events.size(); the difference
  /// is how many old events the bounded ring has already evicted).
  std::uint64_t total_events = 0;
  std::vector<FlightEvent> events;  // oldest first

  bool empty() const { return trigger.empty() && events.empty(); }
};

/// Span/timeline recorder emitting Chrome trace-event JSON — the
/// `{"traceEvents": [...]}` format that chrome://tracing and Perfetto
/// open directly. Spans are complete events (`ph:"X"`), one track per
/// registered thread, with deterministic per-track span ids.
///
/// Threading model: each thread binds to one named *track* (find-or-
/// create under an internal mutex via RegisterThread; the constructing
/// thread is pre-registered as "main"). After binding, span emission
/// touches only the calling thread's track — no locks, no atomics — so a
/// span costs a couple of stores. Emissions from a thread never
/// registered with this tracer are dropped and counted, never raced. Two
/// *live* threads must not share a track; re-binding a track name from a
/// new thread is fine once the previous thread has quiesced.
///
/// Determinism: span ids are per-track sequence numbers, track ids are
/// assigned by sorted track name at write time, and events serialize in
/// begin order per track — so the emitted event *sequence* (everything
/// except the ts/dur fields) is byte-identical across runs whenever the
/// span structure is deterministic. `tools/mbta_trace --diff` enforces
/// exactly that in CI.
///
/// The tracer also feeds a bounded in-memory ring of finished events
/// (the "flight recorder", mutex-guarded since spans may finish on any
/// registered thread); SnapshotFlight copies out the last `flight_capacity` events
/// when a deadline/cancel/fallback trigger fires.
class Tracer {
 public:
  static constexpr std::size_t kDefaultMaxEventsPerTrack = 1 << 16;
  static constexpr std::size_t kDefaultFlightCapacity = 128;

  /// Registers the constructing thread as track "main" and starts the
  /// trace clock. Tracks that reach `max_events_per_track` drop further
  /// spans (counted in the emitted metadata) instead of growing without
  /// bound.
  explicit Tracer(std::size_t max_events_per_track = kDefaultMaxEventsPerTrack,
                  std::size_t flight_capacity = kDefaultFlightCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Binds the calling thread to the track named `track_name`
  /// (slash-path grammar, e.g. "service/writer"), creating it on first
  /// use. Idempotent per (thread, name); cheap after the first call.
  void RegisterThread(std::string_view track_name);

  /// Opaque handle to an open span. Valid until the matching EndSpan on
  /// the same thread.
  struct SpanHandle {
    void* track = nullptr;
    std::ptrdiff_t index = -1;
    bool valid() const { return track != nullptr; }
  };

  /// Opens a span on the calling thread's track. Returns an invalid
  /// handle (all subsequent calls no-ops) when the thread is
  /// unregistered or the track is full. Prefer ScopedSpan.
  SpanHandle BeginSpan(std::string_view name, std::string_view cat);
  /// Closes `handle`, fixing the span's duration and feeding the flight
  /// ring. Must run on the thread that opened it.
  void EndSpan(SpanHandle handle);
  /// Attaches an integer/string arg, rendered into the span's `args`
  /// object. Call between BeginSpan and EndSpan, on the owning thread.
  void AddSpanArg(SpanHandle handle, std::string_view key,
                  std::int64_t value);
  void AddSpanArg(SpanHandle handle, std::string_view key,
                  std::string_view value);

  /// Emits a zero-duration instant event (`ph:"i"`) on the calling
  /// thread's track, e.g. "fallback/retry".
  void Instant(std::string_view name, std::string_view cat);

  /// Copies the flight ring (oldest first) under the ring mutex. Safe to
  /// call from any thread, typically right after a budget expires.
  TraceSnapshot SnapshotFlight(std::string_view trigger) const;

  /// Serializes the whole trace as a Chrome trace-event JSON document.
  /// Call after every traced thread has quiesced (post-join, post-solve).
  std::string ToJson() const;

  /// ToJson written to `path`. Returns false (and fills `error` when
  /// non-null) if the file cannot be written.
  bool WriteFile(const std::string& path, std::string* error = nullptr) const;

  /// Spans dropped across all tracks (track buffer full) plus events
  /// from unregistered threads. Quiescence required, like ToJson.
  std::uint64_t dropped_events() const;

 private:
  struct SpanArg {
    std::string key;
    std::string string_value;
    std::int64_t int_value = 0;
    bool is_int = false;
  };

  struct Event {
    std::string name;
    std::string cat;
    std::uint64_t id = 0;     // per-track sequence number
    int depth = 0;            // nesting depth at begin
    double ts_us = 0.0;
    double dur_us = -1.0;     // -1 while the span is still open
    bool instant = false;
    std::vector<SpanArg> args;
  };

  /// Per-thread event buffer. Only the bound thread writes it.
  struct Track {
    std::string name;
    std::vector<Event> events;
    std::vector<std::size_t> open;  // indices of open spans, innermost last
    std::uint64_t next_id = 0;
    std::uint64_t dropped = 0;
  };

  // mbta-lint: taint-ok(span timestamps are trace-output-only; solver state never reads them)
  using Clock = std::chrono::steady_clock;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// The calling thread's track, or nullptr when it never registered
  /// with this tracer (the unregistered-drop counter is bumped).
  Track* BoundTrack();
  void PushFlight(const Track& track, const Event& event);

  const Clock::time_point epoch_;
  const std::size_t max_events_per_track_;
  const std::size_t flight_capacity_;

  mutable Mutex mu_;
  /// unique_ptr for address stability: threads hold raw Track pointers
  /// while registration appends.
  std::vector<std::unique_ptr<Track>> tracks_ MBTA_GUARDED_BY(mu_);
  std::uint64_t unregistered_drops_ MBTA_GUARDED_BY(mu_) = 0;

  mutable Mutex flight_mu_;
  std::vector<FlightEvent> flight_ MBTA_GUARDED_BY(flight_mu_);  // ring
  std::size_t flight_next_ MBTA_GUARDED_BY(flight_mu_) = 0;
  std::uint64_t flight_total_ MBTA_GUARDED_BY(flight_mu_) = 0;
};

/// RAII span, the tracing analogue of ScopedPhase:
///
///   ScopedSpan span(tracer, "mcf/shortest_path", "flow");
///   span.Arg("paths", static_cast<std::int64_t>(paths));
///
/// A null tracer disables the span entirely (no clock read), so call
/// sites follow the same `info != nullptr` discipline as counters. Span
/// names use the full slash-path grammar (lint rule R5).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             std::string_view cat = "span")
      : tracer_(tracer) {
    if (tracer_ != nullptr) handle_ = tracer_->BeginSpan(name, cat);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(handle_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string_view key, std::int64_t value) {
    if (tracer_ != nullptr) tracer_->AddSpanArg(handle_, key, value);
  }
  void Arg(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->AddSpanArg(handle_, key, value);
  }

 private:
  Tracer* tracer_;
  Tracer::SpanHandle handle_;
};

}  // namespace mbta

#endif  // MBTA_OBS_TRACE_H_
