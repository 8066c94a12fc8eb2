#pragma once
// Low-overhead per-rank span tracer (docs/OBSERVABILITY.md).
//
// Threads record fixed-size events into lock-free rings kept in their obs
// thread records (obs/runtime.hpp); recording is a relaxed atomic flag
// check plus a steady_clock read and a struct store, so instrumented hot
// paths cost one predictable branch when tracing is disabled. Tracing is
// armed by BAT_OBS=trace (exported as trace.json in the run bundle) or
// set_trace_enabled().
//
// The export is Chrome trace-event JSON: each vmpi rank becomes a process
// track (pid), each thread a tid, vmpi messages carry flow ids so send/recv
// arrows render in chrome://tracing and Perfetto. The discrete-event
// performance model (simio) emits the same format onto virtual tracks, so
// modeled and measured timelines are directly comparable.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "obs/health.hpp"
#include "obs/runtime.hpp"

namespace bat::obs {

namespace json {
struct Value;
}

// ---- runtime switch -------------------------------------------------------

/// True when span recording is on; one relaxed load, cheap enough per event.
inline bool trace_enabled() { return (components() & kTrace) != 0; }
void set_trace_enabled(bool on);

// ---- low-level recording --------------------------------------------------

/// Nanoseconds since the process trace epoch (first trace use).
std::uint64_t trace_now_ns();

/// Process-unique nonzero id tying a send event to its matching receive.
std::uint64_t next_flow_id();

/// `name` and `cat` must outlive the trace (string literals in practice):
/// events store the pointers, not copies.
void emit_begin(const char* name, const char* cat);
void emit_begin_arg(const char* name, const char* cat, const char* arg,
                    std::int64_t value);
/// Message-shaped span begin with tag/peer/bytes args, plus one optional
/// fourth arg: the post→match wait (wait_us >= 0, receive side) or the
/// sender's query trace id (qtrace != 0, send side — wait_us wins if both).
void emit_begin_msg(const char* name, const char* cat, int tag, int peer,
                    std::int64_t bytes, std::int64_t wait_us = -1,
                    std::uint64_t qtrace = 0);
void emit_end(const char* name, const char* cat);
void emit_instant(const char* name, const char* cat);
/// Flow arrows: start is emitted inside the sending span, end inside the
/// receiving span; `flow_id` pairs them up.
void emit_flow_start(const char* cat, std::uint64_t flow_id);
void emit_flow_end(const char* cat, std::uint64_t flow_id);

// ---- virtual tracks (modeled timelines) -----------------------------------

/// Allocate a synthetic thread track (shown under the "model" process) for
/// spans with explicit timestamps, e.g. the simio discrete-event model.
std::uint32_t new_virtual_track(const std::string& name);
void emit_span_on_track(std::uint32_t track, const char* name, const char* cat,
                        std::uint64_t ts_ns, std::uint64_t dur_ns);

// ---- export ---------------------------------------------------------------

/// Serialize every thread's buffered events as Chrome trace-event JSON.
std::string chrome_trace_json();

/// JSON array holding the newest `max_per_thread` events of each thread's
/// ring, for flight-recorder dumps. Same event objects as
/// chrome_trace_json(), unsorted across threads.
std::string trace_tail_json(std::size_t max_per_thread);

/// Events lost to ring-buffer overflow since the last reset.
std::uint64_t dropped_events();

/// Drop all buffered events (tests and repeated benchmark runs).
void reset_trace();

/// Events each thread's ring holds before overwriting its oldest.
inline constexpr std::size_t kTraceRingEvents = std::size_t{1} << 16;

// ---- validation -----------------------------------------------------------

/// Structural check of a parsed Chrome trace: every begin has a matching
/// end on its (pid, tid) track, flow ends pair with flow starts, timestamps
/// are sane. Shared by tools/bat_obs and the tests.
struct TraceCheck {
    bool ok = false;
    std::string error;       // first structural problem found
    int num_events = 0;      // trace events excluding metadata
    int num_ranks = 0;       // distinct rank processes with at least one span
    int num_spans = 0;       // matched begin/end pairs
    int num_flows = 0;       // matched flow start/end pairs
};
TraceCheck validate_chrome_trace(const json::Value& root);

// ---- RAII helpers ---------------------------------------------------------

/// Span over a scope: a trace event pair when tracing is on, an open-span
/// stack frame while span tracking is on; no-op otherwise.
class SpanScope {
public:
    SpanScope(const char* name, const char* cat)
        : name_(name), cat_(cat), traced_(trace_enabled()), tracked_(span_tracking_enabled()) {
        if (traced_) {
            emit_begin(name_, cat_);
        }
        if (tracked_) {
            detail::push_span(name_);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() { close(); }

    /// End the span early; idempotent.
    void close() {
        if (traced_) {
            traced_ = false;
            emit_end(name_, cat_);
        }
        if (tracked_) {
            tracked_ = false;
            detail::pop_span();
        }
    }

private:
    const char* name_;
    const char* cat_;
    bool traced_;
    bool tracked_;
};

/// Span that also accumulates its duration (seconds) into `*accum` — the
/// bridge between tracing and the WritePhaseTimings / ReadPhaseTimings
/// breakdown structs, which are populated from these spans alone.
class PhaseSpan {
public:
    PhaseSpan(const char* name, double* accum, const char* cat = "phase")
        : name_(name), accum_(accum), t0_(std::chrono::steady_clock::now()),
          span_(name, cat) {}
    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;
    ~PhaseSpan() { close(); }

    /// End the phase early; idempotent.
    void close() {
        if (!open_) {
            return;
        }
        open_ = false;
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0_)
                                   .count();
        if (accum_ != nullptr) {
            *accum_ += seconds;
        }
        // The run report accumulates the identical duration, so its phase
        // seconds match the timings structs exactly.
        health_detail::record_phase(name_, seconds);
        span_.close();
    }

private:
    const char* name_;
    double* accum_;
    std::chrono::steady_clock::time_point t0_;
    SpanScope span_;
    bool open_ = true;
};

}  // namespace bat::obs

#define BAT_OBS_CONCAT_IMPL(a, b) a##b
#define BAT_OBS_CONCAT(a, b) BAT_OBS_CONCAT_IMPL(a, b)

/// RAII span over the enclosing scope, e.g. BAT_TRACE_SCOPE("bat.build").
#define BAT_TRACE_SCOPE(name) BAT_TRACE_SCOPE_CAT(name, "app")
#define BAT_TRACE_SCOPE_CAT(name, cat) \
    ::bat::obs::SpanScope BAT_OBS_CONCAT(bat_trace_scope_, __LINE__)(name, cat)
