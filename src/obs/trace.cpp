#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace bat::obs {

namespace {

enum class EventType : std::uint8_t {
    begin,
    end,
    instant,
    flow_start,
    flow_end,
};

/// Fixed-size POD event; name/cat/arg-name pointers reference string
/// literals owned by the instrumentation sites.
struct TraceEvent {
    const char* name = nullptr;
    const char* cat = nullptr;
    std::uint64_t ts_ns = 0;
    std::uint64_t flow_id = 0;
    const char* arg_names[4] = {nullptr, nullptr, nullptr, nullptr};
    std::int64_t arg_vals[4] = {0, 0, 0, 0};
    EventType type = EventType::instant;
    int rank = -1;
    std::uint32_t tid = 0;
};

}  // namespace

/// Single-writer ring: the owning thread stores and bumps head; exporters
/// snapshot head with acquire ordering. Overflow overwrites the oldest
/// events. reset_trace() moves `floor` up to head instead of touching the
/// slots, so it never races the writer.
struct detail::TraceRing {
    // Raw storage: only slots that receive events get their pages touched.
    TraceEvent* events = static_cast<TraceEvent*>(
        ::operator new(kTraceRingEvents * sizeof(TraceEvent)));
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> floor{0};
    ~TraceRing() { ::operator delete(events); }  // non-copyable: atomics

    /// Surviving events since the last reset: [first, head).
    std::uint64_t first(std::uint64_t h) const {
        return std::max(floor.load(std::memory_order_relaxed),
                        h > kTraceRingEvents ? h - kTraceRingEvents : 0);
    }
};

namespace {

using detail::ThreadRecord;
using detail::TraceRing;

struct TraceState {
    std::mutex mutex;  // guards everything below
    std::map<std::uint32_t, std::string> virtual_tracks;
    std::uint32_t next_virtual_tid = 1 << 16;
    // Rings of exited threads that still hold events; their records' next
    // owners start fresh rings. Freed by reset_trace().
    std::vector<TraceRing*> retired;
};

std::atomic<std::uint64_t> g_flow_counter{0};

TraceState& state() {
    static auto* s = new TraceState;
    return *s;
}

std::chrono::steady_clock::time_point trace_epoch() {
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

void push_to(ThreadRecord& rec, const TraceEvent& ev) {
    TraceRing* ring = rec.trace.load(std::memory_order_relaxed);
    if (ring == nullptr) {
        ring = new TraceRing;
        rec.trace.store(ring, std::memory_order_release);
    }
    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    ring->events[h % kTraceRingEvents] = ev;
    ring->head.store(h + 1, std::memory_order_release);
}

/// Record one event on the calling thread's ring.
void emit(EventType type, const char* name, const char* cat,
          std::initializer_list<std::pair<const char*, std::int64_t>> args = {},
          std::uint64_t flow_id = 0) {
    TraceEvent ev;
    ev.type = type;
    ev.name = name;
    ev.cat = cat;
    ev.ts_ns = trace_now_ns();
    ev.rank = bat::thread_log_rank();
    ev.flow_id = flow_id;
    int i = 0;
    for (const auto& [arg, value] : args) {
        ev.arg_names[i] = arg;
        ev.arg_vals[i++] = value;
    }
    ThreadRecord& rec = detail::thread_record();
    ev.tid = rec.tid;
    push_to(rec, ev);
}

/// Append `ring`'s surviving events (newest `max` at most) to `out`;
/// returns the events lost to overflow since the last reset.
std::uint64_t copy_ring(const TraceRing& ring, std::uint64_t max, std::vector<TraceEvent>& out) {
    const std::uint64_t h = ring.head.load(std::memory_order_acquire);
    const std::uint64_t first = ring.first(h);
    for (std::uint64_t i = h - std::min(h - first, max); i < h; ++i) {
        out.push_back(ring.events[i % kTraceRingEvents]);
    }
    return first - std::min(first, ring.floor.load(std::memory_order_relaxed));
}

/// Copy every live ring's and exited thread's surviving events (newest
/// `max_per_ring` per thread at most) and sum the events lost to overflow
/// since the last reset.
std::vector<TraceEvent> collect_events(std::uint64_t max_per_ring, std::uint64_t* dropped) {
    std::vector<TraceEvent> events;
    std::uint64_t lost = 0;
    detail::for_each_record([&](const ThreadRecord& rec) {
        if (const TraceRing* ring = rec.trace.load(std::memory_order_acquire)) {
            lost += copy_ring(*ring, max_per_ring, events);
        }
    });
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const TraceRing* ring : s.retired) {
        lost += copy_ring(*ring, max_per_ring, events);
    }
    if (dropped != nullptr) {
        *dropped = lost;
    }
    return events;
}

/// Chrome "pid": rank r maps to pid r+1 named "rank r"; rank-less threads
/// (main, pool workers outside a runtime, virtual tracks) map to pid 0.
int event_pid(const TraceEvent& ev) { return ev.rank >= 0 ? ev.rank + 1 : 0; }

const char* phase_letter(EventType t) {
    switch (t) {
        case EventType::begin: return "B";
        case EventType::end: return "E";
        case EventType::instant: return "i";
        case EventType::flow_start: return "s";
        case EventType::flow_end: return "f";
    }
    return "i";
}

void write_event(json::Writer& w, const TraceEvent& ev) {
    w.begin_object();
    w.field("name", ev.name != nullptr ? ev.name : "");
    w.field("cat", ev.cat != nullptr ? ev.cat : "");
    w.field("ph", phase_letter(ev.type));
    w.field("ts", static_cast<double>(ev.ts_ns) / 1e3);
    w.field("pid", event_pid(ev)).field("tid", ev.tid);
    if (ev.type == EventType::flow_start || ev.type == EventType::flow_end) {
        w.field("id", ev.flow_id);
        if (ev.type == EventType::flow_end) {
            w.field("bp", "e");
        }
    }
    if (ev.type == EventType::instant) {
        w.field("s", "t");
    }
    if (ev.arg_names[0] != nullptr) {
        w.key("args").begin_object();
        for (int i = 0; i < 4 && ev.arg_names[i] != nullptr; ++i) {
            w.field(ev.arg_names[i], ev.arg_vals[i]);
        }
        w.end_object();
    }
    w.end_object();
}

void write_metadata(json::Writer& w, const char* kind, int pid, const std::uint32_t* tid,
                    const std::string& name) {
    w.begin_object().field("name", kind).field("ph", "M").field("ts", 0).field("pid", pid);
    if (tid != nullptr) {
        w.field("tid", *tid);
    }
    w.key("args").begin_object().field("name", name).end_object().end_object();
}

}  // namespace

void detail::trace_thread_released(ThreadRecord& rec) {
    TraceRing* ring = rec.trace.load(std::memory_order_relaxed);
    if (ring == nullptr ||
        ring->head.load(std::memory_order_relaxed) == ring->floor.load(std::memory_order_relaxed)) {
        return;  // nothing to keep: the next owner reuses the ring
    }
    rec.trace.store(nullptr, std::memory_order_relaxed);
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.retired.push_back(ring);
}

void set_trace_enabled(bool on) {
    trace_epoch();
    set_component(kTrace, on);
}

std::uint64_t trace_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - trace_epoch())
            .count());
}

std::uint64_t next_flow_id() {
    return g_flow_counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void emit_begin(const char* name, const char* cat) { emit(EventType::begin, name, cat); }

void emit_begin_arg(const char* name, const char* cat, const char* arg, std::int64_t value) {
    emit(EventType::begin, name, cat, {{arg, value}});
}

void emit_begin_msg(const char* name, const char* cat, int tag, int peer,
                    std::int64_t bytes, std::int64_t wait_us, std::uint64_t qtrace) {
    if (wait_us >= 0) {
        emit(EventType::begin, name, cat,
             {{"tag", tag}, {"peer", peer}, {"bytes", bytes}, {"wait_us", wait_us}});
    } else if (qtrace != 0) {
        emit(EventType::begin, name, cat,
             {{"tag", tag}, {"peer", peer}, {"bytes", bytes},
              {"qtrace", static_cast<std::int64_t>(qtrace)}});
    } else {
        emit(EventType::begin, name, cat, {{"tag", tag}, {"peer", peer}, {"bytes", bytes}});
    }
}

void emit_end(const char* name, const char* cat) { emit(EventType::end, name, cat); }

void emit_instant(const char* name, const char* cat) { emit(EventType::instant, name, cat); }

void emit_flow_start(const char* cat, std::uint64_t flow_id) {
    emit(EventType::flow_start, "msg", cat, {}, flow_id);
}

void emit_flow_end(const char* cat, std::uint64_t flow_id) {
    emit(EventType::flow_end, "msg", cat, {}, flow_id);
}

std::uint32_t new_virtual_track(const std::string& name) {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.virtual_tracks[s.next_virtual_tid] = name;
    return s.next_virtual_tid++;
}

void emit_span_on_track(std::uint32_t track, const char* name, const char* cat,
                        std::uint64_t ts_ns, std::uint64_t dur_ns) {
    TraceEvent begin;
    begin.type = EventType::begin;
    begin.name = name;
    begin.cat = cat;
    begin.ts_ns = ts_ns;
    begin.rank = -1;  // virtual tracks live under the rank-less process
    begin.tid = track;
    TraceEvent end = begin;
    end.type = EventType::end;
    end.ts_ns = ts_ns + dur_ns;
    ThreadRecord& rec = detail::thread_record();
    push_to(rec, begin);
    push_to(rec, end);
}

std::uint64_t dropped_events() {
    std::uint64_t dropped = 0;
    collect_events(0, &dropped);
    return dropped;
}

void reset_trace() {
    // Live threads' rings restart at their head; rings no thread owns are
    // freed (a record without a thread takes no events).
    detail::for_each_record([](ThreadRecord& rec) {
        TraceRing* ring = rec.trace.load(std::memory_order_acquire);
        if (ring != nullptr && rec.live) {
            ring->floor.store(ring->head.load(std::memory_order_acquire),
                              std::memory_order_relaxed);
        } else if (ring != nullptr) {
            delete rec.trace.exchange(nullptr, std::memory_order_relaxed);
        }
    });
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.virtual_tracks.clear();
    for (TraceRing* ring : s.retired) {
        delete ring;
    }
    s.retired.clear();
}

std::string chrome_trace_json() {
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events = collect_events(kTraceRingEvents, &dropped);
    std::map<std::uint32_t, std::string> virtual_tracks;
    {
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        virtual_tracks = s.virtual_tracks;
    }
    // Stable sort keeps per-thread ordering for equal timestamps, so a
    // begin never trades places with its own end.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.ts_ns < b.ts_ns;
                     });
    std::set<int> pids;
    for (const TraceEvent& ev : events) {
        pids.insert(event_pid(ev));
    }
    std::string out;
    out.reserve(events.size() * 128 + 4096);
    json::Writer w(out);
    w.begin_object().key("traceEvents").begin_array();
    for (const int pid : pids) {
        write_metadata(w, "process_name", pid, nullptr,
                       pid == 0 ? "process" : "rank " + std::to_string(pid - 1));
    }
    for (const auto& [tid, name] : virtual_tracks) {
        write_metadata(w, "thread_name", 0, &tid, name);
    }
    for (const TraceEvent& ev : events) {
        write_event(w, ev);
    }
    w.end_array().field("displayTimeUnit", "ms");
    w.key("otherData").begin_object().field("dropped_events", dropped).end_object();
    w.end_object();
    return out;
}

std::string trace_tail_json(std::size_t max_per_thread) {
    // Flight-recorder view: newest events only, no cross-thread sort, no
    // metadata. Entries being overwritten concurrently can at worst surface
    // a stale (whole, never torn) event.
    std::string out;
    json::Writer w(out);
    w.begin_array();
    for (const TraceEvent& ev : collect_events(max_per_thread, nullptr)) {
        write_event(w, ev);
    }
    w.end_array();
    return out;
}

// ---- validation -----------------------------------------------------------

TraceCheck validate_chrome_trace(const json::Value& root) {
    TraceCheck check;
    auto fail = [&check](const std::string& why) {
        check.ok = false;
        check.error = why;
        return check;
    };
    if (!root.is_object()) {
        return fail("root is not an object");
    }
    const json::Value* events = root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        return fail("missing traceEvents array");
    }
    // Per-(pid, tid) span stacks and the set of live flow ids.
    std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::string>> stacks;
    std::set<std::int64_t> open_flows;
    std::set<std::int64_t> span_ranks;
    for (const json::Value& ev : events->array()) {
        if (!ev.is_object()) {
            return fail("trace event is not an object");
        }
        const json::Value* ph = ev.find("ph");
        const json::Value* name = ev.find("name");
        if (ph == nullptr || !ph->is_string() || name == nullptr ||
            !name->is_string()) {
            return fail("event missing ph or name");
        }
        if (ph->string() == "M") {
            continue;  // metadata carries no timestamped payload
        }
        const json::Value* ts = ev.find("ts");
        const json::Value* pid = ev.find("pid");
        const json::Value* tid = ev.find("tid");
        if (ts == nullptr || !ts->is_number() || pid == nullptr ||
            !pid->is_number() || tid == nullptr || !tid->is_number()) {
            return fail("event '" + name->string() + "' missing ts/pid/tid");
        }
        if (ts->number() < 0) {
            return fail("event '" + name->string() + "' has negative timestamp");
        }
        ++check.num_events;
        const auto track = std::make_pair(static_cast<std::int64_t>(pid->number()),
                                          static_cast<std::int64_t>(tid->number()));
        const std::string& phase = ph->string();
        if (phase == "B") {
            stacks[track].push_back(name->string());
            if (pid->number() >= 1) {
                span_ranks.insert(static_cast<std::int64_t>(pid->number()));
            }
        } else if (phase == "E") {
            auto& stack = stacks[track];
            if (stack.empty()) {
                return fail("end event '" + name->string() +
                            "' with no open span on its track");
            }
            if (stack.back() != name->string()) {
                return fail("end event '" + name->string() +
                            "' does not match open span '" + stack.back() + "'");
            }
            stack.pop_back();
            ++check.num_spans;
        } else if (phase == "s" || phase == "f") {
            const json::Value* id = ev.find("id");
            if (id == nullptr || !id->is_number()) {
                return fail("flow event missing id");
            }
            const auto flow = static_cast<std::int64_t>(id->number());
            if (phase == "s") {
                if (!open_flows.insert(flow).second) {
                    return fail("duplicate flow start id " + std::to_string(flow));
                }
            } else {
                if (open_flows.erase(flow) == 0) {
                    return fail("flow end id " + std::to_string(flow) +
                                " without a start");
                }
                ++check.num_flows;
            }
        } else if (phase != "i" && phase != "C" && phase != "X") {
            return fail("unknown event phase '" + phase + "'");
        }
    }
    for (const auto& [track, stack] : stacks) {
        if (!stack.empty()) {
            return fail("unbalanced span '" + stack.back() + "' on pid " +
                        std::to_string(track.first) + " tid " +
                        std::to_string(track.second));
        }
    }
    check.num_ranks = static_cast<int>(span_ranks.size());
    check.ok = true;
    return check;
}

}  // namespace bat::obs
