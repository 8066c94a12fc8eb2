#include "obs/query_trace.hpp"

#include <algorithm>
#include <atomic>
#include <map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "util/log.hpp"

namespace bat::obs {

namespace {

// All state is heap-allocated once and leaked, like obs/health.cpp: pool
// workers and rank threads attribute costs past any static destruction
// order, and the atexit log export must never race a destructor.

constexpr std::size_t kCostSlots = 4096;
constexpr std::size_t kCostProbeLimit = 128;

/// Lock-free per-query cost accumulator, claimed by CAS on the trace id.
enum Cost { kCacheHits, kCacheMisses, kPoolNs, kWindows, kCostCount };
struct CostSlot {
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> cost[kCostCount] = {};

    void clear() {
        for (auto& c : cost) {
            c.store(0, std::memory_order_relaxed);
        }
    }
};

/// Fixed-capacity append-only ring: a slot is claimed with one fetch_add,
/// filled, then committed with a release store so exporters never read a
/// half-written entry.
template <typename T, std::size_t N>
struct Ring {
    T items[N];
    std::atomic<bool> committed[N] = {};
    std::atomic<std::size_t> next{0};

    bool push(const T& item) {
        const std::size_t at = next.fetch_add(1, std::memory_order_relaxed);
        if (at >= N) {
            return false;
        }
        items[at] = item;
        committed[at].store(true, std::memory_order_release);
        return true;
    }
    std::vector<T> snapshot() const {
        std::vector<T> out;
        for (std::size_t i = 0; i < std::min(next.load(std::memory_order_relaxed), N); ++i) {
            if (committed[i].load(std::memory_order_acquire)) {
                out.push_back(items[i]);
            }
        }
        return out;
    }
    /// Uncommit first so concurrent readers drop out, then rewind.
    void reset() {
        for (auto& c : committed) {
            c.store(false, std::memory_order_relaxed);
        }
        next.store(0, std::memory_order_relaxed);
    }
};

struct QueryState {
    std::atomic<std::uint64_t> next_id{0};
    Ring<QueryRecord, 8192> records;
    Ring<QueryServeSpan, 65536> spans;
    CostSlot costs[kCostSlots];
    std::atomic<std::uint64_t> dropped{0};
};

QueryState& state() {
    static QueryState* s = new QueryState;
    return *s;
}

thread_local QueryContext t_current;
thread_local std::uint64_t t_cache_hits = 0;
thread_local std::uint64_t t_cache_misses = 0;

CostSlot* find_cost_slot(std::uint64_t id, bool create) {
    QueryState& s = state();
    std::size_t at = (id * 0x9E3779B97F4A7C15ull) % kCostSlots;
    for (std::size_t probe = 0; probe < kCostProbeLimit; ++probe) {
        CostSlot& slot = s.costs[at];
        std::uint64_t cur = slot.id.load(std::memory_order_acquire);
        if (cur == id) {
            return &slot;
        }
        if (cur == 0 && create) {
            if (slot.id.compare_exchange_strong(cur, id, std::memory_order_acq_rel)) {
                return &slot;
            }
            if (cur == id) {
                return &slot;  // lost the race to ourselves on another thread
            }
        }
        at = (at + 1) % kCostSlots;
    }
    if (create) {
        s.dropped.fetch_add(1, std::memory_order_relaxed);
    }
    return nullptr;
}

/// Charge `delta` to the current query's cost slot; no-op without one.
void note_cost(Cost which, std::uint64_t delta) {
    const QueryContext ctx = t_current;
    if (!ctx.valid() || !query_trace_enabled()) {
        return;
    }
    if (which == kCacheHits || which == kCacheMisses) {
        (which == kCacheHits ? t_cache_hits : t_cache_misses) += 1;
    }
    if (CostSlot* slot = find_cost_slot(ctx.trace_id, /*create=*/true)) {
        slot->cost[which].fetch_add(delta, std::memory_order_relaxed);
    }
}

void push_or_drop(bool pushed) {
    if (!pushed) {
        state().dropped.fetch_add(1, std::memory_order_relaxed);
    }
}

// ---- JSONL rendering -------------------------------------------------------

void write_span(json::Writer& w, const QueryServeSpan& sp) {
    w.begin_object().field("rank", sp.serve_rank).field("leaf", sp.leaf);
    w.field("start_us", static_cast<double>(sp.start_ns) / 1e3);
    w.field("dur_us", static_cast<double>(sp.dur_ns) / 1e3);
    w.field("bytes", sp.bytes).field("cache_hit", sp.cache_hit).end_object();
}

}  // namespace

QueryContext current_query() { return t_current; }

QueryScope::QueryScope(const QueryContext& ctx) : prev_(t_current) { t_current = ctx; }

QueryScope::~QueryScope() { t_current = prev_; }

QueryContext query_begin(int origin_rank) {
    QueryContext ctx;
    const std::uint64_t n =
        state().next_id.fetch_add(1, std::memory_order_relaxed) + 1;
    // Origin rank in the high bits keeps ids readable in logs; the low 40
    // bits are the process-wide mint counter.
    ctx.trace_id =
        (static_cast<std::uint64_t>(origin_rank + 1) << 40) | (n & 0xFFFFFFFFFFull);
    ctx.origin_rank = origin_rank;
    ctx.seq = static_cast<std::uint32_t>(n - 1);
    return ctx;
}

bool query_trace_enabled() { return (components() & kQuery) != 0; }

void set_query_trace_enabled(bool on) { set_component(kQuery, on); }

void query_note_cache(bool hit) { note_cost(hit ? kCacheHits : kCacheMisses, 1); }

void query_thread_cache_counts(std::uint64_t* hits, std::uint64_t* misses) {
    if (hits != nullptr) {
        *hits = t_cache_hits;
    }
    if (misses != nullptr) {
        *misses = t_cache_misses;
    }
}

void query_note_pool_ns(std::uint64_t ns) { note_cost(kPoolNs, ns); }

void query_note_fastpath_window() { note_cost(kWindows, 1); }

void query_record_serve_span(const QueryServeSpan& span) {
    if (query_trace_enabled()) {
        push_or_drop(state().spans.push(span));
    }
}

void query_finalize(QueryRecord record) {
    // Percentile accounting is always on: the run report's p50/p99 must not
    // depend on the query log being armed.
    MetricsRegistry::global()
        .histogram(std::string("query.") + record.op + ".us",
                   MetricsRegistry::hdr_us_bounds())
        .record(static_cast<double>(record.wall_ns) / 1e3);
    if (!query_trace_enabled()) {
        return;
    }
    if (CostSlot* slot = find_cost_slot(record.trace_id, /*create=*/false)) {
        record.cache_hits += slot->cost[kCacheHits].load(std::memory_order_relaxed);
        record.cache_misses += slot->cost[kCacheMisses].load(std::memory_order_relaxed);
        record.pool_task_ns += slot->cost[kPoolNs].load(std::memory_order_relaxed);
        record.fastpath_windows += slot->cost[kWindows].load(std::memory_order_relaxed);
        // Release the slot; a straggling pool-task attribution after this
        // point re-claims a fresh slot under the same id (its delta is lost
        // with the already-emitted record, never charged to another query).
        slot->clear();
        slot->id.store(0, std::memory_order_release);
    }
    push_or_drop(state().records.push(record));
}

std::vector<QueryRecord> query_records() { return state().records.snapshot(); }

std::vector<QueryServeSpan> query_serve_spans() { return state().spans.snapshot(); }

std::uint64_t query_dropped() {
    return state().dropped.load(std::memory_order_relaxed);
}

void reset_query_trace() {
    // Resets are quiescent-time operations (tests, bench reruns).
    QueryState& s = state();
    s.records.reset();
    s.spans.reset();
    for (CostSlot& slot : s.costs) {
        slot.clear();
        slot.id.store(0, std::memory_order_relaxed);
    }
    s.dropped.store(0, std::memory_order_relaxed);
}

std::string query_log_jsonl() {
    const std::vector<QueryRecord> records = query_records();
    std::multimap<std::uint64_t, const QueryServeSpan*> by_id;
    const std::vector<QueryServeSpan> spans = query_serve_spans();
    for (const QueryServeSpan& sp : spans) {
        by_id.emplace(sp.trace_id, &sp);
    }
    const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
    std::string out;
    out.reserve(records.size() * 256 + spans.size() * 96);
    for (const QueryRecord& r : records) {
        json::Writer w(out);
        w.begin_object().field("schema", "bat-query-v1").field("trace_id", r.trace_id);
        w.field("origin_rank", r.origin_rank).field("seq", r.seq).field("op", r.op);
        w.field("start_us", us(r.start_ns)).field("wall_us", us(r.wall_ns));
        w.key("stages").begin_object().field("request_us", us(r.request_ns));
        w.field("serve_us", us(r.serve_ns)).field("merge_us", us(r.merge_ns));
        w.field("local_us", us(r.local_ns)).end_object();
        w.field("leaves_local", r.leaves_local).field("leaves_remote", r.leaves_remote);
        w.field("request_msgs", r.request_msgs).field("bytes_moved", r.bytes_moved);
        w.field("particles", r.particles).field("cache_hits", r.cache_hits);
        w.field("cache_misses", r.cache_misses).field("pool_task_us", us(r.pool_task_ns));
        w.field("fastpath_windows", r.fastpath_windows).key("serve_spans").begin_array();
        const auto [lo, hi] = by_id.equal_range(r.trace_id);
        for (auto it = lo; it != hi; ++it) {
            write_span(w, *it->second);
        }
        by_id.erase(lo, hi);
        w.end_array().end_object();
        out += '\n';
    }
    // Anything still unmatched is a serve span whose query never finalized:
    // surfaced, not dropped, so CI can assert zero unattributed spans.
    for (const auto& [id, sp] : by_id) {
        json::Writer w(out);
        w.begin_object().field("schema", "bat-query-orphan-v1").field("trace_id", id);
        w.field("origin_rank", sp->origin_rank).field("seq", sp->query_seq).key("span");
        write_span(w, *sp);
        w.end_object();
        out += '\n';
    }
    return out;
}

}  // namespace bat::obs
