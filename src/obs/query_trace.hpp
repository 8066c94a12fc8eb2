#pragma once
// Request-scoped query tracing and cost attribution (docs/OBSERVABILITY.md).
//
// Phase tracing and the run report aggregate by phase and rank, so two
// concurrent queries in one DataService round are indistinguishable. This
// layer gives every DataService::query_round / read_particles call an
// identity — a QueryContext with a process-unique trace id, the origin rank
// and a per-origin sequence number — carried across ranks in the leaf
// request framing (io/read_protocol) and through ThreadPool tasks, so work
// done *for* a query anywhere is attributed to it:
//
//   - every remotely served leaf becomes one QueryServeSpan;
//   - leaf-cache hits/misses and pool task time land in a lock-free
//     per-query cost slot via the thread-local current context;
//   - at round exit the origin emits one QueryRecord (stage breakdown,
//     leaves, bytes, cache and pool costs, fast-path windows) into a ring.
//
// Records and spans are stitched by trace id into an append-only JSONL log
// (one bat-query-v1 object per line), queries.jsonl in the run bundle under
// BAT_OBS=query; `bat_obs query` reconstructs critical paths from it.
// Per-operation latency percentiles go to the MetricsRegistry regardless of
// arming, so they always reach the run report.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace bat::obs {

/// Identity of one in-flight query. trace_id is process-unique and nonzero
/// for a valid context; it encodes the origin rank in its high bits so log
/// lines stay human-readable.
struct QueryContext {
    std::uint64_t trace_id = 0;
    std::int32_t origin_rank = -1;
    std::uint32_t seq = 0;  // per-origin query counter
    bool valid() const { return trace_id != 0; }
};

/// The calling thread's current query context (invalid when none).
QueryContext current_query();

/// Install `ctx` as the thread's current context for the enclosing scope;
/// restores the previous context on destruction. Nesting is allowed (the
/// innermost context wins), which is how a serving rank temporarily adopts
/// a *remote* query's identity around each leaf evaluation.
class QueryScope {
public:
    explicit QueryScope(const QueryContext& ctx);
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;
    ~QueryScope();

private:
    QueryContext prev_;
};

/// Mint a fresh context at a query's origin. Cheap (one relaxed atomic
/// increment); does not install the context — wrap the returned value in a
/// QueryScope.
QueryContext query_begin(int origin_rank);

// ---- recording switch -----------------------------------------------------

/// True when ring recording (records, serve spans, cost slots) is on.
/// Armed by BAT_OBS=query; tests and benches toggle it directly. Latency
/// histograms are recorded regardless.
bool query_trace_enabled();
void set_query_trace_enabled(bool on);

// ---- attribution hooks ----------------------------------------------------
// All are no-ops (one thread-local read + branch) when no context is
// installed or recording is off.

/// A LeafFileCache lookup under the current context.
void query_note_cache(bool hit);
/// Pool task wall time executed under the current context.
void query_note_pool_ns(std::uint64_t ns);
/// One contiguous-range fast-path window emitted under the current context.
void query_note_fastpath_window();

/// Monotonic per-thread counts of cache notes recorded via query_note_cache
/// on the calling thread. Serve tasks snapshot the delta around a single
/// leaf evaluation (the cache open runs synchronously inside it, even under
/// comm-thread work-helping) to label that leaf's span as hit or miss.
void query_thread_cache_counts(std::uint64_t* hits, std::uint64_t* misses);

// ---- per-leaf serve spans --------------------------------------------------

/// One remotely served leaf, recorded by the serving rank before the
/// response ships (so a query's spans are all visible once its responses
/// arrived — no cross-rank flush needed).
struct QueryServeSpan {
    std::uint64_t trace_id = 0;
    std::int32_t origin_rank = -1;
    std::uint32_t query_seq = 0;
    std::int32_t serve_rank = -1;
    std::int32_t leaf = -1;
    std::uint64_t start_ns = 0;  // trace_now_ns clock, shared by all ranks
    std::uint64_t dur_ns = 0;
    std::uint64_t bytes = 0;  // serialized response part size
    bool cache_hit = false;
};

void query_record_serve_span(const QueryServeSpan& span);

// ---- query records ---------------------------------------------------------

/// One finished query, emitted by the origin rank at round exit.
struct QueryRecord {
    std::uint64_t trace_id = 0;
    std::int32_t origin_rank = -1;
    std::uint32_t seq = 0;
    const char* op = "";  // string literal: "service.query_round" | "read.read_particles"
    std::uint64_t start_ns = 0;
    std::uint64_t wall_ns = 0;
    // Stage breakdown (request build+send / serve loop / response merge /
    // local leaf evaluation).
    std::uint64_t request_ns = 0;
    std::uint64_t serve_ns = 0;
    std::uint64_t merge_ns = 0;
    std::uint64_t local_ns = 0;
    std::uint32_t leaves_local = 0;
    std::uint32_t leaves_remote = 0;
    std::uint32_t request_msgs = 0;
    std::uint64_t bytes_moved = 0;  // response payload bytes received
    std::uint64_t particles = 0;
    // Cost-slot snapshot: local + remote attribution at finalize time.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t pool_task_ns = 0;
    std::uint64_t fastpath_windows = 0;
};

/// Snapshot the cost slot for `ctx` into the record's cost fields, push the
/// record into the ring, and release the cost slot.
void query_finalize(QueryRecord record);

// ---- export ----------------------------------------------------------------

/// Render the stitched log: one bat-query-v1 JSON object per line, serve
/// spans embedded in their record by trace id; spans whose record was never
/// finalized become bat-query-orphan-v1 lines so nothing is silently
/// dropped.
std::string query_log_jsonl();

/// Ring snapshots for tests and in-process consumers.
std::vector<QueryRecord> query_records();
std::vector<QueryServeSpan> query_serve_spans();

/// Records or spans lost to ring overflow since the last reset.
std::uint64_t query_dropped();

/// Drop all rings and cost slots (tests, repeated benchmark runs).
void reset_query_trace();

}  // namespace bat::obs
