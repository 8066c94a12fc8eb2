#pragma once
// The obs runtime (docs/OBSERVABILITY.md has the bundle layout): one
// arming point, read once at process start from BAT_OBS (components) and
// BAT_OBS_DIR; one exit hook writing DIR/bat-obs-<pid>/; one per-thread
// record (span stack, trace ring, profiler ring and timer) behind one
// constant-initialized thread_local pointer the SIGPROF handler can read.
// Records return to a free list when their thread exits, so the registry
// never holds more records than the peak number of live threads.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace bat::obs {

// ---- components -------------------------------------------------------------

enum Component : unsigned {
    kTrace = 1u << 0,
    kQuery = 1u << 1,
    kProf = 1u << 2,
    kWatchdog = 1u << 3,
    kFlight = 1u << 4,  // flight records + fatal-signal dumps (any BAT_OBS)
    kReport = 1u << 5,  // bundle-only: the run report is always accumulated
};

namespace detail {
inline std::atomic<unsigned> g_components{0};
}

/// Bits of the components currently on; one relaxed load.
inline unsigned components() {
    return detail::g_components.load(std::memory_order_relaxed);
}
void set_component(Component c, bool on);

/// Open-span stacks are kept while anything reads them: the profiler, the
/// watchdog, or flight records.
inline bool span_tracking_enabled() {
    return (components() & (kProf | kWatchdog | kFlight)) != 0;
}

// ---- run bundle -------------------------------------------------------------

/// BAT_OBS_DIR/bat-obs-<pid>, or empty when BAT_OBS is unset.
const std::filesystem::path& bundle_dir();

/// Expand "%p" in an output path template to the process id. Unknown "%x"
/// sequences (and a trailing lone '%') pass through unchanged.
std::string expand_output_path(const std::string& path_template);

/// Write an exported document to `path` ("%p" expanded); logs and returns
/// false when the file cannot be opened.
bool write_document(const std::filesystem::path& path, const std::string& text);

// ---- thread registry ----------------------------------------------------------

/// While the profiler runs, attach the calling thread as `kind` ("rank",
/// "pool", "main") so its CPU is sampled; only attached threads are. With
/// the profiler off, or the thread already attached, this takes no lock and
/// allocates nothing.
void attach_thread(const char* kind);

struct ThreadRegistryStats {
    std::size_t records = 0;    // records ever created (never freed)
    std::size_t live = 0;       // records held by running threads
    std::size_t peak_live = 0;  // most records held at once
};
ThreadRegistryStats thread_registry_stats();

// ---- span stacks --------------------------------------------------------------

struct ThreadSpanStack {
    int rank = -1;
    std::vector<std::string> spans;  // outermost first
};
/// Every live thread's own open spans (a stack mutating mid-snapshot yields
/// a truncated, never torn, view).
std::vector<ThreadSpanStack> snapshot_span_stacks();

/// A pool task's attribution origin: the submitter's span chain at enqueue.
struct SpanChain {
    static constexpr int kMaxFrames = 16;
    const char* frames[kMaxFrames];
    int depth = 0;
};

/// Copy the calling thread's attribution chain into `out` (up to `max`):
/// inside a pool task, the task's origin followed by the spans opened in
/// the task; otherwise the thread's own open spans. Async-signal-safe.
int read_span_chain(const char** out, int max);

/// Capture the calling thread's chain for a task it is about to enqueue
/// (depth 0 when span tracking is off).
void capture_span_chain(SpanChain& out);

/// While alive, the calling thread's chain is `origin` followed by spans
/// opened inside the scope; the thread's own outer frames are hidden.
class TaskScope {
public:
    explicit TaskScope(const SpanChain& origin);
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;
    ~TaskScope();

    struct Frame {
        const SpanChain* origin = nullptr;
        int base = 0;  // own-stack depth at task start
    };

private:
    Frame frame_;
    const Frame* prev_ = nullptr;
    bool installed_ = false;
};

namespace detail {

struct TraceRing;  // obs/trace.cpp
struct ProfRing;   // obs/prof.cpp

struct ThreadRecord {
    static constexpr int kMaxDepth = 48;
    // Open spans, written by the owning thread only.
    std::atomic<const char*> names[kMaxDepth] = {};
    std::atomic<int> depth{0};
    std::atomic<int> rank{-1};
    std::atomic<const TaskScope::Frame*> task{nullptr};
    // Trace ring: created by the owner on its first event and kept across
    // reuse; a finished owner's events move out to the exporter's list.
    std::atomic<TraceRing*> trace{nullptr};
    // Profiler ring + timer: created under the registry lock on first
    // arming, kept across reuse, read lock-free by the SIGPROF handler.
    std::atomic<ProfRing*> prof{nullptr};
    // Below: written under the registry lock (`sampled` by the owner only).
    const char* kind = "thread";
    std::uint32_t tid = 0;  // trace track id, fresh for each owning thread
    bool live = false;
    bool sampled = false;  // attached for profiling
};

/// The calling thread's record, or null. Async-signal-safe.
ThreadRecord* current_record();
/// The calling thread's record, created on first use.
ThreadRecord& thread_record();
/// Run `fn` on every record, live or free, under the registry lock.
void for_each_record(const std::function<void(ThreadRecord&)>& fn);

/// SpanScope / PhaseSpan hooks while span_tracking_enabled(); `name` must
/// be a string literal (the pointer is stored, not the contents).
void push_span(const char* name);
void pop_span();

/// Profiler and tracer hooks (obs/prof.cpp, obs/trace.cpp), called under
/// the registry lock when a thread attaches for sampling and when a record
/// loses its thread.
void prof_thread_attached(ThreadRecord& rec);
void prof_thread_released(ThreadRecord& rec);
void trace_thread_released(ThreadRecord& rec);
/// Start sampling attached threads without attaching the caller (the
/// BAT_OBS=prof arming point).
void start_sampling();

}  // namespace detail

}  // namespace bat::obs
