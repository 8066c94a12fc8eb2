#include "obs/runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace bat::obs {

namespace {

using detail::ThreadRecord;

// Registry and bundle state are heap-allocated once and leaked: threads
// release records and the exit hook exports past any static destruction
// order.
struct Registry {
    std::mutex mutex;
    std::vector<ThreadRecord*> records;  // every record ever created
    std::vector<ThreadRecord*> free;
    std::size_t live = 0;
    std::size_t peak_live = 0;
    std::uint32_t next_tid = 1;
};

Registry& registry() {
    static auto* r = new Registry;
    return *r;
}

struct Bundle {
    std::filesystem::path dir;
    unsigned armed = 0;  // Component bits named in BAT_OBS
};

Bundle& bundle() {
    static auto* b = new Bundle;
    return *b;
}

// Constant-initialized, so the SIGPROF handler may read it on any thread.
thread_local ThreadRecord* t_record = nullptr;

void release_current();

/// Returns the calling thread's record to the free list at thread exit.
struct Releaser {
    bool engaged = false;
    ~Releaser() { release_current(); }
};
thread_local Releaser t_releaser;

ThreadRecord& acquire(const char* kind, bool sampled) {
    Registry& reg = registry();
    ThreadRecord* rec = nullptr;
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        if (!reg.free.empty()) {
            rec = reg.free.back();
            reg.free.pop_back();
        } else {
            rec = new ThreadRecord;
            reg.records.push_back(rec);
        }
        rec->kind = kind;
        rec->tid = reg.next_tid++;
        rec->rank.store(thread_log_rank(), std::memory_order_relaxed);
        rec->live = true;
        rec->sampled = sampled;
        reg.peak_live = std::max(reg.peak_live, ++reg.live);
        t_record = rec;  // before the profiler arms a timer for this thread
        if (sampled) {
            detail::prof_thread_attached(*rec);
        }
    }
    t_releaser.engaged = true;  // constructs the thread_local, arming its destructor
    return *rec;
}

void release_current() {
    ThreadRecord* rec = t_record;
    if (rec == nullptr) {
        return;
    }
    // Unpublish first: a SIGPROF already queued now finds no record.
    t_record = nullptr;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    detail::prof_thread_released(*rec);
    detail::trace_thread_released(*rec);
    rec->depth.store(0, std::memory_order_relaxed);
    rec->task.store(nullptr, std::memory_order_relaxed);
    rec->live = false;
    rec->sampled = false;
    reg.free.push_back(rec);
    --reg.live;
}

/// Run-bundle writer, registered with std::atexit by the arming point.
void write_bundle() {
    stop_watchdog();
    stop_profiler();
    const Bundle& b = bundle();
    std::error_code ec;
    std::filesystem::create_directories(b.dir, ec);
    struct Doc {
        unsigned bit;
        const char* name;
        const char* file;
        std::string (*render)();
    };
    const Doc docs[] = {
        {~0u, "metrics", "metrics.json", [] { return MetricsRegistry::global().to_json(); }},
        {kTrace, "trace", "trace.json", chrome_trace_json},
        {kReport, "report", "report.json", run_report_json},
        {kQuery, "query", "queries.jsonl", query_log_jsonl},
        {kProf, "prof", "prof.json", profile_json},
        {kWatchdog, "watchdog", nullptr, nullptr},
    };
    std::string manifest;
    json::Writer w(manifest);
    w.begin_object().field("schema", "bat-obs-v1").field("pid", static_cast<long>(::getpid()));
    w.key("components").begin_array();
    for (const Doc& d : docs) {
        if (d.bit != ~0u && (b.armed & d.bit) != 0) {
            w.value(d.name);
        }
    }
    w.end_array().key("documents").begin_object();
    for (const Doc& d : docs) {
        if (d.file != nullptr && (b.armed & d.bit) != 0 &&
            write_document(b.dir / d.file, d.render())) {
            w.field(d.name, d.file);
        }
    }
    w.end_object().key("flight_records").begin_array();
    std::vector<std::string> flights;
    for (const auto& entry : std::filesystem::directory_iterator(b.dir, ec)) {
        if (const std::string name = entry.path().filename().string();
            name.rfind("flight-", 0) == 0) {
            flights.push_back(name);
        }
    }
    std::sort(flights.begin(), flights.end());
    for (const std::string& name : flights) {
        w.value(name);
    }
    w.end_array().end_object();
    write_document(b.dir / "manifest.json", manifest);
}

/// The one arming point: BAT_OBS / BAT_OBS_DIR, read once at process start.
bool arm_from_env() {
    const char* spec = std::getenv("BAT_OBS");
    if (spec == nullptr) {
        return false;
    }
    const char* dir = std::getenv("BAT_OBS_DIR");
    Bundle& b = bundle();
    b.dir = std::filesystem::path(dir != nullptr && *dir != '\0' ? dir : ".") /
            ("bat-obs-" + std::to_string(static_cast<long>(::getpid())));
    const std::string list = spec;
    for (std::size_t at = 0; at <= list.size();) {
        const std::size_t end = std::min(list.find(',', at), list.size());
        const std::string name = list.substr(at, end - at);
        at = end + 1;
        const std::pair<const char*, Component> known[] = {
            {"trace", kTrace}, {"report", kReport}, {"query", kQuery},
            {"prof", kProf}, {"watchdog", kWatchdog}};
        const auto* it = std::find_if(std::begin(known), std::end(known),
                                      [&name](const auto& k) { return name == k.first; });
        if (it != std::end(known)) {
            b.armed |= it->second;
        } else if (!name.empty()) {
            BAT_LOG_WARN("BAT_OBS: unknown component '" << name << "'");
        }
    }
    // Construct the statics the exit hook uses before registering it, so
    // they are destroyed only after it has run.
    registry();
    MetricsRegistry::global();
    set_component(kFlight, true);
    health_detail::install_fatal_signal_handlers();
    set_trace_enabled((b.armed & kTrace) != 0);
    set_query_trace_enabled((b.armed & kQuery) != 0);
    if ((b.armed & kWatchdog) != 0) {
        start_watchdog();
    }
    if ((b.armed & kProf) != 0) {
        detail::start_sampling();
    }
    std::atexit(write_bundle);
    return true;
}

[[maybe_unused]] const bool g_env_armed = arm_from_env();

}  // namespace

void set_component(Component c, bool on) {
    if (on) {
        detail::g_components.fetch_or(c, std::memory_order_relaxed);
    } else {
        detail::g_components.fetch_and(~static_cast<unsigned>(c), std::memory_order_relaxed);
    }
}

const std::filesystem::path& bundle_dir() { return bundle().dir; }

std::string expand_output_path(const std::string& path_template) {
    std::string out = path_template;
    const std::string pid = std::to_string(static_cast<long>(::getpid()));
    std::size_t at = 0;
    while ((at = out.find("%p", at)) != std::string::npos) {
        out.replace(at, 2, pid);
        at += pid.size();
    }
    return out;
}

bool write_document(const std::filesystem::path& path, const std::string& text) {
    const std::string target = expand_output_path(path.string());
    std::ofstream f(target, std::ios::binary | std::ios::trunc);
    f << text;
    f.flush();
    if (!f) {
        BAT_LOG_ERROR("obs: cannot write " << target);
        return false;
    }
    BAT_LOG_INFO("obs: wrote " << target << " (" << text.size() << " bytes)");
    return true;
}

// ---- thread registry ----------------------------------------------------------

void attach_thread(const char* kind) {
    if ((components() & kProf) == 0) {
        return;
    }
    ThreadRecord* rec = t_record;
    if (rec == nullptr) {
        acquire(kind, /*sampled=*/true);
        return;
    }
    if (rec->sampled) {  // only the owning thread writes it
        return;
    }
    std::lock_guard<std::mutex> lock(registry().mutex);
    rec->kind = kind;
    rec->sampled = true;
    detail::prof_thread_attached(*rec);
}

ThreadRegistryStats thread_registry_stats() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return ThreadRegistryStats{reg.records.size(), reg.live, reg.peak_live};
}

namespace detail {

ThreadRecord* current_record() { return t_record; }

ThreadRecord& thread_record() {
    if (ThreadRecord* rec = t_record) {
        return *rec;
    }
    return acquire("thread", /*sampled=*/false);
}

void for_each_record(const std::function<void(ThreadRecord&)>& fn) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (ThreadRecord* rec : reg.records) {
        fn(*rec);
    }
}

void push_span(const char* name) {
    ThreadRecord& rec = thread_record();
    const int d = rec.depth.load(std::memory_order_relaxed);
    if (d < ThreadRecord::kMaxDepth) {
        rec.names[d].store(name, std::memory_order_relaxed);
    }
    rec.rank.store(thread_log_rank(), std::memory_order_relaxed);
    rec.depth.store(d + 1, std::memory_order_release);
}

void pop_span() {
    ThreadRecord& rec = thread_record();
    const int d = rec.depth.load(std::memory_order_relaxed);
    if (d > 0) {
        rec.depth.store(d - 1, std::memory_order_release);
    }
}

}  // namespace detail

// ---- span stacks --------------------------------------------------------------

std::vector<ThreadSpanStack> snapshot_span_stacks() {
    std::vector<ThreadSpanStack> out;
    detail::for_each_record([&out](const ThreadRecord& rec) {
        const int depth =
            std::min(rec.depth.load(std::memory_order_acquire), ThreadRecord::kMaxDepth);
        if (!rec.live || depth <= 0) {
            return;
        }
        ThreadSpanStack snap;
        snap.rank = rec.rank.load(std::memory_order_relaxed);
        for (int i = 0; i < depth; ++i) {
            if (const char* name = rec.names[i].load(std::memory_order_relaxed)) {
                snap.spans.emplace_back(name);
            }
        }
        out.push_back(std::move(snap));
    });
    return out;
}

int read_span_chain(const char** out, int max) {
    const ThreadRecord* rec = t_record;
    if (rec == nullptr) {
        return 0;
    }
    int n = 0;
    int base = 0;
    if (const TaskScope::Frame* task = rec->task.load(std::memory_order_acquire)) {
        for (int i = 0; i < task->origin->depth && n < max; ++i) {
            out[n++] = task->origin->frames[i];
        }
        base = task->base;
    }
    const int depth =
        std::min(rec->depth.load(std::memory_order_acquire), ThreadRecord::kMaxDepth);
    for (int i = base; i < depth && n < max; ++i) {
        if (const char* name = rec->names[i].load(std::memory_order_relaxed)) {
            out[n++] = name;
        }
    }
    return n;
}

void capture_span_chain(SpanChain& out) {
    out.depth = span_tracking_enabled() ? read_span_chain(out.frames, SpanChain::kMaxFrames)
                                        : 0;
}

TaskScope::TaskScope(const SpanChain& origin) {
    if (!span_tracking_enabled()) {
        return;
    }
    ThreadRecord& rec = detail::thread_record();
    frame_.origin = &origin;
    frame_.base = rec.depth.load(std::memory_order_relaxed);
    prev_ = rec.task.load(std::memory_order_relaxed);
    // One release store publishes the fully built frame to the handler.
    rec.task.store(&frame_, std::memory_order_release);
    installed_ = true;
}

TaskScope::~TaskScope() {
    if (installed_) {
        detail::thread_record().task.store(prev_, std::memory_order_release);
    }
}

}  // namespace bat::obs
