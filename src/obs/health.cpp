#include "obs/health.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/lock_order.hpp"
#include "util/log.hpp"

namespace bat::obs {

namespace {

// All health state is heap-allocated once and deliberately leaked: progress
// notes arrive from pool workers and rank threads that may outlive any
// static destruction order, and the atexit report/flight hooks must never
// race a destructor.

constexpr int kMaxRanks = 1024;

// The report's "messages" section, in order; pool tasks go under "pool".
enum Traffic { kSends, kSendBytes, kRecvs, kRecvBytes, kCollectives, kLeavesServed, kPoolTasks,
               kTrafficCount };
constexpr const char* kTrafficNames[] = {"sends",       "send_bytes",    "recvs",
                                         "recv_bytes",  "collectives",   "leaves_served"};

struct RankSlot {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<int> active{0};  // nesting count; >0 while a rank body runs
    // What the rank is blocked on, as structured fields (op is a string
    // literal; null = not blocked). Relaxed stores on the wait path; the
    // watchdog renders text only at diagnosis time. A torn read across the
    // three fields can at worst mislabel one diagnosis line.
    std::atomic<const char*> block_op{nullptr};
    std::atomic<int> block_peer{-1};
    std::atomic<int> block_tag{-1};
};

struct PhaseAcc {
    double seconds = 0;
    std::uint64_t calls = 0;
};

struct DiagProvider {
    std::uint64_t id = 0;
    std::string name;
    std::function<std::string()> fn;
};

struct Watchdog {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;
    WatchdogOptions opts;
};

struct HealthState {
    // Progress table: per-rank slots plus one shared slot for rank-less
    // threads (pool workers, the main thread). Every per-slot bump also
    // bumps `total_epoch`, so the watchdog needs one load to detect global
    // progress.
    RankSlot ranks[kMaxRanks];
    RankSlot process;
    std::atomic<std::uint64_t> total_epoch{0};
    std::atomic<int> max_rank{-1};

    // Message/pool accounting for the report's traffic section.
    std::atomic<std::uint64_t> traffic[kTrafficCount] = {};

    // Report accumulators (coarse mutexes: phase closes and rank-value
    // records happen a handful of times per collective, not per particle).
    std::mutex phases_mutex;
    std::map<std::string, std::map<int, PhaseAcc>> phases;
    std::mutex values_mutex;
    std::map<std::string, std::map<int, std::uint64_t>> rank_values;

    // Subsystem diag providers.
    std::mutex providers_mutex;
    std::vector<DiagProvider> providers;
    std::uint64_t next_provider_id = 1;

    // Watchdog.
    std::mutex watchdog_mutex;  // guards start/stop and the pointer below
    Watchdog* watchdog = nullptr;
    // Whether the watchdog ran at any point this run: the exit hook stops
    // the watchdog before writing the report, so the report uses this, not
    // watchdog_running(), for its "armed" field.
    std::atomic<bool> watchdog_armed_ever{false};
    std::atomic<std::uint64_t> trips{0};
    std::atomic<std::uint64_t> flight_seq{0};

    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
};

HealthState& state() {
    static HealthState* s = new HealthState;
    return *s;
}

RankSlot& slot_for(int rank) {
    HealthState& s = state();
    if (rank < 0 || rank >= kMaxRanks) {
        return s.process;
    }
    int seen = s.max_rank.load(std::memory_order_relaxed);
    while (rank > seen &&
           !s.max_rank.compare_exchange_weak(seen, rank, std::memory_order_relaxed)) {
    }
    return s.ranks[rank];
}

void bump(int rank) {
    HealthState& s = state();
    slot_for(rank).epoch.fetch_add(1, std::memory_order_relaxed);
    s.total_epoch.fetch_add(1, std::memory_order_relaxed);
}

// ---- signal handlers ------------------------------------------------------

constexpr std::pair<int, const char*> kFatalSignals[] = {
    {SIGSEGV, "SIGSEGV"}, {SIGABRT, "SIGABRT"}, {SIGBUS, "SIGBUS"},
    {SIGFPE, "SIGFPE"},   {SIGILL, "SIGILL"}};
struct sigaction g_old_actions[std::size(kFatalSignals)];

void fatal_signal_handler(int sig) {
    // Best-effort: the dump takes locks and allocates, which is not
    // async-signal-safe, but on a crash path losing the dump is no worse
    // than never having one. The guard stops recursive faults.
    // Then restore the previous disposition (sanitizer handlers included)
    // and re-raise so the crash reports as it would have without us.
    static std::atomic<bool> in_handler{false};
    for (std::size_t i = 0; i < std::size(kFatalSignals); ++i) {
        if (kFatalSignals[i].first != sig) {
            continue;
        }
        if (!in_handler.exchange(true)) {
            // The lock-order checker aborts while holding its registry lock;
            // the dump's own checked locks must not wait on it.
            lockdbg::set_enabled(false);
            dump_flight_record(std::string("signal:") + kFatalSignals[i].second);
        }
        sigaction(sig, &g_old_actions[i], nullptr);
    }
    raise(sig);
}

// ---- snapshots ------------------------------------------------------------

struct RankSnapshot {
    int rank;
    bool active;
    std::uint64_t epoch;
    std::string blocked_on;
};

/// Render a structured blocked-on record ("irecv", src, tag) to the text
/// shown in diagnoses. The op vocabulary is vmpi's; keeping the rendering
/// here means the wait path never touches strings.
std::string render_blocked(const char* op, int peer, int tag) {
    std::string out = op;
    if (std::strcmp(op, "ibarrier") == 0) {
        out += "(seq=" + std::to_string(tag) + ")";
        return out;
    }
    out += "(src=";
    out += peer < 0 ? std::string("ANY") : std::to_string(peer);
    out += ", tag=" + std::to_string(tag) + ")";
    return out;
}

std::vector<RankSnapshot> snapshot_ranks() {
    HealthState& s = state();
    std::vector<RankSnapshot> out;
    const int top = s.max_rank.load(std::memory_order_relaxed);
    for (int r = 0; r <= std::min(top, kMaxRanks - 1); ++r) {
        RankSnapshot snap;
        snap.rank = r;
        snap.active = s.ranks[r].active.load(std::memory_order_relaxed) > 0;
        snap.epoch = s.ranks[r].epoch.load(std::memory_order_relaxed);
        if (const char* op = s.ranks[r].block_op.load(std::memory_order_acquire)) {
            snap.blocked_on =
                render_blocked(op, s.ranks[r].block_peer.load(std::memory_order_relaxed),
                               s.ranks[r].block_tag.load(std::memory_order_relaxed));
        }
        out.push_back(std::move(snap));
    }
    return out;
}

/// Invoke every registered provider while holding the registry lock. The
/// lock is what makes unregister_diag_provider a synchronization point:
/// once it returns, the provider cannot be mid-call, so a subsystem may
/// unregister in its destructor and then tear down the state its provider
/// reads. Providers must therefore never block (try_lock only) and never
/// (un)register providers themselves.
template <typename Visit>
void for_each_provider(Visit visit) {
    HealthState& s = state();
    std::lock_guard<std::mutex> lock(s.providers_mutex);
    for (const DiagProvider& p : s.providers) {
        visit(p);
    }
}

// ---- stall diagnosis ------------------------------------------------------

StallReport build_stall_report(std::chrono::milliseconds stalled_for) {
    StallReport report;
    std::ostringstream os;
    const std::vector<RankSnapshot> ranks = snapshot_ranks();
    int active = 0;
    for (const RankSnapshot& r : ranks) {
        if (r.active) {
            ++active;
            report.stuck_ranks.push_back(r.rank);
        }
    }
    os << "bat watchdog: no progress for " << stalled_for.count() << " ms across "
       << active << " active rank(s)\n";
    for (const RankSnapshot& r : ranks) {
        if (!r.active) {
            continue;
        }
        os << "  rank " << r.rank << " stuck (epoch " << r.epoch << ")";
        if (!r.blocked_on.empty()) {
            os << ", blocked on " << r.blocked_on;
        }
        os << "\n";
    }
    const std::vector<ThreadSpanStack> stacks = snapshot_span_stacks();
    for (const ThreadSpanStack& st : stacks) {
        if (st.spans.empty()) {
            continue;
        }
        os << "  open spans (rank " << st.rank << "):";
        for (const std::string& span : st.spans) {
            os << " > " << span;
        }
        os << "\n";
    }
    for_each_provider([&os](const DiagProvider& p) {
        try {
            os << "  " << p.name << ": " << p.fn() << "\n";
        } catch (const std::exception& e) {
            os << "  " << p.name << ": <provider failed: " << e.what() << ">\n";
        }
    });
    report.text = os.str();
    return report;
}

void watchdog_loop(Watchdog* dog) {
    HealthState& s = state();
    std::uint64_t last_total = s.total_epoch.load(std::memory_order_relaxed);
    int stale = 0;
    bool tripped = false;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(dog->mutex);
            dog->cv.wait_for(lock, dog->opts.interval, [dog] { return dog->stop; });
            if (dog->stop) {
                return;
            }
        }
        const std::uint64_t total = s.total_epoch.load(std::memory_order_relaxed);
        int active = 0;
        const int top = s.max_rank.load(std::memory_order_relaxed);
        for (int r = 0; r <= std::min(top, kMaxRanks - 1); ++r) {
            if (s.ranks[r].active.load(std::memory_order_relaxed) > 0) {
                ++active;
            }
        }
        if (total != last_total || active == 0) {
            last_total = total;
            stale = 0;
            tripped = false;
            continue;
        }
        ++stale;
        if (stale < dog->opts.stale_intervals || tripped) {
            continue;
        }
        tripped = true;  // one diagnosis per stall; re-arm on progress
        s.trips.fetch_add(1, std::memory_order_relaxed);
        const auto stalled_for = dog->opts.interval * stale;
        const StallReport report = build_stall_report(
            std::chrono::duration_cast<std::chrono::milliseconds>(stalled_for));
        BAT_LOG_ERROR(report.text);
        dump_flight_record("watchdog", dog->opts.flight_record_path);
        if (dog->opts.on_stall) {
            dog->opts.on_stall(report);
        }
    }
}

}  // namespace

// ---- progress epochs ------------------------------------------------------

void note_send(int rank, std::uint64_t bytes) {
    HealthState& s = state();
    s.traffic[kSends].fetch_add(1, std::memory_order_relaxed);
    s.traffic[kSendBytes].fetch_add(bytes, std::memory_order_relaxed);
    bump(rank);
}

void note_recv(int rank, std::uint64_t bytes) {
    HealthState& s = state();
    s.traffic[kRecvs].fetch_add(1, std::memory_order_relaxed);
    s.traffic[kRecvBytes].fetch_add(bytes, std::memory_order_relaxed);
    bump(rank);
}

void note_collective(int rank) {
    state().traffic[kCollectives].fetch_add(1, std::memory_order_relaxed);
    bump(rank);
}

void note_pool_task() {
    state().traffic[kPoolTasks].fetch_add(1, std::memory_order_relaxed);
    bump(-1);
}

void note_leaves_served(int rank, std::uint64_t leaves) {
    state().traffic[kLeavesServed].fetch_add(leaves, std::memory_order_relaxed);
    bump(rank);
}

void rank_begin(int rank) {
    slot_for(rank).active.fetch_add(1, std::memory_order_relaxed);
    bump(rank);
}

void rank_end(int rank) {
    slot_for(rank).active.fetch_sub(1, std::memory_order_relaxed);
    clear_blocked_op(rank);
    bump(rank);
}

void set_blocked_op(int rank, const char* op, int peer, int tag) {
    if (rank < 0 || rank >= kMaxRanks) {
        return;
    }
    RankSlot& slot = state().ranks[rank];
    slot.block_peer.store(peer, std::memory_order_relaxed);
    slot.block_tag.store(tag, std::memory_order_relaxed);
    slot.block_op.store(op, std::memory_order_release);
}

void clear_blocked_op(int rank) {
    if (rank < 0 || rank >= kMaxRanks) {
        return;
    }
    state().ranks[rank].block_op.store(nullptr, std::memory_order_relaxed);
}

// ---- run report -----------------------------------------------------------

void record_rank_value(const char* name, std::uint64_t value) {
    HealthState& s = state();
    const int rank = thread_log_rank();
    std::lock_guard<std::mutex> lock(s.values_mutex);
    s.rank_values[name][rank] += value;
}

std::string run_report_json() {
    HealthState& s = state();
    std::string out;
    out.reserve(1 << 14);
    json::Writer w(out);
    w.begin_object().field("schema", "bat-report-v1");
    w.key("run").begin_object();
    w.field("wall_seconds", std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - s.start)
                                .count());
    w.field("ranks", s.max_rank.load(std::memory_order_relaxed) + 1);
    w.field("pid", static_cast<long>(::getpid()));
    w.key("watchdog").begin_object();
    w.field("armed", s.watchdog_armed_ever.load(std::memory_order_relaxed));
    w.field("trips", s.trips.load(std::memory_order_relaxed));
    w.end_object().end_object();

    // Per-phase wall times with per-rank min/mean/max — the imbalance view.
    // Seconds come from the same PhaseSpan accumulation that fills
    // WritePhaseTimings / ReadPhaseTimings, so the two agree exactly.
    std::map<std::string, std::map<int, PhaseAcc>> phases;
    {
        std::lock_guard<std::mutex> lock(s.phases_mutex);
        phases = s.phases;
    }
    w.key("phases").begin_object();
    for (const auto& [name, per_rank] : phases) {
        double sum = 0;
        double min = 1e300;
        double max = 0;
        std::uint64_t calls = 0;
        for (const auto& [rank, acc] : per_rank) {
            sum += acc.seconds;
            min = std::min(min, acc.seconds);
            max = std::max(max, acc.seconds);
            calls += acc.calls;
        }
        const auto nranks = static_cast<double>(per_rank.size());
        w.key(name).begin_object().field("calls", calls).field("ranks", per_rank.size());
        w.field("seconds", sum).field("min_s", per_rank.empty() ? 0 : min);
        w.field("mean_s", per_rank.empty() ? 0 : sum / nranks).field("max_s", max);
        w.end_object();
    }
    w.end_object();

    // Per-rank I/O volumes (record_rank_value), same min/mean/max shape.
    std::map<std::string, std::map<int, std::uint64_t>> values;
    {
        std::lock_guard<std::mutex> lock(s.values_mutex);
        values = s.rank_values;
    }
    w.key("io").begin_object();
    for (const auto& [name, per_rank] : values) {
        std::uint64_t sum = 0;
        std::uint64_t min = ~std::uint64_t{0};
        std::uint64_t max = 0;
        for (const auto& [rank, v] : per_rank) {
            sum += v;
            min = std::min(min, v);
            max = std::max(max, v);
        }
        w.key(name).begin_object().field("total", sum).field("ranks", per_rank.size());
        w.field("min", per_rank.empty() ? 0 : min);
        w.field("mean", per_rank.empty() ? 0.0
                                         : static_cast<double>(sum) /
                                               static_cast<double>(per_rank.size()));
        w.field("max", max).end_object();
    }
    w.end_object();

    w.key("messages").begin_object();
    for (int i = 0; i < kPoolTasks; ++i) {
        w.field(kTrafficNames[i], s.traffic[i].load(std::memory_order_relaxed));
    }
    const std::uint64_t tasks = s.traffic[kPoolTasks].load(std::memory_order_relaxed);
    w.end_object().key("pool").begin_object().field("tasks", tasks).end_object();

    // Cache hit rate from the obs counters the leaf cache records.
    MetricsRegistry& metrics = MetricsRegistry::global();
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto& [name, v] : metrics.counter_values()) {
        if (name == "read.leaf_cache_hit") {
            hits = v;
        } else if (name == "read.leaf_cache_miss") {
            misses = v;
        }
    }
    w.key("cache").begin_object().field("hits", hits).field("misses", misses);
    w.field("hit_rate", hits + misses == 0 ? 0.0
                                           : static_cast<double>(hits) /
                                                 static_cast<double>(hits + misses));
    w.end_object();
    metrics.write_members(w);  // counters, gauges, histograms
    w.end_object();
    return out;
}

void reset_run_report() {
    HealthState& s = state();
    {
        std::lock_guard<std::mutex> lock(s.phases_mutex);
        s.phases.clear();
    }
    {
        std::lock_guard<std::mutex> lock(s.values_mutex);
        s.rank_values.clear();
    }
    for (auto& t : s.traffic) {
        t.store(0, std::memory_order_relaxed);
    }
    s.trips.store(0, std::memory_order_relaxed);
    s.watchdog_armed_ever.store(watchdog_running(), std::memory_order_relaxed);
    s.start = std::chrono::steady_clock::now();
}

// ---- watchdog -------------------------------------------------------------

void start_watchdog(WatchdogOptions opts) {
    stop_watchdog();
    HealthState& s = state();
    std::lock_guard<std::mutex> lock(s.watchdog_mutex);
    auto* dog = new Watchdog;
    dog->opts = std::move(opts);
    s.trips.store(0, std::memory_order_relaxed);
    s.watchdog = dog;
    set_component(kWatchdog, true);
    s.watchdog_armed_ever.store(true, std::memory_order_relaxed);
    dog->thread = std::thread([dog] { watchdog_loop(dog); });
}


void stop_watchdog() {
    HealthState& s = state();
    Watchdog* dog = nullptr;
    {
        std::lock_guard<std::mutex> lock(s.watchdog_mutex);
        dog = s.watchdog;
        s.watchdog = nullptr;
        set_component(kWatchdog, false);
    }
    if (dog == nullptr) {
        return;
    }
    {
        std::lock_guard<std::mutex> lock(dog->mutex);
        dog->stop = true;
    }
    dog->cv.notify_all();
    dog->thread.join();
    delete dog;
}

bool watchdog_running() { return (components() & kWatchdog) != 0; }

std::uint64_t watchdog_trips() {
    return state().trips.load(std::memory_order_relaxed);
}

// ---- flight recorder ------------------------------------------------------

std::string flight_record_json(const std::string& reason) {
    HealthState& s = state();
    std::string out;
    out.reserve(1 << 14);
    json::Writer w(out);
    w.begin_object().field("schema", "bat-flight-v1").field("reason", reason);
    w.field("pid", static_cast<long>(::getpid()));
    w.field("wall_seconds", std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - s.start)
                                .count());
    w.field("watchdog_trips", s.trips.load(std::memory_order_relaxed));
    const std::vector<RankSnapshot> ranks = snapshot_ranks();
    w.key("stuck_ranks").begin_array();
    for (const RankSnapshot& r : ranks) {
        if (r.active) {
            w.value(r.rank);
        }
    }
    w.end_array().key("ranks").begin_array();
    for (const RankSnapshot& r : ranks) {
        w.begin_object().field("rank", r.rank).field("active", r.active);
        w.field("epoch", r.epoch).field("blocked_on", r.blocked_on).end_object();
    }
    w.end_array().key("threads").begin_array();
    for (const ThreadSpanStack& st : snapshot_span_stacks()) {
        w.begin_object().field("rank", st.rank).key("spans").begin_array();
        for (const std::string& span : st.spans) {
            w.value(span);
        }
        w.end_array().end_object();
    }
    w.end_array().key("subsystems").begin_array();
    for_each_provider([&w](const DiagProvider& p) {
        w.begin_object().field("name", p.name).key("state");
        try {
            w.raw(p.fn());
        } catch (const std::exception& e) {
            w.begin_object().field("error", e.what()).end_object();
        }
        w.end_object();
    });
    // Tail of each thread's trace ring (empty array when tracing never ran).
    w.end_array().key("trace_tail").raw(trace_tail_json(256));
    w.key("metrics").raw(MetricsRegistry::global().to_json());
    w.end_object();
    return out;
}

bool dump_flight_record(const std::string& reason, const std::filesystem::path& path) {
    std::filesystem::path target = path;
    if (target.empty()) {
        if (bundle_dir().empty()) {
            return false;
        }
        std::error_code ec;
        std::filesystem::create_directories(bundle_dir(), ec);
        const std::uint64_t n = state().flight_seq.fetch_add(1, std::memory_order_relaxed) + 1;
        target = bundle_dir() / ("flight-" + std::to_string(n) + ".json");
    }
    BAT_LOG_WARN("flight record: " << reason);
    return write_document(target, flight_record_json(reason));
}

// ---- diag providers -------------------------------------------------------

std::uint64_t register_diag_provider(std::string name, std::function<std::string()> fn) {
    HealthState& s = state();
    std::lock_guard<std::mutex> lock(s.providers_mutex);
    const std::uint64_t id = s.next_provider_id++;
    s.providers.push_back(DiagProvider{id, std::move(name), std::move(fn)});
    return id;
}

void unregister_diag_provider(std::uint64_t id) {
    HealthState& s = state();
    std::lock_guard<std::mutex> lock(s.providers_mutex);
    s.providers.erase(std::remove_if(s.providers.begin(), s.providers.end(),
                                     [id](const DiagProvider& p) { return p.id == id; }),
                      s.providers.end());
}

namespace health_detail {

void install_fatal_signal_handlers() {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = fatal_signal_handler;
    sigemptyset(&sa.sa_mask);
    for (std::size_t i = 0; i < std::size(kFatalSignals); ++i) {
        sigaction(kFatalSignals[i].first, &sa, &g_old_actions[i]);
    }
}

void record_phase(const char* name, double seconds) {
    HealthState& s = state();
    const int rank = thread_log_rank();
    {
        std::lock_guard<std::mutex> lock(s.phases_mutex);
        PhaseAcc& acc = s.phases[name][rank];
        acc.seconds += seconds;
        acc.calls += 1;
    }
    // A phase completing is progress (covers compute-only phases that send
    // no messages, e.g. a long local tree build).
    bump(rank);
}

}  // namespace health_detail

}  // namespace bat::obs
