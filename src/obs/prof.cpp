#include "obs/prof.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include <signal.h>
#include <time.h>
#include <unistd.h>

// Per-thread CPU-clock timers with SIGEV_THREAD_ID delivery are a Linux
// extension; elsewhere the profiler compiles to stubs that warn at start.
#if defined(__linux__)
#define BAT_PROF_HAVE_TIMERS 1
#include <pthread.h>
#include <sys/syscall.h>
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#else
#define BAT_PROF_HAVE_TIMERS 0
#endif

#include "obs/health.hpp"
#include "obs/query_trace.hpp"
#include "obs/runtime.hpp"
#include "util/log.hpp"

namespace bat::obs {

namespace {

constexpr int kMaxSpanFrames = SpanChain::kMaxFrames;
constexpr int kDiagTopK = 8;

struct RawSample {
    std::uint64_t qtrace = 0;
    std::int32_t rank = -1;
    std::int32_t depth = 0;
    const char* frames[kMaxSpanFrames];
};

}  // namespace

/// Per-thread sampling state, kept in the thread's obs record and reused by
/// later owners. The SIGPROF handler (running on the owning thread) is the
/// single producer; drain passes, serialized by the registry lock, are the
/// single consumer. head is store-release by the handler / load-acquire by
/// drains, tail the reverse, so slots publish without the handler locking.
struct detail::ProfRing {
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> dropped{0};
    RawSample* slots = nullptr;
    std::size_t nslots = 0;
    /// Handler gate, cleared before the timer is deleted so a SIGPROF
    /// queued at release time finds it closed.
    std::atomic<bool> armed{false};
    bool counted = false;  // this owner counted in the "kinds" rollup
#if BAT_PROF_HAVE_TIMERS
    bool timer_created = false;
    timer_t timer{};
    pthread_t pthread{};
    pid_t tid = 0;
#endif
};

namespace {

using detail::ProfRing;
using detail::ThreadRecord;

/// Aggregation key: (rank, span labels outermost first). Labels are
/// compared by content: identical literals in different translation units
/// need not share an address.
using StackKey = std::pair<std::int32_t, std::vector<std::string>>;

struct Agg {
    std::map<StackKey, std::uint64_t> stacks;
    std::map<std::uint64_t, std::uint64_t> queries;
    std::map<std::string, std::uint64_t> kind_samples;
    std::map<std::string, std::uint64_t> kind_threads;
    std::uint64_t samples = 0;
    std::uint64_t attributed = 0;
    std::uint64_t dropped = 0;
};

struct ProfState {
    std::mutex lifecycle_mutex;  // serializes start/stop/reset
    std::atomic<bool> running{false};
    ProfOptions opts;
    std::uint64_t interval_ns = 0;

    // Drain thread. Lock order: registry -> agg.
    std::thread drain_thread;
    std::mutex drain_cv_mutex;
    std::condition_variable drain_cv;
    bool drain_stop = false;

    std::mutex agg_mutex;
    Agg agg;

    std::chrono::steady_clock::time_point session_start{};
    double wall_seconds = 0;  // accumulated across stopped sessions
    std::uint64_t diag_id = 0;
};

/// Heap-allocated and leaked so exit-time exports never race static
/// destruction.
ProfState& pstate() {
    static auto* s = new ProfState;
    return *s;
}

// ---- signal handler --------------------------------------------------------
// Everything here must be async-signal-safe: constant-initialized
// thread_local reads (the obs record, the log rank, the query context),
// atomics, and stores into the preallocated ring. errno is saved.

void sigprof_handler(int /*sig*/, siginfo_t* /*info*/, void* /*ctx*/) {
    const ThreadRecord* rec = detail::current_record();
    ProfRing* pr = rec != nullptr ? rec->prof.load(std::memory_order_acquire) : nullptr;
    if (pr == nullptr || !pr->armed.load(std::memory_order_acquire)) {
        return;
    }
    const int saved_errno = errno;
    const std::uint64_t head = pr->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = pr->tail.load(std::memory_order_acquire);
    if (head - tail >= pr->nslots) {
        pr->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
        RawSample& s = pr->slots[head % pr->nslots];
        s.rank = thread_log_rank();
        s.qtrace = current_query().trace_id;
        s.depth = read_span_chain(s.frames, kMaxSpanFrames);
        pr->head.store(head + 1, std::memory_order_release);
    }
    errno = saved_errno;
}

void install_sigaction_once() {
#if BAT_PROF_HAVE_TIMERS
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_sigaction = sigprof_handler;
        // SA_RESTART: the rest of the codebase must never see EINTR from a
        // profiling tick mid-read/write.
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGPROF, &sa, nullptr);
    });
#endif
}

// ---- arming ----------------------------------------------------------------

/// Create (if needed) and arm the timer of a live record's ring. Caller
/// holds the registry lock.
void arm_thread(ProfState& s, ThreadRecord& rec) {
#if BAT_PROF_HAVE_TIMERS
    ProfRing* pt = rec.prof.load(std::memory_order_relaxed);
    if (pt->slots == nullptr) {
        // Raw, uninitialized storage: the handler writes every field it
        // publishes, so only slots that receive samples fault in.
        pt->nslots = s.opts.ring_slots;
        pt->slots = static_cast<RawSample*>(::operator new(pt->nslots * sizeof(RawSample)));
    }
    if (!pt->counted) {
        pt->counted = true;
        std::lock_guard<std::mutex> agg(s.agg_mutex);
        s.agg.kind_threads[rec.kind] += 1;
    }
    if (!pt->timer_created) {
        clockid_t cid;
        if (::pthread_getcpuclockid(pt->pthread, &cid) != 0) {
            BAT_LOG_WARN("prof: pthread_getcpuclockid failed for a " << rec.kind
                                                                     << " thread");
            return;
        }
        struct sigevent sev;
        std::memset(&sev, 0, sizeof(sev));
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = SIGPROF;
        sev.sigev_notify_thread_id = pt->tid;
        if (::timer_create(cid, &sev, &pt->timer) != 0) {
            BAT_LOG_WARN("prof: timer_create failed for a " << rec.kind << " thread");
            return;
        }
        pt->timer_created = true;
    }
    struct itimerspec its;
    its.it_interval.tv_sec = static_cast<time_t>(s.interval_ns / 1'000'000'000ull);
    its.it_interval.tv_nsec = static_cast<long>(s.interval_ns % 1'000'000'000ull);
    // Stagger the first expiry per arming (splitmix-style hash of tid plus
    // an arming sequence number): a full-interval initial delay would blind
    // the profiler to the first ~1/hz seconds of every thread's CPU life,
    // systematically undercounting the early phases of short-lived rank
    // threads. The sequence number matters because the kernel recycles tids:
    // without it, a re-spawned worker pool whose tids all hash to a late
    // phase would miss its entire CPU life on every single run.
    static std::atomic<std::uint64_t> arm_seq{0};
    std::uint64_t h = static_cast<std::uint64_t>(pt->tid) +
                      arm_seq.fetch_add(1, std::memory_order_relaxed) *
                          0x2545f4914f6cdd1dull +
                      0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    const std::uint64_t first_ns = (h ^ (h >> 31)) % s.interval_ns + 1;
    its.it_value.tv_sec = static_cast<time_t>(first_ns / 1'000'000'000ull);
    its.it_value.tv_nsec = static_cast<long>(first_ns % 1'000'000'000ull);
    // Open the handler gate before the first expiry can fire; the release
    // store publishes the ring to the handler.
    pt->armed.store(true, std::memory_order_release);
    ::timer_settime(pt->timer, 0, &its, nullptr);
#else
    (void)s;
    (void)rec;
#endif
}

/// Pause sampling without destroying the timer. Caller holds the registry lock.
void disarm_thread(ProfRing& pt) {
    pt.armed.store(false, std::memory_order_release);
#if BAT_PROF_HAVE_TIMERS
    if (pt.timer_created) {
        struct itimerspec zero;
        std::memset(&zero, 0, sizeof(zero));
        ::timer_settime(pt.timer, 0, &zero, nullptr);
    }
#endif
}

// ---- folding ---------------------------------------------------------------

/// Fold one ring into the aggregates. Caller holds the registry lock + agg_mutex.
void fold_ring(Agg& agg, const char* kind, ProfRing& pt) {
    if (pt.slots == nullptr) {
        return;
    }
    const std::uint64_t head = pt.head.load(std::memory_order_acquire);
    std::uint64_t tail = pt.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
        const RawSample& raw = pt.slots[tail % pt.nslots];
        agg.samples += 1;
        agg.kind_samples[kind] += 1;
        if (raw.qtrace != 0) {
            agg.queries[raw.qtrace] += 1;
        }
        const int depth = std::min(raw.depth, kMaxSpanFrames);
        if (depth > 0) {
            agg.attributed += 1;
            agg.stacks[StackKey{raw.rank, {raw.frames, raw.frames + depth}}] += 1;
        }
    }
    pt.tail.store(tail, std::memory_order_release);
    agg.dropped += pt.dropped.exchange(0, std::memory_order_relaxed);
}

/// Fold every ring into the aggregates.
void drain_all(ProfState& s) {
    detail::for_each_record([&s](ThreadRecord& rec) {
        if (ProfRing* pt = rec.prof.load(std::memory_order_relaxed)) {
            std::lock_guard<std::mutex> agg(s.agg_mutex);
            fold_ring(s.agg, rec.kind, *pt);
        }
    });
}

void drain_loop(ProfState& s) {
    std::unique_lock<std::mutex> lk(s.drain_cv_mutex);
    for (;;) {
        s.drain_cv.wait_for(lk, s.opts.drain_interval, [&s] { return s.drain_stop; });
        if (s.drain_stop) {
            return;
        }
        lk.unlock();
        drain_all(s);
        lk.lock();
    }
}

double session_wall(const ProfState& s) {
    double wall = s.wall_seconds;
    if (s.running.load(std::memory_order_relaxed)) {
        wall += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              s.session_start)
                    .count();
    }
    return wall;
}

void stop_locked(ProfState& s) {
    if (!s.running.load(std::memory_order_relaxed)) {
        return;
    }
    // Attaching threads check `running` under the registry lock, so none
    // can arm after the disarm pass below.
    s.running.store(false, std::memory_order_relaxed);
    set_component(kProf, false);
    detail::for_each_record([](ThreadRecord& rec) {
        if (ProfRing* pt = rec.prof.load(std::memory_order_relaxed)) {
            disarm_thread(*pt);
        }
    });
    {
        std::lock_guard<std::mutex> lk(s.drain_cv_mutex);
        s.drain_stop = true;
    }
    s.drain_cv.notify_all();
    if (s.drain_thread.joinable()) {
        s.drain_thread.join();
    }
    drain_all(s);  // final fold of every ring
    if (s.diag_id != 0) {
        unregister_diag_provider(s.diag_id);
        s.diag_id = 0;
    }
    s.wall_seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    s.session_start)
                          .count();
}

void write_frames(json::Writer& w, const std::vector<std::string>& frames) {
    w.key("frames").begin_array();
    for (const std::string& f : frames) {
        w.value(f);
    }
    w.end_array();
}

/// Diag-provider payload: totals + top-k hottest stacks, the "profile tail"
/// a watchdog trip or flight record embeds. try_lock only — a provider must
/// never block the watchdog behind a drain or export in progress.
std::string prof_diag_json() {
    ProfState& s = pstate();
    std::unique_lock<std::mutex> agg_lock(s.agg_mutex, std::try_to_lock);
    if (!agg_lock.owns_lock()) {
        return "{\"busy\":true}";
    }
    const Agg& agg = s.agg;
    std::vector<std::pair<const StackKey*, std::uint64_t>> top;
    top.reserve(agg.stacks.size());
    for (const auto& [key, count] : agg.stacks) {
        top.emplace_back(&key, count);
    }
    std::sort(top.begin(), top.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    top.resize(std::min<std::size_t>(top.size(), kDiagTopK));
    std::string out;
    json::Writer w(out);
    w.begin_object().field("hz", s.opts.hz).field("samples", agg.samples);
    w.field("attributed", agg.attributed).field("dropped", agg.dropped);
    w.key("top").begin_array();
    for (const auto& [key, count] : top) {
        w.begin_object().field("rank", key->first).field("samples", count);
        write_frames(w, key->second);
        w.end_object();
    }
    w.end_array().end_object();
    return out;
}

}  // namespace

// ---- registry hooks ----------------------------------------------------------

void detail::prof_thread_attached(ThreadRecord& rec) {
    // The ring outlives its owners; the timer is bound to one kernel thread,
    // so each new owner records its ids and gets a fresh timer on arming.
    ProfRing* pt = rec.prof.load(std::memory_order_relaxed);
    if (pt == nullptr) {
        pt = new ProfRing;
        rec.prof.store(pt, std::memory_order_release);
    }
#if BAT_PROF_HAVE_TIMERS
    pt->pthread = ::pthread_self();
    pt->tid = static_cast<pid_t>(::syscall(SYS_gettid));
#endif
    ProfState& s = pstate();
    if (s.running.load(std::memory_order_relaxed)) {
        arm_thread(s, rec);
    }
}

void detail::prof_thread_released(ThreadRecord& rec) {
    ProfRing* pt = rec.prof.load(std::memory_order_relaxed);
    if (pt == nullptr) {
        return;
    }
    pt->armed.store(false, std::memory_order_release);
#if BAT_PROF_HAVE_TIMERS
    if (pt->timer_created) {
        ::timer_delete(pt->timer);
        pt->timer_created = false;
    }
#endif
    // The ring is quiescent now (its thread takes no more SIGPROFs): fold
    // pending samples so the next owner starts empty.
    ProfState& s = pstate();
    std::lock_guard<std::mutex> agg(s.agg_mutex);
    fold_ring(s.agg, rec.kind, *pt);
    pt->counted = false;
}

// ---- public API ------------------------------------------------------------

bool profiler_supported() { return BAT_PROF_HAVE_TIMERS != 0; }

bool profiler_running() { return pstate().running.load(std::memory_order_relaxed); }

namespace {

bool start_impl(ProfOptions opts, bool attach_caller) {
    if (!profiler_supported()) {
        BAT_LOG_WARN(
            "prof: per-thread CPU-clock timers unavailable on this platform; "
            "profiler not started");
        return false;
    }
    ProfState& s = pstate();
    std::lock_guard<std::mutex> lifecycle(s.lifecycle_mutex);
    stop_locked(s);
    opts.hz = std::clamp(opts.hz, 1.0, 1000.0);
    opts.ring_slots = std::max<std::size_t>(opts.ring_slots, 64);
    if (opts.drain_interval.count() <= 0) {
        opts.drain_interval = std::chrono::milliseconds(100);
    }
    s.opts = opts;
    s.interval_ns = static_cast<std::uint64_t>(1e9 / opts.hz);
    install_sigaction_once();
    s.session_start = std::chrono::steady_clock::now();
    s.running.store(true, std::memory_order_relaxed);
    set_component(kProf, true);
    if (attach_caller) {
        attach_thread("main");
    }
    detail::for_each_record([&s](ThreadRecord& rec) {
        if (rec.live && rec.sampled) {
            arm_thread(s, rec);
        }
    });
    s.diag_id = register_diag_provider("prof", [] { return prof_diag_json(); });
    {
        std::lock_guard<std::mutex> lk(s.drain_cv_mutex);
        s.drain_stop = false;
    }
    s.drain_thread = std::thread([&s] { drain_loop(s); });
    BAT_LOG_INFO("prof: sampling at " << s.opts.hz << " Hz per thread");
    return true;
}

}  // namespace

bool start_profiler(ProfOptions opts) { return start_impl(opts, /*attach_caller=*/true); }

void detail::start_sampling() { start_impl(ProfOptions{}, /*attach_caller=*/false); }

void stop_profiler() {
    ProfState& s = pstate();
    std::lock_guard<std::mutex> lifecycle(s.lifecycle_mutex);
    stop_locked(s);
}

void reset_profiler() {
    ProfState& s = pstate();
    std::lock_guard<std::mutex> lifecycle(s.lifecycle_mutex);
    drain_all(s);  // advance every ring past old samples
    {
        std::lock_guard<std::mutex> agg(s.agg_mutex);
        s.agg = Agg{};
    }
    detail::for_each_record([&s](const ThreadRecord& rec) {
        const ProfRing* pt = rec.prof.load(std::memory_order_relaxed);
        if (pt != nullptr && pt->counted) {
            std::lock_guard<std::mutex> agg(s.agg_mutex);
            s.agg.kind_threads[rec.kind] += 1;
        }
    });
    s.wall_seconds = 0;
    s.session_start = std::chrono::steady_clock::now();
}

ProfTotals prof_totals() {
    ProfState& s = pstate();
    drain_all(s);
    std::lock_guard<std::mutex> agg(s.agg_mutex);
    ProfTotals t;
    t.samples = s.agg.samples;
    t.attributed = s.agg.attributed;
    t.dropped = s.agg.dropped;
    t.hz = s.opts.hz;
    t.wall_seconds = session_wall(s);
    return t;
}

std::vector<ProfStackCount> prof_stack_counts() {
    ProfState& s = pstate();
    drain_all(s);
    std::lock_guard<std::mutex> agg(s.agg_mutex);
    std::vector<ProfStackCount> out;
    out.reserve(s.agg.stacks.size());
    for (const auto& [key, count] : s.agg.stacks) {
        out.push_back(ProfStackCount{key.first, key.second, count});
    }
    return out;
}

std::string profile_json() {
    ProfState& s = pstate();
    drain_all(s);
    std::lock_guard<std::mutex> agg(s.agg_mutex);
    const Agg& a = s.agg;
    std::string out;
    json::Writer w(out);
    w.begin_object().field("schema", "bat-prof-v1").field("pid", static_cast<long>(::getpid()));
    w.field("hz", s.opts.hz).field("wall_seconds", session_wall(s));
    w.field("samples", a.samples).field("attributed", a.attributed).field("dropped", a.dropped);
    w.key("kinds").begin_object();
    for (const auto& [kind, threads] : a.kind_threads) {
        const auto it = a.kind_samples.find(kind);
        w.key(kind).begin_object().field("threads", threads);
        w.field("samples", it != a.kind_samples.end() ? it->second : 0).end_object();
    }
    w.end_object().key("stacks").begin_array();
    for (const auto& [key, count] : a.stacks) {
        w.begin_object().field("rank", key.first).field("samples", count);
        write_frames(w, key.second);
        w.end_object();
    }
    w.end_array().key("queries").begin_array();
    for (const auto& [id, count] : a.queries) {
        w.begin_object().field("trace_id", id).field("samples", count).end_object();
    }
    w.end_array().end_object();
    return out;
}

// ---- diffing ---------------------------------------------------------------

std::map<std::string, double> prof_stack_samples(const json::Value& profile, bool by_rank) {
    std::map<std::string, double> out;
    if (const json::Value* stacks = profile.find("stacks"); stacks != nullptr) {
        for (const json::Value& entry : stacks->array()) {
            const json::Value* rank = entry.find("rank");
            const json::Value* samples = entry.find("samples");
            const json::Value* frames = entry.find("frames");
            if (samples == nullptr || frames == nullptr || rank == nullptr) {
                continue;
            }
            std::string key;
            if (by_rank) {
                key = std::to_string(static_cast<int>(rank->number()));
            } else {
                for (const json::Value& f : frames->array()) {
                    key += (key.empty() ? "" : ";") + f.string();
                }
            }
            out[key] += samples->number();
        }
    }
    return out;
}

ProfDiff prof_diff(const json::Value& before, const json::Value& after,
                   double threshold_pts) {
    // Per-stack percent of attributed samples, ranks merged.
    const auto shares = [](const json::Value& doc, std::uint64_t* total_out) {
        std::map<std::string, double> out = prof_stack_samples(doc);
        double total = 0;
        for (const auto& [stack, count] : out) {
            total += count;
        }
        for (auto& [stack, count] : out) {
            count = 100.0 * count / total;
        }
        *total_out = static_cast<std::uint64_t>(total);
        return out;
    };
    ProfDiff diff;
    std::map<std::string, ProfDiffEntry> merged;
    for (const auto& [stack, share] : shares(before, &diff.before_samples)) {
        merged[stack].before_share = share;
    }
    for (const auto& [stack, share] : shares(after, &diff.after_samples)) {
        merged[stack].after_share = share;
    }
    for (auto& [stack, entry] : merged) {
        entry.stack = stack;
        entry.delta = entry.after_share - entry.before_share;
        diff.entries.push_back(entry);
    }
    std::sort(diff.entries.begin(), diff.entries.end(),
              [](const ProfDiffEntry& x, const ProfDiffEntry& y) {
                  return std::fabs(x.delta) > std::fabs(y.delta);
              });
    for (const ProfDiffEntry& e : diff.entries) {
        if (std::fabs(e.delta) >= threshold_pts) {
            diff.flagged.push_back(e);
        }
    }
    return diff;
}

}  // namespace bat::obs
