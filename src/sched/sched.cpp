#include "sched/sched.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/health.hpp"
#include "obs/runtime.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace bat::sched {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    }
    return h;
}

std::uint64_t fnv_mix_str(std::uint64_t h, const char* s) {
    for (; *s != '\0'; ++s) {
        h = (h ^ static_cast<unsigned char>(*s)) * kFnvPrime;
    }
    return h;
}

struct ThreadState {
    std::string name;
    int slot = -1;
    enum class St { runnable, blocked_native, finished } st = St::runnable;
    bool arrived = false;
    ClockToken vc;
    const char* last_op = "";
};

/// One annotated-state cell: the last write epoch plus every read since it
/// (the FastTrack read set, kept as a full list — thread counts here are
/// tiny).
struct ShadowCell {
    int w_slot = -1;
    std::uint64_t w_clk = 0;
    std::uint64_t w_step = 0;
    struct Read {
        int slot;
        std::uint64_t clk;
        std::uint64_t step;
    };
    std::vector<Read> reads;
};

struct Core {
    std::mutex m;
    std::condition_variable cv;
    bool active = false;
    bool deadlocked = false;
    bool deadlock_logged = false;
    Options opts;
    Pcg32 rng;
    std::vector<std::unique_ptr<ThreadState>> threads;
    int current = -1;
    int live = 0;  // arrived, not yet finished
    std::uint64_t decisions = 0;
    std::uint64_t last_progress_decision = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t trace_hash = kFnvOffset;
    RunResult result;
    std::unordered_map<const void*, ClockToken> lock_clocks;
    std::unordered_map<const void*, ShadowCell> shadow;
};

Core& core() {
    static Core c;
    return c;
}

// Run id; a thread participates when its thread-local epoch matches.
std::atomic<std::uint64_t> g_epoch{0};

struct SelfRef {
    std::uint64_t epoch = 0;
    int slot = -1;
};
thread_local SelfRef t_self;

constexpr std::uint64_t kHandleSlotBits = 20;  // handle = (epoch << bits) | (slot + 1)

void join_clock(ClockToken& into, const ClockToken& from) {
    if (from.size() > into.size()) {
        into.resize(from.size(), 0);
    }
    for (std::size_t i = 0; i < from.size(); ++i) {
        into[i] = std::max(into[i], from[i]);
    }
}

std::uint64_t clock_at(const ClockToken& vc, int slot) {
    const auto i = static_cast<std::size_t>(slot);
    return i < vc.size() ? vc[i] : 0;
}

ThreadState* self_locked(Core& c) {
    if (t_self.epoch != g_epoch.load(std::memory_order_relaxed) || t_self.slot < 0) {
        return nullptr;
    }
    return c.threads[static_cast<std::size_t>(t_self.slot)].get();
}

void release_self_locked(Core& c, ThreadState* me) {
    if (me == nullptr || me->st == ThreadState::St::finished) {
        t_self.slot = -1;
        return;
    }
    const bool was_arrived = me->arrived;
    me->st = ThreadState::St::finished;
    t_self.slot = -1;
    if (was_arrived) {
        --c.live;
    }
    // A finishing thread unblocks joiners.
    c.last_progress_decision = c.decisions;
    c.cv.notify_all();
}

/// Pick the next thread to run. `me` is the yielding thread (may be null
/// for release-time decisions); `blocked` means me cannot progress, so the
/// switch is mandatory and free. Returns true when `me` keeps running.
/// Caller holds c.m. May set c.deadlocked.
bool schedule_locked(Core& c, ThreadState* me, const char* op, bool blocked) {
    ++c.decisions;
    if (c.decisions - c.last_progress_decision > c.opts.deadlock_decisions && !c.deadlocked) {
        c.deadlocked = true;
        c.result.deadlock = true;
        std::ostringstream os;
        os << "scheduler deadlock: no progress event in "
           << (c.decisions - c.last_progress_decision) << " decisions (seed "
           << c.opts.seed << ", decision " << c.decisions << ");";
        for (const auto& t : c.threads) {
            if (t->st == ThreadState::St::finished) {
                continue;
            }
            os << "\n  " << t->name << ": "
               << (t->st == ThreadState::St::blocked_native ? "native-blocked"
                   : t->arrived                             ? "scheduled"
                                                            : "announced")
               << ", last yield at '" << t->last_op << "'";
        }
        c.result.deadlock_report = os.str();
        c.cv.notify_all();
        return me != nullptr;  // caller handles the declared deadlock
    }

    std::vector<int> candidates;
    candidates.reserve(c.threads.size());
    for (const auto& t : c.threads) {
        if (t->st == ThreadState::St::runnable) {
            candidates.push_back(t->slot);
        }
    }
    int chosen = -1;
    const int me_slot = me != nullptr ? me->slot : -1;
    if (candidates.empty()) {
        chosen = -1;
    } else if (blocked || me == nullptr || me->st != ThreadState::St::runnable) {
        // Mandatory switch: pick among the others; fall back to me when the
        // yielder is the only runnable thread (it keeps spinning).
        std::vector<int> others;
        for (const int s : candidates) {
            if (s != me_slot) {
                others.push_back(s);
            }
        }
        if (others.empty()) {
            chosen = me_slot;
        } else {
            chosen = others[c.rng.next_u32() % others.size()];
        }
    } else if (c.preemptions >= static_cast<std::uint64_t>(
                                    std::max(0, c.opts.preemption_bound))) {
        chosen = me_slot;  // budget exhausted: run the current thread on
    } else {
        chosen = candidates[c.rng.next_u32() % candidates.size()];
        if (chosen != me_slot) {
            ++c.preemptions;
        }
    }

    c.trace_hash = fnv_mix(c.trace_hash, static_cast<std::uint64_t>(me_slot + 1));
    c.trace_hash = fnv_mix(c.trace_hash, static_cast<std::uint64_t>(chosen + 1));
    c.trace_hash = fnv_mix_str(c.trace_hash, op);
    if (c.opts.record_trace) {
        if (c.result.trace.size() < kMaxTraceEntries) {
            c.result.trace.push_back(TraceEntry{c.decisions, me_slot, chosen, op});
        } else {
            c.result.trace_truncated = true;
        }
    }

    c.current = chosen;
    if (chosen != me_slot) {
        c.cv.notify_all();
    }
    return chosen == me_slot && me_slot >= 0;
}

enum class Wake { granted, inactive, deadlocked };

Wake wait_for_turn_locked(Core& c, std::unique_lock<std::mutex>& lock, ThreadState* me) {
    for (;;) {
        if (!c.active) {
            return Wake::inactive;
        }
        if (c.deadlocked) {
            return Wake::deadlocked;
        }
        if (c.current == me->slot) {
            return Wake::granted;
        }
        if (c.current == -1 && me->st == ThreadState::St::runnable) {
            // No candidate existed when the last decision was made; claim.
            c.current = me->slot;
            return Wake::granted;
        }
        c.cv.wait(lock);
    }
}

/// Shared yield implementation. Returns normally when the thread may
/// continue; on run end it silently deregisters; on a declared deadlock it
/// behaves per `on_deadlock`.
enum class OnDeadlock { throw_error, leave_silently };

void do_yield(const char* op, bool blocked, OnDeadlock on_deadlock) {
    Core& c = core();
    std::string deadlock_report;
    {
        std::unique_lock<std::mutex> lock(c.m);
        ThreadState* me = self_locked(c);
        if (me == nullptr) {
            return;
        }
        me->last_op = op;
        if (c.active && !c.deadlocked && c.current != me->slot) {
            // Defensive: only the current thread should be executing; wait
            // for our turn instead of corrupting the decision order.
            const Wake w = wait_for_turn_locked(c, lock, me);
            if (w == Wake::granted) {
                return;
            }
        }
        if (c.active && !c.deadlocked) {
            const bool cont = schedule_locked(c, me, op, blocked);
            if (!c.deadlocked) {
                if (cont) {
                    return;
                }
                const Wake w = wait_for_turn_locked(c, lock, me);
                if (w == Wake::granted) {
                    return;
                }
                if (w == Wake::inactive) {
                    release_self_locked(c, me);
                    return;
                }
                // fall through: deadlock declared while waiting
            }
        }
        if (!c.active) {
            release_self_locked(c, me);
            return;
        }
        // Declared deadlock.
        deadlock_report = c.result.deadlock_report;
        const bool first = !c.deadlock_logged;
        c.deadlock_logged = true;
        const std::uint64_t seed = c.opts.seed;
        release_self_locked(c, me);
        if (first) {
            lock.unlock();
            BAT_LOG_ERROR("sched: " << deadlock_report);
            obs::dump_flight_record("sched deadlock (seed " + std::to_string(seed) + ")");
        }
    }
    if (on_deadlock == OnDeadlock::throw_error) {
        throw DeadlockError(deadlock_report.empty() ? "scheduler deadlock" : deadlock_report);
    }
}

std::string thread_name_locked(const Core& c, int slot) {
    if (slot < 0 || static_cast<std::size_t>(slot) >= c.threads.size()) {
        return "thread" + std::to_string(slot);
    }
    return c.threads[static_cast<std::size_t>(slot)]->name;
}

bool report_race_locked(Core& c, ThreadState* me, const ShadowCell& cell, const char* what,
                        bool is_write, int other_slot, std::uint64_t other_step,
                        bool other_was_write, std::string* out) {
    std::ostringstream os;
    os << "race on '" << what << "': " << (other_was_write ? "write" : "read") << " by "
       << thread_name_locked(c, other_slot) << " (decision " << other_step << ") and "
       << (is_write ? "write" : "read") << " by " << me->name << " (decision "
       << c.decisions << ") have no happens-before edge (seed " << c.opts.seed << ")";
    (void)cell;
    *out = os.str();
    c.result.races.push_back(*out);
    return true;
}

}  // namespace

std::string RunResult::summary() const {
    std::ostringstream os;
    os << "seed " << seed << ": ";
    if (deadlock) {
        os << "DEADLOCK";
    } else if (!races.empty()) {
        os << races.size() << " RACE(S)";
    } else if (error != nullptr) {
        os << "ERROR";
    } else {
        os << "ok";
    }
    os << " (" << decisions << " decisions, " << preemptions << " preemptions, trace "
       << std::hex << trace_hash << std::dec << ")";
    if (error != nullptr) {
        try {
            std::rethrow_exception(error);
        } catch (const std::exception& e) {
            os << " — " << e.what();
        } catch (...) {
            os << " — unknown exception";
        }
    }
    return os.str();
}

bool active() { return detail::g_armed.load(std::memory_order_acquire); }

bool this_thread_scheduled() {
    return detail::g_armed.load(std::memory_order_relaxed) &&
           t_self.epoch == g_epoch.load(std::memory_order_relaxed) && t_self.slot >= 0;
}

RunResult run_scheduled(const Options& opts, const std::function<void()>& fn) {
    Core& c = core();
    {
        std::lock_guard<std::mutex> lock(c.m);
        BAT_CHECK_MSG(!c.active, "run_scheduled is not reentrant");
        c.opts = opts;
        c.rng = Pcg32(opts.seed, 0x9e3779b97f4a7c15ULL);
        c.threads.clear();
        c.current = 0;
        c.live = 1;
        c.decisions = 0;
        c.last_progress_decision = 0;
        c.preemptions = 0;
        c.trace_hash = kFnvOffset;
        c.result = RunResult{};
        c.result.seed = opts.seed;
        c.lock_clocks.clear();
        c.shadow.clear();
        c.deadlocked = false;
        c.deadlock_logged = false;

        auto main_state = std::make_unique<ThreadState>();
        main_state->name = "main";
        main_state->slot = 0;
        main_state->arrived = true;
        main_state->vc.assign(1, 1);
        c.threads.push_back(std::move(main_state));
        t_self.epoch = g_epoch.load(std::memory_order_relaxed) + 1;
        g_epoch.store(t_self.epoch, std::memory_order_relaxed);
        t_self.slot = 0;
        c.active = true;
        detail::g_armed.store(true, std::memory_order_release);
    }

    std::exception_ptr error;
    try {
        fn();
    } catch (...) {
        error = std::current_exception();
    }

    RunResult result;
    {
        std::unique_lock<std::mutex> lock(c.m);
        c.active = false;
        detail::g_armed.store(false, std::memory_order_release);
        ThreadState* me = self_locked(c);
        release_self_locked(c, me);
        c.cv.notify_all();
        // Wait for stragglers (workers of pools that outlive the run) to
        // observe the shutdown and deregister.
        c.cv.wait(lock, [&c] { return c.live == 0; });
        c.result.decisions = c.decisions;
        c.result.preemptions = c.preemptions;
        c.result.trace_hash = c.trace_hash;
        c.result.error = error;
        result = std::move(c.result);
        c.result = RunResult{};
        c.lock_clocks.clear();
        c.shadow.clear();
        c.threads.clear();
    }
    return result;
}

std::optional<Options> env_options() {
    const char* seed_env = std::getenv("BAT_SCHED_SEED");
    if (seed_env == nullptr || *seed_env == '\0') {
        return std::nullopt;
    }
    Options o;
    o.seed = std::strtoull(seed_env, nullptr, 10);
    if (const char* p = std::getenv("BAT_SCHED_PREEMPTIONS")) {
        o.preemption_bound = std::atoi(p);
    }
    if (const char* d = std::getenv("BAT_SCHED_DEADLOCK_DECISIONS")) {
        o.deadlock_decisions = std::strtoull(d, nullptr, 10);
    }
    if (const char* t = std::getenv("BAT_SCHED_TRACE")) {
        o.record_trace = std::strcmp(t, "full") == 0;
    }
    return o;
}

void write_env_report(const RunResult& r) {
    const char* path_env = std::getenv("BAT_SCHED_TRACE_FILE");
    if (path_env == nullptr || *path_env == '\0') {
        return;
    }
    const std::string path = obs::expand_output_path(path_env);
    std::ofstream out(path, std::ios::app);
    if (!out) {
        BAT_LOG_WARN("sched: cannot open BAT_SCHED_TRACE_FILE " << path);
        return;
    }
    out << "{\"bat_sched\":\"v1\",\"seed\":" << r.seed << ",\"decisions\":" << r.decisions
        << ",\"preemptions\":" << r.preemptions << ",\"trace_hash\":\"" << std::hex
        << r.trace_hash << std::dec << "\",\"deadlock\":" << (r.deadlock ? "true" : "false")
        << ",\"races\":" << r.races.size()
        << ",\"error\":" << (r.error != nullptr ? "true" : "false");
    if (!r.trace.empty()) {
        out << ",\"trace\":[";
        for (std::size_t i = 0; i < r.trace.size(); ++i) {
            const TraceEntry& e = r.trace[i];
            out << (i == 0 ? "" : ",") << "[" << e.step << "," << e.from << "," << e.to
                << ",\"" << e.op << "\"]";
        }
        out << "]";
        if (r.trace_truncated) {
            out << ",\"trace_truncated\":true";
        }
    }
    out << "}\n";
}

std::uint64_t announce_thread(const std::string& name) {
    if (!maybe_active()) {
        return 0;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    if (!c.active) {
        return 0;
    }
    const int slot = static_cast<int>(c.threads.size());
    BAT_CHECK_MSG(slot + 1 < (1 << kHandleSlotBits), "too many scheduled threads");
    auto st = std::make_unique<ThreadState>();
    st->name = name;
    st->slot = slot;
    // Thread creation is a happens-before edge: the child inherits the
    // creator's clock.
    if (ThreadState* creator = self_locked(c)) {
        st->vc = creator->vc;
        ++creator->vc[static_cast<std::size_t>(creator->slot)];
    }
    if (st->vc.size() <= static_cast<std::size_t>(slot)) {
        st->vc.resize(static_cast<std::size_t>(slot) + 1, 0);
    }
    st->vc[static_cast<std::size_t>(slot)] = 1;
    c.threads.push_back(std::move(st));
    return (g_epoch.load(std::memory_order_relaxed) << kHandleSlotBits) |
           static_cast<std::uint64_t>(slot + 1);
}

void adopt_thread(std::uint64_t handle) {
    if (handle == 0) {
        return;
    }
    const std::uint64_t epoch = handle >> kHandleSlotBits;
    const int slot = static_cast<int>(handle & ((1ULL << kHandleSlotBits) - 1)) - 1;
    Core& c = core();
    std::unique_lock<std::mutex> lock(c.m);
    if (!c.active || epoch != g_epoch.load(std::memory_order_relaxed) || slot < 0 ||
        static_cast<std::size_t>(slot) >= c.threads.size()) {
        return;
    }
    ThreadState* me = c.threads[static_cast<std::size_t>(slot)].get();
    me->arrived = true;
    ++c.live;
    t_self.epoch = epoch;
    t_self.slot = slot;
    if (c.current == me->slot || c.deadlocked) {
        return;
    }
    const Wake w = wait_for_turn_locked(c, lock, me);
    if (w == Wake::inactive) {
        release_self_locked(c, me);
    }
}

void release_thread() {
    if (t_self.slot < 0) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr) {
        t_self.slot = -1;
        return;
    }
    const bool was_current = c.current == me->slot;
    release_self_locked(c, me);
    if (c.active && !c.deadlocked && was_current) {
        schedule_locked(c, nullptr, "thread.exit", true);
        c.cv.notify_all();
    }
}

bool thread_finished(std::uint64_t handle) {
    if (handle == 0) {
        return true;
    }
    const std::uint64_t epoch = handle >> kHandleSlotBits;
    const int slot = static_cast<int>(handle & ((1ULL << kHandleSlotBits) - 1)) - 1;
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    if (!c.active || epoch != g_epoch.load(std::memory_order_relaxed) || slot < 0 ||
        static_cast<std::size_t>(slot) >= c.threads.size()) {
        return true;
    }
    return c.threads[static_cast<std::size_t>(slot)]->st == ThreadState::St::finished;
}

AdoptScope::AdoptScope(std::uint64_t handle) {
    if (handle != 0) {
        adopt_thread(handle);
        adopted_ = t_self.slot >= 0;
    }
}

AdoptScope::~AdoptScope() {
    if (adopted_) {
        release_thread();
    }
}

BlockingScope::BlockingScope(const char* why) {
    if (!maybe_active() || !this_thread_scheduled()) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr || !c.active) {
        return;
    }
    me->last_op = why;
    me->st = ThreadState::St::blocked_native;
    engaged_ = true;
    if (c.current == me->slot && !c.deadlocked) {
        schedule_locked(c, me, why, /*blocked=*/true);
        c.cv.notify_all();
    }
}

BlockingScope::~BlockingScope() {
    if (!engaged_) {
        return;
    }
    Core& c = core();
    std::unique_lock<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr) {
        return;
    }
    me->st = ThreadState::St::runnable;
    if (!c.active || c.deadlocked) {
        return;  // run over; carry on natively (dtor must not throw)
    }
    const Wake w = wait_for_turn_locked(c, lock, me);
    if (w == Wake::inactive) {
        release_self_locked(c, me);
    }
}

void yield_point(const char* op) {
    if (!maybe_active() || !this_thread_scheduled()) {
        return;
    }
    do_yield(op, /*blocked=*/false, OnDeadlock::throw_error);
}

void yield_blocked(const char* op) {
    if (!maybe_active() || !this_thread_scheduled()) {
        std::this_thread::yield();
        return;
    }
    do_yield(op, /*blocked=*/true, OnDeadlock::throw_error);
}

void yield_idle(const char* op) {
    if (!maybe_active() || !this_thread_scheduled()) {
        std::this_thread::yield();
        return;
    }
    do_yield(op, /*blocked=*/true, OnDeadlock::leave_silently);
}

void scheduled_lock(std::mutex& m, const void* id, const char* name) {
    yield_point(name);
    while (!m.try_lock()) {
        yield_blocked(name);
    }
    lock_acquired(id);
}

void lock_acquired(const void* id) {
    if (!maybe_active() || !this_thread_scheduled()) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr) {
        return;
    }
    auto it = c.lock_clocks.find(id);
    if (it != c.lock_clocks.end()) {
        join_clock(me->vc, it->second);
    }
}

void lock_released(const void* id) {
    if (!maybe_active() || !this_thread_scheduled()) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr) {
        return;
    }
    ClockToken& lc = c.lock_clocks[id];
    join_clock(lc, me->vc);
    ++me->vc[static_cast<std::size_t>(me->slot)];
}

ClockToken fork_token() {
    if (!maybe_active() || !this_thread_scheduled()) {
        return {};
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr) {
        return {};
    }
    ClockToken token = me->vc;
    ++me->vc[static_cast<std::size_t>(me->slot)];
    return token;
}

void join_token(const ClockToken& token) {
    if (token.empty() || !maybe_active() || !this_thread_scheduled()) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me != nullptr) {
        join_clock(me->vc, token);
    }
}

void merge_token(ClockToken& dst) {
    if (!maybe_active() || !this_thread_scheduled()) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    ThreadState* me = self_locked(c);
    if (me == nullptr) {
        return;
    }
    join_clock(dst, me->vc);
    ++me->vc[static_cast<std::size_t>(me->slot)];
}

void acquire_token(const ClockToken& token) { join_token(token); }

void note_progress() {
    if (!maybe_active()) {
        return;
    }
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.m);
    c.last_progress_decision = c.decisions;
}

void note_access(const void* obj, const char* what, bool is_write) {
    if (!maybe_active() || !this_thread_scheduled()) {
        return;
    }
    Core& c = core();
    std::string race;
    bool throw_race = false;
    {
        std::lock_guard<std::mutex> lock(c.m);
        ThreadState* me = self_locked(c);
        if (me == nullptr) {
            return;
        }
        ShadowCell& cell = c.shadow[obj];
        const std::uint64_t my_clk = me->vc[static_cast<std::size_t>(me->slot)];
        auto ordered_before_me = [&](int slot, std::uint64_t clk) {
            return clk <= clock_at(me->vc, slot);
        };
        if (cell.w_slot >= 0 && cell.w_slot != me->slot &&
            !ordered_before_me(cell.w_slot, cell.w_clk)) {
            report_race_locked(c, me, cell, what, is_write, cell.w_slot, cell.w_step,
                               /*other_was_write=*/true, &race);
        } else if (is_write) {
            for (const ShadowCell::Read& r : cell.reads) {
                if (r.slot != me->slot && !ordered_before_me(r.slot, r.clk)) {
                    report_race_locked(c, me, cell, what, is_write, r.slot, r.step,
                                       /*other_was_write=*/false, &race);
                    break;
                }
            }
        }
        if (is_write) {
            cell.w_slot = me->slot;
            cell.w_clk = my_clk;
            cell.w_step = c.decisions;
            cell.reads.clear();
        } else {
            bool found = false;
            for (ShadowCell::Read& r : cell.reads) {
                if (r.slot == me->slot) {
                    r.clk = my_clk;
                    r.step = c.decisions;
                    found = true;
                    break;
                }
            }
            if (!found) {
                cell.reads.push_back(ShadowCell::Read{me->slot, my_clk, c.decisions});
            }
        }
        throw_race = !race.empty() && c.opts.throw_on_race;
    }
    if (!race.empty()) {
        BAT_LOG_ERROR("sched race checker: " << race);
        obs::dump_flight_record("sched race: " + race);
        if (throw_race) {
            throw RaceError(race);
        }
    }
}

}  // namespace bat::sched
