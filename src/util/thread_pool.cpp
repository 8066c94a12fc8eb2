#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bat {

namespace {

// Stack of groups whose tasks this thread is currently executing; used to
// detect a task wait()ing on its own group (which can never finish: the
// running task's pending count only drops after the task returns).
thread_local std::vector<TaskGroup*> t_executing_groups;

// Current parallel_for nesting depth on this thread.
thread_local int t_parallel_for_depth = 0;

}  // namespace

TaskGroup::~TaskGroup() {
    // A group must be drained before destruction; waiting here keeps the
    // failure mode (forgot to wait) safe instead of a use-after-free.
    if (pending_.load(std::memory_order_acquire) != 0) {
        try {
            wait();
        } catch (...) {
            // Destructors must not throw; the error was already recorded.
        }
    }
    if (pending_.load(std::memory_order_acquire) != 0) {
        // wait() aborted early (DeadlockError during schedule exploration):
        // pull our queued tasks back out so none outlives the group, then
        // ride out the in-flight ones.
        pool_.purge_group(this);
        while (pending_.load(std::memory_order_acquire) != 0) {
            std::this_thread::yield();
        }
    }
}

void TaskGroup::run(std::function<void()> f) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    ThreadPool::Task task;
    task.fn = std::move(f);
    task.group = this;
    pool_.enqueue(std::move(task));
}

void TaskGroup::wait() {
    if (lockdbg::enabled() &&
        std::find(t_executing_groups.begin(), t_executing_groups.end(), this) !=
            t_executing_groups.end()) {
        lockdbg::fatal(
            "TaskGroup::wait() called from inside one of the group's own tasks — "
            "the task's pending count cannot reach zero (self-wait deadlock)");
    }
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (!pool_.try_run_one()) {
            // Under schedule exploration this is a free switch to another
            // runnable thread (and throws once the run is declared
            // deadlocked); otherwise a plain OS yield.
            sched::yield_blocked("taskgroup.wait");
        }
    }
    if (sched::maybe_active() && sched::this_thread_scheduled()) {
        std::lock_guard<std::mutex> vc_lock(vc_mutex_);
        sched::acquire_token(done_vc_);
    }
    std::lock_guard<CheckedMutex> lock(err_mutex_);
    if (first_error_) {
        std::exception_ptr e = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(e);
    }
}

std::size_t ThreadPool::default_concurrency() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        // Announce before spawning: the creating thread fixes the worker's
        // scheduler slot (and donates its clock) deterministically; handle
        // is 0 when no scheduled run is active.
        const std::uint64_t handle =
            sched::maybe_active() ? sched::announce_thread("pool.worker" + std::to_string(i))
                                  : 0;
        worker_handles_.push_back(handle);
        workers_.emplace_back([this, handle] { worker_loop(handle); });
    }
    diag_provider_ = obs::register_diag_provider("pool", [this] {
        return "{\"workers\":" + std::to_string(workers_.size()) +
               ",\"queue_depth\":" + std::to_string(queue_depth()) +
               ",\"active_tasks\":" + std::to_string(active_tasks()) + "}";
    });
}

ThreadPool::~ThreadPool() {
    obs::unregister_diag_provider(diag_provider_);
    {
        std::lock_guard<CheckedMutex> lock(mutex_);
        shutting_down_ = true;
    }
    cv_.notify_all();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        // Scheduled join (see Runtime::run_impl_inner): wait for the worker
        // to leave the schedule, then reap it natively with the token held
        // so the decision stream stays deterministic.
        if (sched::maybe_active() && sched::this_thread_scheduled()) {
            try {
                while (!sched::thread_finished(worker_handles_[i])) {
                    sched::yield_blocked("pool.join");
                }
            } catch (const sched::DeadlockError&) {
                // Workers leave the schedule on a declared deadlock and fall
                // back to the native cv wait; shutting_down_ is already set,
                // so the native join below still completes.
            }
        }
        workers_[i].join();
    }
    // Drain any tasks that never got picked up (possible with 0 workers).
    while (try_run_one()) {
    }
}

void ThreadPool::enqueue(Task t) {
    if (obs::trace_enabled()) {
        t.enqueue_ns = obs::trace_now_ns();
    }
    t.qctx = obs::current_query();
    obs::capture_span_chain(t.origin);
    if (sched::maybe_active()) {
        t.vc = sched::fork_token();  // enqueue→dequeue happens-before edge
    }
    if (workers_.empty()) {
        // Inline execution keeps zero-thread pools functional.
        execute(t);
        return;
    }
    {
        std::lock_guard<CheckedMutex> lock(mutex_);
        queue_.push_back(std::move(t));
    }
    cv_.notify_one();
}

bool ThreadPool::try_run_one() {
    Task t;
    {
        std::lock_guard<CheckedMutex> lock(mutex_);
        if (queue_.empty()) {
            return false;
        }
        t = std::move(queue_.front());
        queue_.pop_front();
    }
    execute(t);
    return true;
}

std::size_t ThreadPool::queue_depth() const {
    std::lock_guard<CheckedMutex> lock(mutex_);
    return queue_.size();
}

void ThreadPool::worker_loop(std::uint64_t sched_handle) {
    sched::AdoptScope adopt(sched_handle);
    for (;;) {
        Task t;
        if (sched::maybe_active() && sched::this_thread_scheduled()) {
            // Scheduled dequeue: the scheduler owns all blocking, so the
            // native cv wait is replaced by polling at a free yield point.
            bool got = false;
            try {
                sched::yield_idle("pool.dequeue");
                std::lock_guard<CheckedMutex> lock(mutex_);
                if (!queue_.empty()) {
                    t = std::move(queue_.front());
                    queue_.pop_front();
                    got = true;
                } else if (shutting_down_) {
                    return;
                }
            } catch (const sched::DeadlockError&) {
                // Run declared deadlocked while we held the token: leave the
                // schedule and fall back to the native path.
                sched::release_thread();
                continue;
            }
            if (got) {
                obs::attach_thread("pool");
                execute(t);
            }
            continue;
        }
        {
            std::unique_lock<CheckedMutex> lock(mutex_);
            cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (shutting_down_) {
                    return;
                }
                continue;
            }
            t = std::move(queue_.front());
            queue_.pop_front();
        }
        // Attach per task, not once at spawn: a pool created before the
        // profiler started is sampled from its workers' next task on.
        obs::attach_thread("pool");
        execute(t);
    }
}

void ThreadPool::purge_group(TaskGroup* g) {
    std::size_t removed = 0;
    {
        std::lock_guard<CheckedMutex> lock(mutex_);
        for (auto it = queue_.begin(); it != queue_.end();) {
            if (it->group == g) {
                it = queue_.erase(it);
                ++removed;
            } else {
                ++it;
            }
        }
    }
    if (removed != 0) {
        g->pending_.fetch_sub(removed, std::memory_order_acq_rel);
    }
}

void ThreadPool::execute(Task& t) {
    // Span + queue-wait/run-time histograms when the task was enqueued (and
    // is still being executed) under tracing; one relaxed load otherwise.
    const bool traced = t.enqueue_ns != 0 && obs::trace_enabled();
    std::uint64_t run_start_ns = 0;
    if (traced) {
        run_start_ns = obs::trace_now_ns();
        obs::emit_begin_arg("pool.task", "pool", "queue_us",
                            static_cast<std::int64_t>((run_start_ns - t.enqueue_ns) / 1000));
    }
    TaskGroup* g = t.group;
    sched::join_token(t.vc);  // dequeue side of the enqueue→dequeue edge
    t_executing_groups.push_back(g);
    active_.fetch_add(1, std::memory_order_relaxed);
    // Re-install the submitter's query context for the task body; pool time
    // is attributed to that query (best-effort: a task finishing after its
    // query finalized loses its delta, it is never charged elsewhere).
    obs::QueryScope qscope(t.qctx);
    // Attribute samples in the body to the submitter's span chain, not to
    // whatever this (possibly work-helping) thread has open.
    const obs::TaskScope origin_scope(t.origin);
    const std::uint64_t qt0 =
        t.qctx.valid() && obs::query_trace_enabled() ? obs::trace_now_ns() : 0;
    try {
        t.fn();
        if (g != nullptr && sched::maybe_active() && sched::this_thread_scheduled()) {
            std::lock_guard<std::mutex> vc_lock(g->vc_mutex_);
            sched::merge_token(g->done_vc_);  // completion→wait edge
        }
    } catch (...) {
        if (g != nullptr) {
            try {
                std::lock_guard<CheckedMutex> lock(g->err_mutex_);
                if (!g->first_error_) {
                    g->first_error_ = std::current_exception();
                }
            } catch (...) {
                // Acquiring err_mutex_ can itself throw DeadlockError during
                // schedule-exploration teardown; the scheduler has already
                // recorded the failure, and execute() must not throw (the
                // pending_ decrement below keeps waiters sound).
            }
        }
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
    t_executing_groups.pop_back();
    if (qt0 != 0) {
        obs::query_note_pool_ns(obs::trace_now_ns() - qt0);
    }
    obs::note_pool_task();
    if (sched::maybe_active()) {
        sched::note_progress();  // a task ran: forward progress for the deadlock detector
    }
    if (traced) {
        obs::emit_end("pool.task", "pool");
        auto& metrics = obs::MetricsRegistry::global();
        metrics.histogram("pool.queue_us")
            .record(static_cast<double>(run_start_ns - t.enqueue_ns) / 1e3);
        metrics.histogram("pool.run_us")
            .record(static_cast<double>(obs::trace_now_ns() - run_start_ns) / 1e3);
    }
    if (g != nullptr) {
        g->pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& f, std::size_t grain) {
    BAT_CHECK(begin <= end);
    BAT_CHECK(grain > 0);
    BAT_CHECK_MSG(t_parallel_for_depth < kMaxParallelForDepth,
                  "parallel_for re-entrancy depth exceeded ("
                      << kMaxParallelForDepth
                      << "): the loop body recursively re-enters parallel_for");
    struct DepthGuard {
        DepthGuard() { ++t_parallel_for_depth; }
        ~DepthGuard() { --t_parallel_for_depth; }
    } depth_guard;
    if (begin == end) {
        return;
    }
    if (workers_.empty() || end - begin <= grain) {
        for (std::size_t i = begin; i < end; ++i) {
            f(i);
        }
        return;
    }
    TaskGroup group(*this);
    for (std::size_t chunk = begin; chunk < end; chunk += grain) {
        const std::size_t hi = std::min(chunk + grain, end);
        group.run([&f, chunk, hi] {
            for (std::size_t i = chunk; i < hi; ++i) {
                f(i);
            }
        });
    }
    group.wait();
}

void parallel_ranges(ThreadPool* pool, std::size_t n, std::size_t min_grain,
                     const std::function<void(std::size_t, std::size_t)>& fn) {
    BAT_CHECK(min_grain > 0);
    if (n == 0) {
        return;
    }
    if (pool == nullptr || pool->num_threads() == 0 || n <= min_grain) {
        fn(0, n);
        return;
    }
    // ~4 chunks per participant (workers + the waiting caller) balances load
    // without flooding the queue; the decomposition is schedule-independent.
    const std::size_t participants = pool->num_threads() + 1;
    const std::size_t chunk =
        std::max(min_grain, (n + 4 * participants - 1) / (4 * participants));
    const std::size_t nchunks = (n + chunk - 1) / chunk;
    pool->parallel_for(
        0, nchunks,
        [&](std::size_t c) { fn(c * chunk, std::min(n, (c + 1) * chunk)); }, 1);
}

}  // namespace bat
