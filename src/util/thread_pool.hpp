#pragma once
// Task pool replacing Intel TBB in the original system. The aggregation
// tree, Karras build, and treelet construction use fork/join-style task
// parallelism: a task is spawned for the right subtree while the current
// worker descends the left (paper §III-A).
//
// The pool supports nested task submission from inside tasks (workers that
// block in TaskGroup::wait help execute pending tasks, so recursive
// parallelism cannot deadlock).
//
// Concurrency invariants are enforced in instrumented builds (see
// docs/CORRECTNESS.md): the queue and error mutexes participate in
// lock-order checking, TaskGroup::wait() aborts if called from inside one
// of the group's own tasks (a self-wait that would otherwise livelock),
// and parallel_for flags runaway re-entrant recursion.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/query_trace.hpp"
#include "obs/runtime.hpp"
#include "sched/sched.hpp"
#include "util/lock_order.hpp"

namespace bat {

class ThreadPool;

/// A group of tasks forming one fork/join region. wait() participates in
/// execution (work-helping) rather than blocking, so nested groups are safe.
class TaskGroup {
public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    ~TaskGroup();

    /// Enqueue a task belonging to this group.
    void run(std::function<void()> f);

    /// Block until every task run() on this group has finished, helping to
    /// execute queued tasks in the meantime. Rethrows the first exception
    /// raised by any task in the group. Must not be called from inside one
    /// of this group's own tasks (the task's own pending count would never
    /// reach zero): instrumented builds abort with a diagnostic.
    void wait();

private:
    friend class ThreadPool;
    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};
    CheckedMutex err_mutex_{"taskgroup.error"};
    std::exception_ptr first_error_;
    // Schedule exploration (sched): clock accumulated at each task's
    // completion and acquired by wait(), giving task-completion→wait
    // happens-before edges. Guarded by a plain mutex — the critical section
    // never yields, so scheduled threads cannot block each other here.
    std::mutex vc_mutex_;
    sched::ClockToken done_vc_;
};

/// Fixed-size pool of worker threads with a shared FIFO queue.
class ThreadPool {
public:
    /// 0 threads is allowed: every task then runs inline at wait()/run()
    /// time on the calling thread, which keeps single-core machines and
    /// deterministic unit tests simple.
    explicit ThreadPool(std::size_t num_threads = default_concurrency());
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t num_threads() const { return workers_.size(); }

    /// Hardware concurrency minus one (the caller participates via wait()),
    /// at least 0.
    static std::size_t default_concurrency();

    /// Process-wide shared pool, sized by default_concurrency().
    static ThreadPool& global();

    /// Parallel for over [begin, end) in contiguous chunks. `f` is called
    /// as f(index) for each index. Grain controls the chunk size. Nested
    /// calls (f itself calling parallel_for) are supported; recursion
    /// deeper than kMaxParallelForDepth is rejected as a re-entrancy bug.
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& f, std::size_t grain = 1024);

    /// Deepest supported parallel_for nesting per thread. Legitimate use
    /// is a handful of levels; hitting this means f re-enters parallel_for
    /// unboundedly.
    static constexpr int kMaxParallelForDepth = 64;

    /// Dequeue and execute one pending task on the calling thread; returns
    /// false if the queue was empty. This is the work-helping primitive
    /// behind TaskGroup::wait, exposed so polling loops (the read path's
    /// comm thread) can serve tasks instead of yielding their timeslice
    /// when there is nothing else to do. Safe from any thread.
    bool try_run_one();

    /// Live introspection for stall diagnoses (obs/health.hpp): tasks
    /// currently queued, and tasks currently executing on any thread.
    std::size_t queue_depth() const;
    std::size_t active_tasks() const { return active_.load(std::memory_order_relaxed); }

private:
    friend class TaskGroup;

    struct Task {
        std::function<void()> fn;
        TaskGroup* group = nullptr;
        // Enqueue timestamp (obs::trace_now_ns) when tracing was enabled at
        // submission; execution spans report queue wait vs. run time.
        std::uint64_t enqueue_ns = 0;
        // Submitter's query context (obs/query_trace.hpp), re-installed for
        // the task's execution so per-query attribution survives the hop to
        // a worker thread — and work-helping, where a comm thread may run a
        // task submitted on behalf of a different query.
        obs::QueryContext qctx;
        // Submitter's span chain when span tracking was on: samples taken
        // inside the task — including work-helping on another thread — are
        // attributed to it plus the task's own spans (obs/runtime.hpp).
        obs::SpanChain origin;
        // Submitter's vector clock under schedule exploration (empty
        // otherwise): the enqueue→dequeue happens-before edge.
        sched::ClockToken vc;
    };

    void enqueue(Task t);
    void worker_loop(std::uint64_t sched_handle);
    void execute(Task& t);
    /// Remove this group's queued-but-unstarted tasks (deadlock teardown in
    /// schedule exploration: ~TaskGroup must not leave tasks referencing it).
    void purge_group(TaskGroup* g);

    std::vector<std::thread> workers_;
    std::vector<std::uint64_t> worker_handles_;  // sched handles, 0 when disarmed
    std::deque<Task> queue_;
    mutable CheckedMutex mutex_{"threadpool.queue"};
    std::condition_variable_any cv_;
    bool shutting_down_ = false;
    std::atomic<std::size_t> active_{0};
    // Health diag provider id; 0 until registered, unregistered first thing
    // in the destructor so the watchdog never probes a dying pool.
    std::uint64_t diag_provider_ = 0;
};

/// Split [0, n) into contiguous chunks of at least `min_grain` elements and
/// run fn(lo, hi) for each. Chunks run on `pool` when it has workers and the
/// range is worth splitting, inline on the caller otherwise. The chunk
/// decomposition depends only on (n, min_grain, pool size), never on
/// scheduling, so order-insensitive bodies produce deterministic results.
void parallel_ranges(ThreadPool* pool, std::size_t n, std::size_t min_grain,
                     const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace bat
