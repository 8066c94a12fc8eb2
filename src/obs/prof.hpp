#pragma once
// Always-on sampling CPU profiler (docs/OBSERVABILITY.md). Spans and the
// run report say where wall time elapsed; this layer says where CPU burned.
// Each sample captures the thread's rank, its span chain (obs/runtime.hpp:
// for a pool task, the submitter's chain at enqueue plus the task's own
// spans) and the active QueryContext, so samples roll up by phase, by query
// and by pool-task origin even under work-helping.
//
// Mechanics: one per-thread CPU-clock timer per attached thread
// (pthread_getcpuclockid + timer_create(SIGEV_THREAD_ID)) delivers SIGPROF
// only while the thread consumes CPU. The async-signal-safe handler copies
// the attribution into a preallocated ring in the thread's obs record; a
// drain thread folds rings into collapsed-stack aggregates, exported as
// bat-prof-v1 and surfaced in flight records through a "prof" diag
// provider. Armed by BAT_OBS=prof at 97 Hz or by start_profiler(); armed
// overhead is gated <= 5% end to end by bench/obs_overhead.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace bat::obs {

struct ProfOptions {
    /// Samples per second of *CPU time* per thread; clamped to [1, 1000].
    double hz = 97.0;
    /// Per-thread ring capacity in samples (for rings created after the
    /// call); overflow increments a dropped counter instead of blocking or
    /// allocating in the handler.
    std::size_t ring_slots = 4096;
    /// How often the drain thread folds the per-thread rings.
    std::chrono::milliseconds drain_interval{100};
};

/// False on platforms without per-thread CPU-clock timers; start_profiler
/// then warns and returns false, everything else degrades to no-ops.
bool profiler_supported();
bool profiler_running();

/// Start sampling (idempotent: a running profiler is stopped first) every
/// attached thread, the caller included. Returns false when unsupported.
bool start_profiler(ProfOptions opts = {});

/// Disarm every timer, join the drain thread, and fold any remaining
/// samples. Aggregates survive for export; no-op when not running.
void stop_profiler();

/// Drop every aggregate and pending ring sample (tests, benchmark warmup).
/// The profiler keeps running if it was running.
void reset_profiler();

struct ProfTotals {
    std::uint64_t samples = 0;     // folded samples
    std::uint64_t attributed = 0;  // samples with a non-empty span stack
    std::uint64_t dropped = 0;     // lost to ring overflow
    double hz = 0.0;
    double wall_seconds = 0.0;  // cumulative armed wall time
};
/// Totals after folding the current rings.
ProfTotals prof_totals();

struct ProfStackCount {
    int rank = -1;                    // thread_log_rank at sample time
    std::vector<std::string> frames;  // span labels, outermost first
    std::uint64_t samples = 0;
};
/// Collapsed-stack aggregate after folding the current rings.
std::vector<ProfStackCount> prof_stack_counts();

/// Render the bat-prof-v1 JSON document (drains first; callable while
/// running or after stop).
std::string profile_json();

// ---- reading bat-prof-v1 documents (bat_obs) ---------------------------------

/// Samples per ';'-joined span stack, ranks merged — or per rank when
/// `by_rank`.
std::map<std::string, double> prof_stack_samples(const json::Value& profile,
                                                 bool by_rank = false);

struct ProfDiffEntry {
    std::string stack;        // frames joined with ';', ranks merged
    double before_share = 0;  // percent of attributed samples
    double after_share = 0;
    double delta = 0;  // after - before, percentage points
};

struct ProfDiff {
    std::uint64_t before_samples = 0;
    std::uint64_t after_samples = 0;
    std::vector<ProfDiffEntry> entries;  // sorted by |delta| descending
    std::vector<ProfDiffEntry> flagged;  // |delta| >= threshold_pts
};

/// Compare two parsed bat-prof-v1 documents by per-stack share of
/// attributed samples. Shares are rank-merged so a diff is stable across
/// rank-count changes; `threshold_pts` is in percentage points.
ProfDiff prof_diff(const json::Value& before, const json::Value& after,
                   double threshold_pts);

}  // namespace bat::obs
