#pragma once
// Run-health layer (docs/OBSERVABILITY.md): Darshan-style always-on run
// reports, a stall watchdog, and crash/stall flight-recorder dumps.
//
// Three facilities share one progress-epoch table:
//
//   - Run report (bat-report-v1, BAT_OBS=report): phase wall times from
//     obs::PhaseSpan (the accumulation that fills WritePhaseTimings /
//     ReadPhaseTimings, so the two agree by construction), message counts
//     and bytes from the vmpi hooks, per-rank volumes from
//     record_rank_value, plus the metrics registry.
//   - Stall watchdog (BAT_OBS=watchdog or start_watchdog()): every vmpi
//     completion, served leaf, pool task and phase close bumps a per-rank
//     epoch (a relaxed increment). When no active rank moves for
//     `stale_intervals` intervals, it logs the stuck ranks, what they are
//     blocked on, open span stacks, in-flight messages and pool depths.
//   - Flight recorder: the same snapshot plus the trace-ring tails, written
//     on watchdog trip, fatal signal (whenever BAT_OBS is set), or an
//     explicit dump_flight_record() call.
//
// obs stays independent of vmpi and io: those layers call *into* this one
// (progress notes) and register diag providers for subsystem introspection.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "obs/runtime.hpp"

namespace bat::obs {

// ---- progress epochs ------------------------------------------------------

/// Progress + message accounting for the report's traffic section: each
/// call bumps the rank's epoch (rank-less threads share a process slot) with
/// relaxed atomic increments; safe from any thread.
void note_send(int rank, std::uint64_t bytes);
void note_recv(int rank, std::uint64_t bytes);
void note_collective(int rank);
void note_pool_task();
void note_leaves_served(int rank, std::uint64_t leaves);

/// Rank lifecycle, called by the vmpi runtime around each rank body. A rank
/// only participates in stall detection while active.
void rank_begin(int rank);
void rank_end(int rank);

/// True while the watchdog or flight recorder is armed; the vmpi wait path
/// records blocked-on ops only then.
inline bool health_armed() { return (components() & (kWatchdog | kFlight)) != 0; }

/// Record/clear what `rank` is currently blocked on, shown in stall
/// diagnoses and flight records ("irecv(src=0, tag=7)", "ibarrier(seq=3)").
/// Three relaxed stores — cheap enough for every wait; `op` must be a
/// string literal. Rendering to text happens only at diagnosis time.
void set_blocked_op(int rank, const char* op, int peer, int tag);
void clear_blocked_op(int rank);

// ---- run report -----------------------------------------------------------

/// Per-rank accumulators for the report's io section ("write.bytes_written",
/// "read.bytes_read", ...). Values add; rank is thread_log_rank().
void record_rank_value(const char* name, std::uint64_t value);

/// Build the bat-report-v1 JSON document from the current process state.
std::string run_report_json();

/// Drop all report accumulators (phases, messages, rank values) and reset
/// watchdog trip counts — tests and repeated benchmark runs.
void reset_run_report();

// ---- stall watchdog -------------------------------------------------------

struct StallReport {
    std::vector<int> stuck_ranks;  // active ranks whose epoch never moved
    std::string text;              // full human-readable diagnosis
};

struct WatchdogOptions {
    std::chrono::milliseconds interval{120'000};
    /// Consecutive no-progress intervals before declaring a stall; 2 avoids
    /// tripping on a single long compute phase straddling one check.
    int stale_intervals = 2;
    /// Called on every trip, after logging and the flight-record dump.
    std::function<void(const StallReport&)> on_stall;
    /// Flight-record destination on trip; empty falls back to the run
    /// bundle (no dump when BAT_OBS is unset).
    std::filesystem::path flight_record_path;
};

/// Start the monitor thread (idempotent: a running watchdog is stopped
/// first). While it runs, span stacks and blocked-on ops are recorded.
void start_watchdog(WatchdogOptions opts = {});
/// Stop and join the monitor thread; no-op when not running.
void stop_watchdog();
bool watchdog_running();
/// Stalls declared since start_watchdog()/reset_run_report().
std::uint64_t watchdog_trips();

// ---- flight recorder ------------------------------------------------------

/// Build the diagnostic snapshot JSON: rank health, blocked ops, open span
/// stacks, subsystem diag providers, trace-ring tails, and metrics.
std::string flight_record_json(const std::string& reason);

/// Write flight_record_json() to `path` ("%p" expands to the pid), or as
/// flight-<n>.json into the run bundle when `path` is empty. Returns false
/// when no destination is configured.
bool dump_flight_record(const std::string& reason = "explicit",
                        const std::filesystem::path& path = {});

// ---- subsystem diag providers ---------------------------------------------

/// Register a provider returning a JSON value describing live subsystem
/// state (pending mailbox messages, pool queue depth, ...). Included in
/// stall diagnoses and flight records. Providers run on the watchdog (or
/// dumping) thread and must never block — try_lock and report "busy".
/// unregister_diag_provider synchronizes with in-flight calls: once it
/// returns, the provider is not running and will never run again, so a
/// subsystem may unregister in its destructor before tearing down the
/// state its provider reads.
std::uint64_t register_diag_provider(std::string name, std::function<std::string()> fn);
void unregister_diag_provider(std::uint64_t id);

namespace health_detail {
/// Called by every PhaseSpan::close(), tracing on or off: accumulates the
/// phase's wall seconds into the report under the calling thread's rank.
void record_phase(const char* name, double seconds);
/// Dump a flight record on SEGV/ABRT/BUS/FPE/ILL, then re-raise through the
/// previous handlers (installed by the arming point).
void install_fatal_signal_handlers();
}  // namespace health_detail

}  // namespace bat::obs
