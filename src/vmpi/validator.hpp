#pragma once
// vmpi protocol validator (docs/CORRECTNESS.md).
//
// A per-Runtime checker that observes every isend/irecv/iprobe/collective
// and reports the protocol bugs functional round-trip tests miss:
//
//   - unmatched sends still sitting in a mailbox when the runtime finalizes;
//   - requests destroyed before test()/wait() observed completion;
//   - user point-to-point traffic using reserved tags (>= kMaxUserTag);
//   - typed receives whose matched payload size differs from the expected
//     element size (recv_value / recv_vector);
//   - messages starved in a mailbox while consuming receives repeatedly
//     match around them (the ANY_SOURCE starvation pattern);
//   - deadlock: every live rank blocked in wait()/barrier() with no
//     deliverable message — detected from the wait-for state and reported
//     instead of hanging (each blocked rank throws DeadlockError).
//
// The validator is always compiled in. It is enabled per run either
// explicitly (Runtime::run_validated) or for ordinary Runtime::run via
// BAT_VMPI_VALIDATE=1 in the environment, in which case diagnostics are
// logged as warnings at finalize. Disabled, every hook is a null-pointer
// check on the hot path.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace bat::vmpi {

enum class DiagKind {
    unmatched_send,         ///< message never received; pending at finalize
    leaked_request,         ///< request destroyed before completing
    tag_violation,          ///< user p2p op with tag outside [0, kMaxUserTag)
    size_mismatch,          ///< typed receive matched a wrongly sized payload
    any_source_starvation,  ///< message passed over too many times
    deadlock,               ///< all live ranks blocked with no progress
};

const char* to_string(DiagKind kind);

struct Diagnostic {
    DiagKind kind;
    int rank;  ///< rank that observed the problem, or -1 for runtime-wide
    std::string message;
};

/// Thrown out of wait() on every live rank once the deadlock detector
/// concludes no event can unblock the runtime.
class DeadlockError : public Error {
public:
    explicit DeadlockError(const std::string& what) : Error(what) {}
};

struct ValidatorOptions {
    bool enabled = true;
    /// A pending message passed over by more than this many consuming
    /// receives at the same rank is reported as starved (once).
    int starvation_threshold = 1024;
    /// Consecutive stuck observations (every live rank blocked, each having
    /// failed its own test() at the current progress value) required before
    /// declaring deadlock.
    int deadlock_stable_rounds = 256;
};

struct ValidationReport {
    std::vector<Diagnostic> diagnostics;
    bool deadlock = false;
    /// what()s of non-deadlock exceptions thrown by rank bodies.
    /// run_validated records these instead of rethrowing, so deliberately
    /// buggy programs can be post-mortemed.
    std::vector<std::string> rank_errors;
    // Traffic observed (user + collective-internal).
    std::uint64_t sends = 0;
    std::uint64_t receives = 0;  ///< completed (matched+consumed) receives
    std::uint64_t probes = 0;
    std::uint64_t collectives = 0;

    bool has(DiagKind kind) const;
    std::size_t count(DiagKind kind) const;
    /// Human-readable dump of all diagnostics, one per line.
    std::string summary() const;
};

class Validator {
public:
    Validator(int nranks, ValidatorOptions opts);

    bool enabled() const { return opts_.enabled; }
    const ValidatorOptions& options() const { return opts_; }

    // ---- rank lifecycle (Runtime) --------------------------------------
    void on_rank_start(int rank);
    void on_rank_finish(int rank);

    // ---- traffic (Comm / Runtime) --------------------------------------
    void on_send(int src, int dst, int tag, std::size_t bytes, bool internal);
    void on_recv_posted(int rank, int src, int tag, bool internal);
    void on_probe(int rank, int src, int tag, bool internal);
    void on_collective(int rank);
    /// Any event that can unblock a waiter: delivery, consumption,
    /// barrier arrival. Resets the deadlock detector's stability count.
    void on_progress();
    /// A consuming receive completed at `rank`.
    void on_consumed(int rank);

    void report(DiagKind kind, int rank, std::string message);

    // ---- blocking / deadlock (Request::wait) ---------------------------
    void on_wait_begin(int rank, const std::string& what);
    void on_wait_end(int rank);
    /// Called after each failed test() inside wait(). Returns true once
    /// deadlock has been declared; the caller throws DeadlockError. A rank
    /// only counts as stuck once a test() it started at the current
    /// progress value failed: on_wait_begin and each poll read progress
    /// before the rank's next test(), so a rank with a deliverable message
    /// that has not run since the delivery never counts.
    bool poll_deadlock(int rank);
    std::string deadlock_message() const;

    // ---- finalize ------------------------------------------------------
    ValidationReport take_report();

private:
    ValidatorOptions opts_;

    struct RankState {
        // 0 = running, 1 = blocked in wait(), 2 = finished.
        std::atomic<int> phase{0};
        // Progress read before the rank's next test(), and the value read
        // before its latest failed one (kNever: none yet in this wait).
        std::atomic<std::uint64_t> next_test{0};
        std::atomic<std::uint64_t> failed_at{kNever};
        std::mutex desc_mutex;
        std::string wait_desc;
    };
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};
    std::vector<std::unique_ptr<RankState>> ranks_;

    std::atomic<std::uint64_t> progress_{0};
    std::atomic<bool> deadlock_{false};

    std::atomic<std::uint64_t> sends_{0};
    std::atomic<std::uint64_t> receives_{0};
    std::atomic<std::uint64_t> probes_{0};
    std::atomic<std::uint64_t> collectives_{0};

    mutable std::mutex mutex_;  // guards diagnostics_ and detector state
    std::vector<Diagnostic> diagnostics_;
    std::uint64_t last_progress_ = 0;
    int stable_rounds_ = 0;
    std::string deadlock_msg_;

    void check_user_tag(int rank, const char* op, int tag, bool internal);
};

namespace detail {
/// RAII marker: point-to-point calls made while a CollectiveScope is alive
/// belong to a collective and may use reserved tags (>= kMaxUserTag).
struct CollectiveScope {
    CollectiveScope();
    ~CollectiveScope();
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;
};
bool in_collective();
}  // namespace detail

}  // namespace bat::vmpi
