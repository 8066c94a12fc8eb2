#include "vmpi/validator.hpp"

#include <sstream>
#include <thread>

#include "vmpi/comm.hpp"

namespace bat::vmpi {

const char* to_string(DiagKind kind) {
    switch (kind) {
        case DiagKind::unmatched_send: return "unmatched-send";
        case DiagKind::leaked_request: return "leaked-request";
        case DiagKind::tag_violation: return "tag-violation";
        case DiagKind::size_mismatch: return "size-mismatch";
        case DiagKind::any_source_starvation: return "any-source-starvation";
        case DiagKind::deadlock: return "deadlock";
    }
    return "unknown";
}

bool ValidationReport::has(DiagKind kind) const { return count(kind) > 0; }

std::size_t ValidationReport::count(DiagKind kind) const {
    std::size_t n = 0;
    for (const auto& d : diagnostics) {
        if (d.kind == kind) {
            ++n;
        }
    }
    return n;
}

std::string ValidationReport::summary() const {
    std::ostringstream os;
    for (const auto& d : diagnostics) {
        os << "[" << to_string(d.kind) << "]";
        if (d.rank >= 0) {
            os << " rank " << d.rank;
        }
        os << ": " << d.message << "\n";
    }
    return os.str();
}

Validator::Validator(int nranks, ValidatorOptions opts) : opts_(opts) {
    ranks_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        ranks_.push_back(std::make_unique<RankState>());
    }
}

void Validator::on_rank_start(int rank) {
    ranks_[static_cast<std::size_t>(rank)]->phase.store(0, std::memory_order_release);
}

void Validator::on_rank_finish(int rank) {
    ranks_[static_cast<std::size_t>(rank)]->phase.store(2, std::memory_order_release);
    // A rank exiting can be what makes the remaining ranks undeliverable
    // (e.g. it never entered a barrier); let the detector reassess from a
    // clean stability count rather than miscounting this as progress.
}

void Validator::check_user_tag(int rank, const char* op, int tag, bool internal) {
    if (internal) {
        return;
    }
    if (tag < 0 || tag >= kMaxUserTag) {
        std::ostringstream os;
        os << op << " with tag " << tag << " outside the user range [0, " << kMaxUserTag
           << "); tags >= kMaxUserTag are reserved for collectives";
        report(DiagKind::tag_violation, rank, os.str());
    }
}

void Validator::on_send(int src, int dst, int tag, std::size_t bytes, bool internal) {
    sends_.fetch_add(1, std::memory_order_relaxed);
    check_user_tag(src, "isend", tag, internal);
    (void)dst;
    (void)bytes;
}

void Validator::on_recv_posted(int rank, int src, int tag, bool internal) {
    check_user_tag(rank, "irecv", tag, internal);
    (void)src;
}

void Validator::on_probe(int rank, int src, int tag, bool internal) {
    probes_.fetch_add(1, std::memory_order_relaxed);
    check_user_tag(rank, "iprobe", tag, internal);
    (void)src;
}

void Validator::on_collective(int rank) {
    collectives_.fetch_add(1, std::memory_order_relaxed);
    (void)rank;
}

void Validator::on_progress() { progress_.fetch_add(1, std::memory_order_acq_rel); }

void Validator::on_consumed(int rank) {
    receives_.fetch_add(1, std::memory_order_relaxed);
    on_progress();
    (void)rank;
}

void Validator::report(DiagKind kind, int rank, std::string message) {
    std::lock_guard<std::mutex> lock(mutex_);
    diagnostics_.push_back(Diagnostic{kind, rank, std::move(message)});
}

void Validator::on_wait_begin(int rank, const std::string& what) {
    RankState& rs = *ranks_[static_cast<std::size_t>(rank)];
    {
        std::lock_guard<std::mutex> lock(rs.desc_mutex);
        rs.wait_desc = what;
    }
    rs.failed_at.store(kNever, std::memory_order_relaxed);
    rs.next_test.store(progress_.load(std::memory_order_acquire), std::memory_order_relaxed);
    rs.phase.store(1, std::memory_order_release);
}

void Validator::on_wait_end(int rank) {
    ranks_[static_cast<std::size_t>(rank)]->phase.store(0, std::memory_order_release);
}

bool Validator::poll_deadlock(int rank) {
    if (deadlock_.load(std::memory_order_acquire)) {
        return true;
    }
    // The test() that just failed started at next_test; the read below is
    // the value the rank's next test() starts from.
    RankState& me = *ranks_[static_cast<std::size_t>(rank)];
    me.failed_at.store(me.next_test.load(std::memory_order_relaxed), std::memory_order_release);
    const std::uint64_t progress = progress_.load(std::memory_order_acquire);
    me.next_test.store(progress, std::memory_order_relaxed);

    // Fast path: a rank still running, or a blocked rank that has not yet
    // failed a test() at the current progress, means no deadlock yet.
    int blocked = 0;
    for (const auto& rs : ranks_) {
        const int phase = rs->phase.load(std::memory_order_acquire);
        const bool untested =
            phase == 1 && rs->failed_at.load(std::memory_order_acquire) != progress;
        if (phase == 0 || untested) {
            return false;
        }
        if (phase == 1) {
            ++blocked;
        }
    }
    if (blocked == 0) {
        return false;  // everyone finished; `rank` is about to observe that
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (deadlock_.load(std::memory_order_acquire)) {
        return true;
    }
    if (progress != last_progress_) {
        last_progress_ = progress;
        stable_rounds_ = 0;
        return false;
    }
    if (++stable_rounds_ < opts_.deadlock_stable_rounds) {
        return false;
    }

    // Declare: every live rank is blocked and nothing has moved for many
    // consecutive observations. Build the wait-for report.
    std::ostringstream os;
    os << "vmpi deadlock: all live ranks blocked with no deliverable message;"
       << " wait-for state:";
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        RankState& rs = *ranks_[r];
        const int phase = rs.phase.load(std::memory_order_acquire);
        os << "\n  rank " << r << ": ";
        if (phase == 2) {
            os << "finished";
        } else {
            std::lock_guard<std::mutex> desc_lock(rs.desc_mutex);
            os << "blocked in " << rs.wait_desc;
        }
    }
    deadlock_msg_ = os.str();
    diagnostics_.push_back(Diagnostic{DiagKind::deadlock, -1, deadlock_msg_});
    deadlock_.store(true, std::memory_order_release);
    return true;
}

std::string Validator::deadlock_message() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return deadlock_msg_;
}

ValidationReport Validator::take_report() {
    ValidationReport report;
    report.sends = sends_.load(std::memory_order_relaxed);
    report.receives = receives_.load(std::memory_order_relaxed);
    report.probes = probes_.load(std::memory_order_relaxed);
    report.collectives = collectives_.load(std::memory_order_relaxed);
    report.deadlock = deadlock_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mutex_);
    report.diagnostics = diagnostics_;
    return report;
}

namespace detail {

namespace {
thread_local int t_collective_depth = 0;
}

CollectiveScope::CollectiveScope() { ++t_collective_depth; }
CollectiveScope::~CollectiveScope() { --t_collective_depth; }
bool in_collective() { return t_collective_depth > 0; }

}  // namespace detail

}  // namespace bat::vmpi
