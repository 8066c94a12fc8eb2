#include "vmpi/comm.hpp"

#include <sstream>
#include <thread>

#include "obs/health.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"

namespace bat::vmpi {

// ---- Request --------------------------------------------------------------

bool Request::test() {
    BAT_CHECK_MSG(impl_ != nullptr, "test() on an empty Request");
    if (impl_->done) {
        return true;
    }
    if (impl_->poll()) {
        impl_->done = true;
    }
    return impl_->done;
}

namespace {

/// Publishes what a rank is blocked on for the stall watchdog while a
/// wait() spins; cleared on every exit path (completion or DeadlockError).
struct BlockedScope {
    int rank = -1;
    BlockedScope(int r, const char* op, int peer, int tag) {
        if (r >= 0 && op != nullptr && obs::health_armed()) {
            rank = r;
            obs::set_blocked_op(rank, op, peer, tag);
        }
    }
    ~BlockedScope() {
        if (rank >= 0) {
            obs::clear_blocked_op(rank);
        }
    }
};

}  // namespace

void Request::wait() {
    BAT_CHECK_MSG(impl_ != nullptr, "wait() on an empty Request");
    Validator* validator = impl_->validator.get();
    if (validator == nullptr) {
        if (test()) {
            return;
        }
        const BlockedScope blocked(impl_->rank, impl_->block_op, impl_->block_peer,
                                   impl_->block_tag);
        while (!test()) {
            // Under schedule exploration: a free switch to another runnable
            // thread (throws sched::DeadlockError once the run is declared
            // stuck); a plain OS yield otherwise.
            sched::yield_blocked("vmpi.wait");
        }
        return;
    }
    if (test()) {
        return;
    }
    const BlockedScope blocked(impl_->rank, impl_->block_op, impl_->block_peer,
                               impl_->block_tag);
    // Mark this rank blocked for the deadlock detector, and unmark on every
    // exit path (completion or DeadlockError).
    struct WaitGuard {
        Validator* validator;
        int rank;
        ~WaitGuard() { validator->on_wait_end(rank); }
    };
    validator->on_wait_begin(impl_->rank, impl_->desc);
    WaitGuard guard{validator, impl_->rank};
    while (!test()) {
        if (validator->poll_deadlock(impl_->rank)) {
            throw DeadlockError(validator->deadlock_message());
        }
        sched::yield_blocked("vmpi.wait");
    }
}

void wait_all(std::span<Request> reqs) {
    for (auto& r : reqs) {
        r.wait();
    }
}

// ---- Comm point-to-point ----------------------------------------------------

int Comm::size() const { return rt_->size(); }

Validator* Comm::validator() const {
    Validator* v = rt_->validator_.get();
    return (v != nullptr && v->enabled()) ? v : nullptr;
}

void Comm::report_size_mismatch(const char* op, int src, int tag, std::size_t got,
                                std::size_t expected) {
    if (Validator* val = validator()) {
        std::ostringstream os;
        os << op << "(src=" << src << ", tag=" << tag << ") matched a " << got
           << "-byte message, expected a multiple of " << expected
           << " bytes — sender and receiver disagree on the element type";
        val->report(DiagKind::size_mismatch, rank_, os.str());
    }
}

Request Comm::isend(int dst, int tag, Bytes payload) {
    BAT_CHECK_MSG(dst >= 0 && dst < size(), "isend to invalid rank " << dst);
    sched::yield_point("vmpi.isend");
    if (Validator* val = validator()) {
        val->on_send(rank_, dst, tag, payload.size(), detail::in_collective());
    }
    std::uint64_t flow = 0;
    const std::uint64_t bytes = payload.size();
    const bool traced = obs::trace_enabled();
    const std::uint64_t qtrace = obs::current_query().trace_id;
    if (traced) {
        // The flow id rides inside the message and is closed by the
        // matching receive, drawing a send→recv arrow in the trace viewer.
        flow = obs::next_flow_id();
        obs::emit_begin_msg("vmpi.send", "vmpi", tag, dst,
                            static_cast<std::int64_t>(bytes), /*wait_us=*/-1,
                            qtrace);
        obs::emit_flow_start("vmpi", flow);
    }
    Runtime::Message msg;
    msg.src = rank_;
    msg.tag = tag;
    msg.payload = std::move(payload);
    msg.flow = flow;
    msg.qtrace = qtrace;
    if (sched::maybe_active()) {
        msg.vc = sched::fork_token();  // send side of the send→match edge
    }
    rt_->deliver(dst, std::move(msg));
    if (traced) {
        obs::emit_end("vmpi.send", "vmpi");
    }
    obs::note_send(rank_, bytes);
    auto impl = std::make_shared<Request::Impl>();
    impl->done = true;  // buffered send: complete on return
    impl->poll = [] { return true; };
    return Request(std::move(impl));
}

Request Comm::isend(int dst, int tag, std::span<const std::byte> payload) {
    return isend(dst, tag, Bytes(payload.begin(), payload.end()));
}

Request Comm::irecv(int src, int tag, Bytes& out, int* from) {
    Runtime* rt = rt_;
    const int me = rank_;
    auto impl = std::make_shared<Request::Impl>();
    impl->rank = me;
    if (Validator* val = validator()) {
        val->on_recv_posted(me, src, tag, detail::in_collective());
        impl->validator = rt_->validator_;
    }
    // Structured fields for the stall watchdog's "blocked on" line: three
    // plain stores, cheap enough to record unconditionally. The validator's
    // deadlock detector additionally needs the rendered string.
    impl->block_op = "irecv";
    impl->block_peer = src == kAnySource ? -1 : src;
    impl->block_tag = tag;
    if (impl->validator != nullptr) {
        std::ostringstream os;
        os << "irecv(src=" << (src == kAnySource ? std::string("ANY") : std::to_string(src))
           << ", tag=" << tag << ")";
        impl->desc = os.str();
    }
    Bytes* out_ptr = &out;
    const bool traced = obs::trace_enabled();
    const std::uint64_t post_ns = traced ? obs::trace_now_ns() : 0;
    impl->poll = [rt, me, src, tag, out_ptr, from, traced, post_ns] {
        int actual = -1;
        std::uint64_t flow = 0;
        if (!rt->try_match(me, src, tag, out_ptr, &actual, /*consume=*/true, nullptr,
                           &flow)) {
            return false;
        }
        if (from != nullptr) {
            *from = actual;
        }
        obs::note_recv(me, out_ptr->size());
        if (traced && obs::trace_enabled()) {
            // The whole recv span is emitted at completion (a tiny span with
            // the post→match wait as an arg) so spans opened between post
            // and completion cannot cross it.
            const std::uint64_t wait_us = (obs::trace_now_ns() - post_ns) / 1000;
            obs::emit_begin_msg("vmpi.recv", "vmpi", tag, actual,
                                static_cast<std::int64_t>(out_ptr->size()),
                                static_cast<std::int64_t>(wait_us));
            if (flow != 0) {
                obs::emit_flow_end("vmpi", flow);
            }
            obs::emit_end("vmpi.recv", "vmpi");
        }
        return true;
    };
    return Request(std::move(impl));
}

void Comm::send(int dst, int tag, std::span<const std::byte> payload) {
    isend(dst, tag, payload);
}

Bytes Comm::recv(int src, int tag, int* from) {
    Bytes out;
    Request r = irecv(src, tag, out, from);
    r.wait();
    return out;
}

bool Comm::iprobe(int src, int tag, int* from, std::size_t* bytes) {
    sched::yield_point("vmpi.iprobe");
    if (Validator* val = validator()) {
        val->on_probe(rank_, src, tag, detail::in_collective());
    }
    const bool hit = rt_->try_match(rank_, src, tag, nullptr, from, /*consume=*/false, bytes);
    if (!hit && sched::maybe_active() && sched::this_thread_scheduled()) {
        // Probe miss in a server poll loop: let someone else run (free
        // switch), else the prober would spin its preemption budget away.
        sched::yield_blocked("vmpi.iprobe.miss");
    }
    return hit;
}

int Comm::next_collective_tag() {
    // Collective tags cycle through a large reserved space; p2p traffic in
    // flight concurrently with collectives uses tags < kMaxUserTag so the
    // spaces never collide.
    if (Validator* val = validator()) {
        val->on_collective(rank_);
    }
    const int tag = kMaxUserTag + static_cast<int>(collective_seq_ % (1u << 10));
    ++collective_seq_;
    return tag;
}

// ---- Comm collectives -------------------------------------------------------

void Comm::barrier() {
    BAT_TRACE_SCOPE_CAT("vmpi.barrier", "vmpi");
    ibarrier().wait();
}

Request Comm::ibarrier() {
    const detail::CollectiveScope collective_scope;
    // All ranks call collectives in the same order, so this rank's sequence
    // number identifies the same ibarrier instance on every rank.
    const std::uint64_t seq = ibarrier_seq_++;
    sched::yield_point("vmpi.ibarrier");
    Runtime::IbarrierState& st = rt_->ibarrier_state(seq);
    if (sched::maybe_active() && sched::this_thread_scheduled()) {
        // Arrival side of the arrival→completion happens-before edges.
        std::lock_guard<std::mutex> clock_lock(st.clock_mutex);
        sched::merge_token(st.clock);
    }
    st.arrived.fetch_add(1, std::memory_order_acq_rel);
    obs::note_collective(rank_);
    Runtime* rt = rt_;
    auto impl = std::make_shared<Request::Impl>();
    impl->rank = rank_;
    if (Validator* val = validator()) {
        val->on_collective(rank_);
        val->on_progress();  // our arrival may complete other ranks' barriers
        impl->validator = rt_->validator_;
        impl->done = false;
    }
    impl->block_op = "ibarrier";
    impl->block_tag = static_cast<int>(seq);
    if (impl->validator != nullptr) {
        impl->desc = "ibarrier(seq=" + std::to_string(seq) + ")";
    }
    impl->poll = [rt, &st] {
        if (st.arrived.load(std::memory_order_acquire) < rt->size()) {
            return false;
        }
        if (sched::maybe_active() && sched::this_thread_scheduled()) {
            // Completion: acquire every arrival's clock, and report the
            // barrier resolving as forward progress.
            {
                std::lock_guard<std::mutex> clock_lock(st.clock_mutex);
                sched::acquire_token(st.clock);
            }
            sched::note_progress();
        }
        return true;
    };
    return Request(std::move(impl));
}

std::vector<Bytes> Comm::gatherv(Bytes payload, int root) {
    BAT_TRACE_SCOPE_CAT("vmpi.gatherv", "vmpi");
    const detail::CollectiveScope collective_scope;
    const int tag = next_collective_tag();
    std::vector<Bytes> out;
    if (rank() == root) {
        out.resize(static_cast<std::size_t>(size()));
        out[static_cast<std::size_t>(root)] = std::move(payload);
        for (int r = 0; r < size(); ++r) {
            if (r == root) {
                continue;
            }
            out[static_cast<std::size_t>(r)] = recv(r, tag);
        }
    } else {
        isend(root, tag, std::move(payload));
    }
    return out;
}

Bytes Comm::scatterv(std::vector<Bytes> payloads, int root) {
    BAT_TRACE_SCOPE_CAT("vmpi.scatterv", "vmpi");
    const detail::CollectiveScope collective_scope;
    const int tag = next_collective_tag();
    if (rank() == root) {
        BAT_CHECK_MSG(static_cast<int>(payloads.size()) == size(),
                      "scatterv requires one payload per rank on root");
        for (int r = 0; r < size(); ++r) {
            if (r == root) {
                continue;
            }
            isend(r, tag, std::move(payloads[static_cast<std::size_t>(r)]));
        }
        return std::move(payloads[static_cast<std::size_t>(root)]);
    }
    return recv(root, tag);
}

Bytes Comm::bcast(Bytes payload, int root) {
    BAT_TRACE_SCOPE_CAT("vmpi.bcast", "vmpi");
    const detail::CollectiveScope collective_scope;
    const int tag = next_collective_tag();
    if (rank() == root) {
        for (int r = 0; r < size(); ++r) {
            if (r == root) {
                continue;
            }
            isend(r, tag, payload);
        }
        return payload;
    }
    return recv(root, tag);
}

}  // namespace bat::vmpi
