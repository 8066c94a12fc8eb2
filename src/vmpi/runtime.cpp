#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include "obs/health.hpp"
#include "util/log.hpp"
#include "vmpi/comm.hpp"

namespace bat::vmpi {

namespace {

bool env_validation_enabled() {
    const char* env = std::getenv("BAT_VMPI_VALIDATE");
    return env != nullptr && std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0;
}

}  // namespace

Runtime::Runtime(int nranks, ValidatorOptions opts) : nranks_(nranks) {
    BAT_CHECK_MSG(nranks > 0, "Runtime requires at least one rank");
    mailboxes_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        mailboxes_.push_back(std::make_unique<Mailbox>());
    }
    validator_ = std::make_shared<Validator>(nranks, opts);
    // In-flight message introspection for stall diagnoses: per-mailbox
    // pending counts with the src/tag/bytes of the oldest few. try_lock so
    // the watchdog never blocks behind (or deadlocks with) a rank thread.
    diag_provider_ = obs::register_diag_provider("vmpi", [this] {
        std::string out = "{\"pending\":[";
        bool first = true;
        for (std::size_t dst = 0; dst < mailboxes_.size(); ++dst) {
            Mailbox& box = *mailboxes_[dst];
            if (!box.mutex.try_lock()) {
                out += first ? "" : ",";
                first = false;
                out += "{\"rank\":" + std::to_string(dst) + ",\"state\":\"busy\"}";
                continue;
            }
            if (!box.messages.empty()) {
                out += first ? "" : ",";
                first = false;
                out += "{\"rank\":" + std::to_string(dst) + ",\"count\":" +
                       std::to_string(box.messages.size()) + ",\"messages\":[";
                std::size_t shown = 0;
                for (const Message& msg : box.messages) {
                    if (shown == 8) {
                        break;
                    }
                    out += shown == 0 ? "" : ",";
                    ++shown;
                    out += "{\"src\":" + std::to_string(msg.src) +
                           ",\"tag\":" + std::to_string(msg.tag) +
                           ",\"bytes\":" + std::to_string(msg.payload.size()) + "}";
                }
                out += "]}";
            }
            box.mutex.unlock();
        }
        out += "]}";
        return out;
    });
}

Runtime::~Runtime() {
    obs::unregister_diag_provider(diag_provider_);
}

void Runtime::deliver(int dst, Message msg) {
    Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
    {
        std::lock_guard<CheckedMutex> lock(box.mutex);
        if (sched::maybe_active()) {
            sched::note_access(&box, "vmpi.mailbox", /*is_write=*/true);
        }
        box.messages.push_back(std::move(msg));
    }
    box.cv.notify_all();
    if (sched::maybe_active()) {
        sched::note_progress();  // a delivery can complete someone's receive
    }
    if (validator_->enabled()) {
        validator_->on_progress();
    }
}

bool Runtime::try_match(int rank, int src, int tag, Bytes* out, int* from, bool consume,
                        std::size_t* bytes, std::uint64_t* flow) {
    Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
    const bool validate = validator_->enabled();
    std::lock_guard<CheckedMutex> lock(box.mutex);
    if (sched::maybe_active()) {
        sched::note_access(&box, "vmpi.mailbox", /*is_write=*/consume);
    }
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (it->tag != tag) {
            continue;
        }
        if (src != kAnySource && it->src != src) {
            continue;
        }
        if (from != nullptr) {
            *from = it->src;
        }
        if (bytes != nullptr) {
            *bytes = it->payload.size();
        }
        if (flow != nullptr) {
            *flow = it->flow;
        }
        if (consume) {
            if (validate) {
                // Every message older than the match was passed over by
                // this consuming receive; long-starved ones indicate the
                // ANY_SOURCE starvation / stale-tag pattern.
                for (auto skipped = box.messages.begin(); skipped != it; ++skipped) {
                    ++skipped->passed_over;
                    if (skipped->passed_over > validator_->options().starvation_threshold &&
                        !skipped->starvation_reported) {
                        skipped->starvation_reported = true;
                        std::ostringstream os;
                        os << "message from rank " << skipped->src << " with tag "
                           << skipped->tag << " (" << skipped->payload.size()
                           << " bytes) has been passed over " << skipped->passed_over
                           << " times by consuming receives at rank " << rank
                           << " — ANY_SOURCE starvation or a receive with a stale tag";
                        validator_->report(DiagKind::any_source_starvation, rank, os.str());
                    }
                }
            }
            if (out != nullptr) {
                *out = std::move(it->payload);
            }
            if (sched::maybe_active()) {
                sched::join_token(it->vc);  // match side of the send→match edge
                sched::note_progress();
            }
            box.messages.erase(it);
            if (validate) {
                validator_->on_consumed(rank);
            }
        }
        return true;
    }
    return false;
}

Runtime::IbarrierState& Runtime::ibarrier_state(std::uint64_t seq) {
    std::lock_guard<CheckedMutex> lock(ibarrier_mutex_);
    while (ibarrier_states_.size() <= seq) {
        ibarrier_states_.push_back(std::make_unique<IbarrierState>());
    }
    return *ibarrier_states_[seq];
}

ValidationReport Runtime::run_impl(int nranks, const std::function<void(Comm&)>& fn,
                                   ValidatorOptions opts, bool rethrow) {
    if (!sched::active()) {
        if (const auto sched_opts = sched::env_options()) {
            // BAT_SCHED_SEED armed in the environment: serialize this run
            // under the deterministic scheduler, append the bat-sched-v1
            // report line (BAT_SCHED_TRACE_FILE) for tools/vmpi_explore,
            // and surface any schedule-level failure to the caller.
            ValidationReport report;
            const sched::RunResult rr = sched::run_scheduled(
                *sched_opts, [&] { report = run_impl_inner(nranks, fn, opts, rethrow); });
            sched::write_env_report(rr);
            BAT_LOG_INFO("sched: " << rr.summary());
            if (rr.error != nullptr) {
                std::rethrow_exception(rr.error);
            }
            if (rr.deadlock) {
                throw sched::DeadlockError(rr.deadlock_report);
            }
            if (rethrow && !rr.races.empty()) {
                throw sched::RaceError(rr.races.front());
            }
            return report;
        }
    }
    return run_impl_inner(nranks, fn, opts, rethrow);
}

ValidationReport Runtime::run_impl_inner(int nranks, const std::function<void(Comm&)>& fn,
                                         ValidatorOptions opts, bool rethrow) {
    Runtime rt(nranks, opts);
    Validator& validator = *rt.validator_;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
    std::atomic<bool> failed{false};

    // Under schedule exploration, announce every rank thread before any is
    // spawned: the creating thread fixes slot assignment deterministically.
    std::vector<std::uint64_t> sched_handles(static_cast<std::size_t>(nranks), 0);
    if (sched::maybe_active()) {
        for (int r = 0; r < nranks; ++r) {
            sched_handles[static_cast<std::size_t>(r)] =
                sched::announce_thread("rank" + std::to_string(r));
        }
    }
    for (int r = 0; r < nranks; ++r) {
        const std::uint64_t sched_handle = sched_handles[static_cast<std::size_t>(r)];
        threads.emplace_back([&rt, &fn, &errors, &failed, &validator, r, sched_handle] {
            const sched::AdoptScope sched_adopt(sched_handle);
            // Tag this thread with its rank so log lines carry an "rN"
            // prefix and trace events land on the rank's timeline track.
            set_thread_log_rank(r);
            // Rank threads carry most of the CPU; sample them for their
            // whole body (one relaxed load when the profiler is off).
            obs::attach_thread("rank");
            Comm comm(&rt, r);
            if (validator.enabled()) {
                validator.on_rank_start(r);
            }
            obs::rank_begin(r);
            try {
                fn(comm);
            } catch (...) {
                errors[static_cast<std::size_t>(r)] = std::current_exception();
                failed.store(true, std::memory_order_release);
            }
            obs::rank_end(r);
            if (validator.enabled()) {
                validator.on_rank_finish(r);
            }
            set_thread_log_rank(-1);
        });
    }
    for (std::size_t i = 0; i < threads.size(); ++i) {
        // Scheduled join: spin until the rank has left the schedule, then
        // reap it natively with the token held — no decisions happen during
        // the OS join, so the decision stream stays deterministic even with
        // idle pool workers still spinning.
        if (sched::maybe_active() && sched::this_thread_scheduled()) {
            try {
                while (!sched::thread_finished(sched_handles[i])) {
                    sched::yield_blocked("vmpi.join");
                }
            } catch (const sched::DeadlockError&) {
                // Every rank unwinds with its own DeadlockError and exits;
                // fall through to the native join.
            }
        }
        threads[i].join();
    }

    ValidationReport report;
    if (validator.enabled()) {
        // Finalize checks: any message still sitting in a mailbox was sent
        // but never received.
        for (int dst = 0; dst < nranks; ++dst) {
            Mailbox& box = *rt.mailboxes_[static_cast<std::size_t>(dst)];
            std::lock_guard<CheckedMutex> lock(box.mutex);
            for (const Message& msg : box.messages) {
                std::ostringstream os;
                os << "send from rank " << msg.src << " to rank " << dst << " with tag "
                   << msg.tag << " (" << msg.payload.size()
                   << " bytes) was never received (pending at finalize)";
                validator.report(DiagKind::unmatched_send, msg.src, os.str());
            }
        }
        report = validator.take_report();
    }

    if (failed.load(std::memory_order_acquire)) {
        for (auto& e : errors) {
            if (!e) {
                continue;
            }
            if (rethrow) {
                std::rethrow_exception(e);
            }
            try {
                std::rethrow_exception(e);
            } catch (const DeadlockError&) {
                // Already captured as a deadlock diagnostic.
            } catch (const std::exception& ex) {
                report.rank_errors.emplace_back(ex.what());
            } catch (...) {
                report.rank_errors.emplace_back("unknown exception");
            }
        }
    }

    if (validator.enabled() && rethrow && !report.diagnostics.empty()) {
        // Env-enabled validation on a plain run(): surface findings loudly
        // but do not change control flow.
        BAT_LOG_WARN("vmpi validator found " << report.diagnostics.size()
                                             << " issue(s):\n"
                                             << report.summary());
    }
    return report;
}

void Runtime::run(int nranks, const std::function<void(Comm&)>& fn) {
    ValidatorOptions opts;
    opts.enabled = env_validation_enabled();
    run_impl(nranks, fn, opts, /*rethrow=*/true);
}

ValidationReport Runtime::run_validated(int nranks, const std::function<void(Comm&)>& fn,
                                        ValidatorOptions opts) {
    opts.enabled = true;
    return run_impl(nranks, fn, opts, /*rethrow=*/false);
}

}  // namespace bat::vmpi
