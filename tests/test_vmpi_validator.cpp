// Tests for the vmpi protocol validator: each deliberately buggy program
// must produce its specific diagnostic — and terminate — while a correct
// program must produce none.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "vmpi/comm.hpp"
#include "vmpi/validator.hpp"

namespace bat::vmpi {
namespace {

Bytes make_payload(int value, std::size_t size = 8) {
    Bytes b(size);
    std::memcpy(b.data(), &value, std::min(size, sizeof(int)));
    return b;
}

// Fast deadlock declaration so the deliberate-deadlock tests finish quickly;
// the default is deliberately more patient.
ValidatorOptions fast_options() {
    ValidatorOptions opts;
    opts.deadlock_stable_rounds = 50;
    return opts;
}

TEST(VmpiValidator, CleanProgramHasNoDiagnostics) {
    const ValidationReport report = Runtime::run_validated(4, [](Comm& comm) {
        const int next = (comm.rank() + 1) % comm.size();
        const int prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.isend(next, 7, make_payload(comm.rank()));
        comm.recv(prev, 7);
        comm.barrier();
        comm.allreduce(comm.rank(), [](int a, int b) { return a + b; });
    });
    EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
    EXPECT_FALSE(report.deadlock);
    EXPECT_TRUE(report.rank_errors.empty());
    // Traffic was tracked: 4 user sends plus collective-internal ones.
    EXPECT_GE(report.sends, 4u);
    EXPECT_GE(report.receives, 4u);
    EXPECT_GT(report.collectives, 0u);
}

TEST(VmpiValidator, LeakedRequestIsReported) {
    const ValidationReport report = Runtime::run_validated(1, [](Comm& comm) {
        Bytes out;
        // Posted, never completed, dropped: the request leaks.
        Request r = comm.irecv(0, 5, out);
        (void)r;
    });
    ASSERT_TRUE(report.has(DiagKind::leaked_request)) << report.summary();
    EXPECT_EQ(report.count(DiagKind::leaked_request), 1u);
    const std::string& msg = report.diagnostics[0].message;
    EXPECT_NE(msg.find("irecv"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag=5"), std::string::npos) << msg;
}

TEST(VmpiValidator, CompletedRequestDoesNotLeak) {
    const ValidationReport report = Runtime::run_validated(1, [](Comm& comm) {
        comm.isend(0, 5, make_payload(1));
        Bytes out;
        Request r = comm.irecv(0, 5, out);
        r.wait();
    });
    EXPECT_FALSE(report.has(DiagKind::leaked_request)) << report.summary();
}

TEST(VmpiValidator, TagOverflowIsReported) {
    const ValidationReport report = Runtime::run_validated(1, [](Comm& comm) {
        const int bad_tag = kMaxUserTag + 3;
        comm.isend(0, bad_tag, make_payload(1));
        comm.recv(0, bad_tag);
    });
    // isend and irecv each flag the reserved tag.
    ASSERT_TRUE(report.has(DiagKind::tag_violation)) << report.summary();
    EXPECT_EQ(report.count(DiagKind::tag_violation), 2u);
    EXPECT_NE(report.diagnostics[0].message.find("reserved"), std::string::npos);
}

TEST(VmpiValidator, NegativeTagIsReported) {
    const ValidationReport report = Runtime::run_validated(1, [](Comm& comm) {
        comm.iprobe(0, -7);
    });
    ASSERT_TRUE(report.has(DiagKind::tag_violation)) << report.summary();
}

TEST(VmpiValidator, CollectiveReservedTagsAreNotFlagged) {
    // Collectives use tags >= kMaxUserTag internally; only *user* traffic
    // in that range is a violation.
    const ValidationReport report = Runtime::run_validated(3, [](Comm& comm) {
        comm.gatherv(make_payload(comm.rank()), 0);
        comm.bcast(make_payload(1), 0);
        comm.alltoallv(std::vector<Bytes>(static_cast<std::size_t>(comm.size())));
        comm.allgatherv(make_payload(comm.rank()));
    });
    EXPECT_FALSE(report.has(DiagKind::tag_violation)) << report.summary();
}

TEST(VmpiValidator, TwoRankSendRecvDeadlockIsDetected) {
    // Classic head-to-head: both ranks receive first, neither has sent.
    // Without the validator this spins forever; with it, every rank is
    // unblocked with DeadlockError and the report names both waits.
    const ValidationReport report = Runtime::run_validated(
        2,
        [](Comm& comm) {
            const int other = 1 - comm.rank();
            comm.recv(other, 1);            // blocks forever
            comm.isend(other, 1, Bytes{});  // never reached
        },
        fast_options());
    EXPECT_TRUE(report.deadlock);
    ASSERT_TRUE(report.has(DiagKind::deadlock)) << report.summary();
    const std::string msg = report.summary();
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("irecv"), std::string::npos) << msg;
}

TEST(VmpiValidator, DescheduledRankWithDeliverableMessageIsNotStuck) {
    // Deterministic replay of the false-deadlock race: rank 1 has a message
    // waiting but has not run a test() since it arrived, while rank 0 spins
    // through its polls.
    ValidatorOptions opts;
    opts.deadlock_stable_rounds = 4;
    Validator v(2, opts);
    v.on_rank_start(0);
    v.on_rank_start(1);
    v.on_wait_begin(0, "recv(src=1, tag=1)");
    v.on_wait_begin(1, "recv(src=0, tag=2)");
    v.on_progress();  // delivery to rank 1
    for (int i = 0; i < 64; ++i) {
        ASSERT_FALSE(v.poll_deadlock(0)) << "declared on rank 0's poll " << i;
    }
    // Rank 1 runs, consumes its message, and blocks on the next receive.
    v.on_wait_end(1);
    v.on_consumed(1);
    v.on_wait_begin(1, "recv(src=0, tag=3)");
    EXPECT_FALSE(v.poll_deadlock(0));
    // Now both have failed a test() at the current progress: a real
    // deadlock, declared once it has been stable for the configured rounds.
    bool declared = false;
    for (int i = 0; i < 16 && !declared; ++i) {
        declared = v.poll_deadlock(1) || v.poll_deadlock(0);
    }
    EXPECT_TRUE(declared);
    EXPECT_TRUE(v.take_report().deadlock);
}

TEST(VmpiValidator, BarrierDeadlockIsDetected) {
    // Rank 1 exits without entering the barrier: rank 0 can never leave it.
    const ValidationReport report = Runtime::run_validated(
        2,
        [](Comm& comm) {
            if (comm.rank() == 0) {
                comm.barrier();
            }
        },
        fast_options());
    EXPECT_TRUE(report.deadlock);
    const std::string msg = report.summary();
    EXPECT_NE(msg.find("ibarrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("finished"), std::string::npos) << msg;
}

TEST(VmpiValidator, SizeMismatchIsReported) {
    const ValidationReport report = Runtime::run_validated(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.isend(1, 2, make_payload(1, 3));  // 3 bytes
        } else {
            // Expects sizeof(int) == 4 bytes; the BAT_CHECK still throws,
            // and the validator records why.
            comm.recv_value<int>(0, 2);
        }
    });
    ASSERT_TRUE(report.has(DiagKind::size_mismatch)) << report.summary();
    EXPECT_FALSE(report.rank_errors.empty());
    const std::string msg = report.summary();
    EXPECT_NE(msg.find("3-byte"), std::string::npos) << msg;
}

TEST(VmpiValidator, UnmatchedSendAtFinalizeIsReported) {
    const ValidationReport report = Runtime::run_validated(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.isend(1, 9, make_payload(42));  // rank 1 never receives
        }
    });
    ASSERT_TRUE(report.has(DiagKind::unmatched_send)) << report.summary();
    const std::string msg = report.summary();
    EXPECT_NE(msg.find("tag 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("never received"), std::string::npos) << msg;
}

TEST(VmpiValidator, StarvedMessageIsReported) {
    ValidatorOptions opts;
    opts.starvation_threshold = 4;
    const ValidationReport report = Runtime::run_validated(
        2,
        [](Comm& comm) {
            if (comm.rank() == 0) {
                comm.isend(1, 7, make_payload(0));  // sits while tag-8s drain
                for (int i = 0; i < 10; ++i) {
                    comm.isend(1, 8, make_payload(i));
                }
            } else {
                for (int i = 0; i < 10; ++i) {
                    comm.recv(0, 8);
                }
                comm.recv(0, 7);  // eventually drained: not unmatched
            }
        },
        opts);
    ASSERT_TRUE(report.has(DiagKind::any_source_starvation)) << report.summary();
    EXPECT_FALSE(report.has(DiagKind::unmatched_send)) << report.summary();
    const std::string msg = report.summary();
    EXPECT_NE(msg.find("tag 7"), std::string::npos) << msg;
}

TEST(VmpiValidator, PromptlyConsumedMessagesAreNotStarved) {
    ValidatorOptions opts;
    opts.starvation_threshold = 4;
    const ValidationReport report = Runtime::run_validated(
        2,
        [](Comm& comm) {
            if (comm.rank() == 0) {
                for (int i = 0; i < 50; ++i) {
                    comm.isend(1, 8, make_payload(i));
                }
            } else {
                for (int i = 0; i < 50; ++i) {
                    comm.recv(0, 8);
                }
            }
        },
        opts);
    EXPECT_FALSE(report.has(DiagKind::any_source_starvation)) << report.summary();
}

TEST(VmpiValidator, RankErrorsAreCapturedNotRethrown) {
    const ValidationReport report = Runtime::run_validated(3, [](Comm& comm) {
        if (comm.rank() == 1) {
            throw Error("deliberate failure on rank 1");
        }
    });
    ASSERT_EQ(report.rank_errors.size(), 1u);
    EXPECT_NE(report.rank_errors[0].find("deliberate failure"), std::string::npos);
}

TEST(VmpiValidator, DisabledValidatorStaysSilent) {
    // Plain run(): no validation unless BAT_VMPI_VALIDATE is set. The buggy
    // program (unmatched send) must behave exactly as before.
    EXPECT_NO_THROW(Runtime::run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.isend(1, 9, make_payload(1));
        }
    }));
}

TEST(VmpiValidator, ReportSummaryNamesKinds) {
    const ValidationReport report = Runtime::run_validated(1, [](Comm& comm) {
        comm.isend(0, kMaxUserTag, make_payload(1));
    });
    const std::string msg = report.summary();
    EXPECT_NE(msg.find("[tag-violation]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[unmatched-send]"), std::string::npos) << msg;
}

}  // namespace
}  // namespace bat::vmpi
