// Tests for the distributed in situ DataService (paper §IV-B): collective
// query rounds with spatial/attribute/progressive filters, ranks that sit
// a round out, and multiple consecutive rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "core/dataset.hpp"
#include "io/data_service.hpp"
#include "io/reader.hpp"
#include "io/writer.hpp"
#include "test_helpers.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});

struct Written {
    testing::TempDir dir;
    ParticleSet global;
    std::filesystem::path meta_path;

    explicit Written(std::size_t n = 16'000) {
        global = make_uniform_particles(kDomain, n, 2, 13);
        const GridDecomp decomp = grid_decomp_3d(8, kDomain);
        const auto per_rank = partition_particles(global, decomp);
        std::vector<Box> bounds;
        for (int r = 0; r < 8; ++r) {
            bounds.push_back(decomp.rank_box(r));
        }
        WriterConfig config;
        config.tree.target_file_size = 32 << 10;
        config.directory = dir.path();
        config.basename = "svc";
        meta_path = write_particles_serial(per_rank, bounds, config).metadata_path;
    }
};

TEST(DataServiceTest, EveryRankQueriesItsRegion) {
    Written w;
    const GridDecomp decomp = grid_decomp_3d(6, kDomain);
    std::atomic<std::uint64_t> total{0};
    vmpi::Runtime::run(6, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        BatQuery query;
        query.box = decomp.rank_read_box(comm.rank());
        query.inclusive_upper = false;
        const ParticleSet mine = service.query_round(query);
        total.fetch_add(mine.count());
        for (std::size_t i = 0; i < mine.count(); ++i) {
            EXPECT_TRUE(decomp.rank_read_box(comm.rank()).contains(mine.position(i)));
        }
    });
    EXPECT_EQ(total.load(), w.global.count());
}

TEST(DataServiceTest, SomeRanksSitOut) {
    Written w;
    std::atomic<std::uint64_t> total{0};
    vmpi::Runtime::run(5, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        if (comm.rank() == 2) {
            BatQuery query;  // whole domain
            total.fetch_add(service.query_round(query).count());
        } else {
            service.query_round(std::nullopt);
        }
    });
    EXPECT_EQ(total.load(), w.global.count());
}

TEST(DataServiceTest, AttributeFilteredRound) {
    Written w;
    const auto [lo, hi] = w.global.attr_range(0);
    const double qlo = lo + 0.7 * (hi - lo);
    const std::size_t expected =
        testing::brute_force_query(w.global, Box({-9, -9, -9}, {9, 9, 9}), true, 0, qlo, hi)
            .size();
    std::atomic<std::uint64_t> total{0};
    BatQuery query;
    query.attr_filters.push_back({0, qlo, hi});
    ParticleSet round;
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        if (comm.rank() == 0) {
            const ParticleSet got = service.query_round(query);
            for (std::size_t i = 0; i < got.count(); ++i) {
                EXPECT_GE(got.attr(0)[i], qlo);
            }
            total.fetch_add(got.count());
            round = got;
        } else {
            service.query_round(std::nullopt);
        }
    });
    EXPECT_EQ(total.load(), expected);

    // The round emits, in order, what Dataset's per-leaf queries emit over
    // the same leaves in the round's leaf order: the remote leaves grouped
    // by aggregator in first-appearance order, then rank 0's own leaves.
    Dataset ds(w.meta_path);
    const std::vector<int> leaves = ds.metadata().query_leaves(query.box, query.attr_filters);
    const std::vector<int> aggregator =
        assign_read_aggregators(static_cast<int>(ds.metadata().leaves.size()), 4);
    std::vector<int> aggregators;
    for (int leaf : leaves) {
        const int a = aggregator[static_cast<std::size_t>(leaf)];
        if (std::find(aggregators.begin(), aggregators.end(), a) == aggregators.end()) {
            aggregators.push_back(a);
        }
    }
    std::stable_partition(aggregators.begin(), aggregators.end(), [](int a) { return a != 0; });
    ParticleSet reference(w.global.attr_names());
    for (int a : aggregators) {
        for (int leaf : leaves) {
            if (aggregator[static_cast<std::size_t>(leaf)] == a) {
                query_bat(ds.leaf_file(leaf), query,
                          [&reference](Vec3 p, std::span<const double> attrs) {
                              reference.push_back(p, attrs);
                          });
            }
        }
    }
    EXPECT_GT(reference.count(), 0u);
    EXPECT_EQ(testing::particle_sequence(round), testing::particle_sequence(reference));
}

TEST(DataServiceTest, ProgressiveRoundsArePartition) {
    Written w;
    std::atomic<std::uint64_t> total{0};
    vmpi::Runtime::run(3, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        // Rank 0 streams the data progressively over 4 rounds; the others
        // serve (and sit out as clients).
        for (int round = 0; round < 4; ++round) {
            if (comm.rank() == 0) {
                BatQuery query;
                query.quality_lo = static_cast<float>(round) / 4.f;
                query.quality_hi = static_cast<float>(round + 1) / 4.f;
                total.fetch_add(service.query_round(query).count());
            } else {
                service.query_round(std::nullopt);
            }
        }
    });
    EXPECT_EQ(total.load(), w.global.count());
}

TEST(DataServiceTest, ConcurrentClientsMultipleRounds) {
    Written w;
    std::mutex mutex;
    ParticleSet collected(w.global.attr_names());
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        // Round 1: each rank queries one quadrant slab.
        BatQuery q1;
        const float x0 = 0.5f * static_cast<float>(comm.rank());
        q1.box = Box({x0, 0, 0}, {x0 + 0.5f, 2, 2});
        q1.inclusive_upper = comm.rank() == 3;
        const ParticleSet part = service.query_round(q1);
        {
            std::lock_guard<std::mutex> lock(mutex);
            collected.append(part);
        }
        // Round 2: everyone asks for a coarse preview.
        BatQuery q2;
        q2.quality_hi = 0.05f;
        const ParticleSet preview = service.query_round(q2);
        EXPECT_GT(preview.count(), 0u);
        EXPECT_LT(preview.count(), w.global.count());
    });
    EXPECT_EQ(testing::particle_keys(collected), testing::particle_keys(w.global));
}

TEST(DataServiceTest, ServedLeavesCoverAllLeaves) {
    Written w;
    std::mutex mutex;
    std::vector<int> served;
    vmpi::Runtime::run(3, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        {
            std::lock_guard<std::mutex> lock(mutex);
            served.insert(served.end(), service.served_leaves().begin(),
                          service.served_leaves().end());
        }
        service.query_round(std::nullopt);
    });
    std::sort(served.begin(), served.end());
    const Metadata meta = Metadata::load(w.meta_path);
    ASSERT_EQ(served.size(), meta.leaves.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        EXPECT_EQ(served[i], static_cast<int>(i));
    }
}

}  // namespace
}  // namespace bat
