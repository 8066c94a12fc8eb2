// Integration tests for the full two-phase write + read pipelines (paper
// §III + §IV) over the virtual MPI runtime: multi-rank round trips across
// strategies, target sizes, rank counts, and read/write rank mismatches.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <mutex>

#include "io/reader.hpp"
#include "io/writer.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {4, 4, 4});

struct Scenario {
    GridDecomp decomp;
    ParticleSet global;
    std::vector<ParticleSet> per_rank;

    Scenario(int nranks, std::size_t n, std::size_t nattrs, std::uint64_t seed,
          bool clustered = false) {
        decomp = grid_decomp_3d(nranks, kDomain);
        if (clustered) {
            const auto blobs = make_random_blobs(kDomain, 4, seed);
            global = make_mixture_particles(kDomain, blobs, n, nattrs, seed);
        } else {
            global = make_uniform_particles(kDomain, n, nattrs, seed);
        }
        per_rank = partition_particles(global, decomp);
    }
};

WriterConfig writer_config(const std::filesystem::path& dir, AggStrategy strategy,
                           std::uint64_t target) {
    WriterConfig config;
    config.strategy = strategy;
    config.tree.target_file_size = target;
    config.directory = dir;
    config.basename = "ts";
    return config;
}

/// Run the full write+read cycle on `nranks` virtual MPI ranks and verify
/// the read-back population matches what was written.
void round_trip(AggStrategy strategy, int nranks, std::uint64_t target, std::size_t n,
                std::size_t nattrs, std::uint64_t seed, int read_ranks = -1) {
    const testing::TempDir dir;
    Scenario setup(nranks, n, nattrs, seed);
    const auto expected = testing::particle_keys(setup.global);

    std::filesystem::path meta_path;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        const WriterConfig config = writer_config(dir.path(), strategy, target);
        const WriteResult result = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        if (comm.rank() == 0) {
            meta_path = result.metadata_path;
        }
    });
    ASSERT_FALSE(meta_path.empty());

    // Read back, possibly with a different rank count (paper §IV-A).
    if (read_ranks < 0) {
        read_ranks = nranks;
    }
    const GridDecomp read_decomp = grid_decomp_3d(read_ranks, kDomain);
    std::mutex mutex;
    ParticleSet all(setup.global.attr_names());
    std::vector<std::vector<std::byte>> serial_bytes(static_cast<std::size_t>(read_ranks));
    vmpi::Runtime::run(read_ranks, [&](vmpi::Comm& comm) {
        const ReadResult result =
            read_particles(comm, meta_path, read_decomp.rank_read_box(comm.rank()));
        std::lock_guard<std::mutex> lock(mutex);
        serial_bytes[static_cast<std::size_t>(comm.rank())] = result.particles.to_bytes();
        all.append(result.particles);
    });
    EXPECT_EQ(testing::particle_keys(all), expected)
        << "strategy=" << to_string(strategy) << " nranks=" << nranks
        << " read_ranks=" << read_ranks << " target=" << target;

    // Threaded serving must be byte-identical per rank to the serial path
    // (responses are keyed by request id, not completion order).
    ThreadPool pool(2);
    vmpi::Runtime::run(read_ranks, [&](vmpi::Comm& comm) {
        ReaderConfig rc;
        rc.pool = &pool;
        const ReadResult result =
            read_particles(comm, meta_path, read_decomp.rank_read_box(comm.rank()), rc);
        const std::vector<std::byte> bytes = result.particles.to_bytes();
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(bytes, serial_bytes[static_cast<std::size_t>(comm.rank())])
            << "threaded read diverged on rank " << comm.rank();
    });
}

TEST(WriterReaderTest, AdaptiveSmall) { round_trip(AggStrategy::adaptive, 4, 64 << 10, 5'000, 2, 1); }

TEST(WriterReaderTest, AdaptiveSingleRank) {
    round_trip(AggStrategy::adaptive, 1, 1 << 20, 2'000, 2, 2);
}

TEST(WriterReaderTest, AugSmall) { round_trip(AggStrategy::aug, 4, 64 << 10, 5'000, 2, 3); }

TEST(WriterReaderTest, FilePerProcessSmall) {
    round_trip(AggStrategy::file_per_process, 4, 64 << 10, 5'000, 2, 4);
}

TEST(WriterReaderTest, ReadAtFewerRanks) {
    round_trip(AggStrategy::adaptive, 8, 32 << 10, 8'000, 2, 5, /*read_ranks=*/2);
}

TEST(WriterReaderTest, ReadAtMoreRanks) {
    round_trip(AggStrategy::adaptive, 4, 32 << 10, 8'000, 2, 6, /*read_ranks=*/16);
}

TEST(WriterReaderTest, ReadAtOneRank) {
    round_trip(AggStrategy::adaptive, 8, 32 << 10, 6'000, 3, 7, /*read_ranks=*/1);
}

class StrategyMatrix
    : public ::testing::TestWithParam<std::tuple<AggStrategy, int, std::uint64_t>> {};

TEST_P(StrategyMatrix, RoundTrips) {
    const auto [strategy, nranks, target] = GetParam();
    round_trip(strategy, nranks, target, 6'000, 2,
               static_cast<std::uint64_t>(nranks) * 31 + target % 97);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StrategyMatrix,
    ::testing::Combine(::testing::Values(AggStrategy::adaptive, AggStrategy::aug,
                                         AggStrategy::file_per_process),
                       ::testing::Values(2, 8, 13),
                       ::testing::Values(std::uint64_t{16} << 10, std::uint64_t{256} << 10)));

TEST(WriterReaderTest, ClusteredDataRoundTrips) {
    const testing::TempDir dir;
    Scenario setup(8, 12'000, 3, 11, /*clustered=*/true);
    const auto expected = testing::particle_keys(setup.global);
    std::filesystem::path meta_path;
    vmpi::Runtime::run(8, [&](vmpi::Comm& comm) {
        const WriterConfig config =
            writer_config(dir.path(), AggStrategy::adaptive, 32 << 10);
        const WriteResult result = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        if (comm.rank() == 0) {
            meta_path = result.metadata_path;
        }
    });
    std::mutex mutex;
    ParticleSet all(setup.global.attr_names());
    vmpi::Runtime::run(8, [&](vmpi::Comm& comm) {
        const ReadResult r =
            read_particles(comm, meta_path, setup.decomp.rank_read_box(comm.rank()));
        std::lock_guard<std::mutex> lock(mutex);
        all.append(r.particles);
    });
    EXPECT_EQ(testing::particle_keys(all), expected);
}

TEST(WriterReaderTest, EmptyRanksAreFine) {
    // All particles in one octant: most ranks own nothing.
    const testing::TempDir dir;
    const GridDecomp decomp = grid_decomp_3d(8, kDomain);
    const Box corner({0, 0, 0}, {1.9f, 1.9f, 1.9f});
    ParticleSet global = make_uniform_particles(corner, 4'000, 2, 13);
    auto per_rank = partition_particles(global, decomp);
    const auto expected = testing::particle_keys(global);
    std::filesystem::path meta_path;
    vmpi::Runtime::run(8, [&](vmpi::Comm& comm) {
        const WriterConfig config =
            writer_config(dir.path(), AggStrategy::adaptive, 16 << 10);
        const WriteResult result =
            write_particles(comm, per_rank[static_cast<std::size_t>(comm.rank())],
                            decomp.rank_box(comm.rank()), config);
        if (comm.rank() == 0) {
            meta_path = result.metadata_path;
        }
    });
    std::mutex mutex;
    ParticleSet all(global.attr_names());
    vmpi::Runtime::run(8, [&](vmpi::Comm& comm) {
        const ReadResult r = read_particles(comm, meta_path, decomp.rank_read_box(comm.rank()));
        std::lock_guard<std::mutex> lock(mutex);
        all.append(r.particles);
    });
    EXPECT_EQ(testing::particle_keys(all), expected);
}

TEST(WriterReaderTest, NumLeavesRespondsToTargetSize) {
    const testing::TempDir dir;
    Scenario setup(8, 20'000, 2, 17);
    int leaves_small = 0;
    int leaves_large = 0;
    vmpi::Runtime::run(8, [&](vmpi::Comm& comm) {
        WriterConfig config = writer_config(dir.path(), AggStrategy::adaptive, 8 << 10);
        config.basename = "small";
        const WriteResult small = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        config.tree.target_file_size = 1 << 20;
        config.basename = "large";
        const WriteResult large = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        if (comm.rank() == 0) {
            leaves_small = small.num_leaves;
            leaves_large = large.num_leaves;
        }
    });
    EXPECT_GT(leaves_small, leaves_large);
    EXPECT_EQ(leaves_large, 1);
}

TEST(WriterReaderTest, TimingsArePopulated) {
    const testing::TempDir dir;
    Scenario setup(4, 4'000, 2, 19);
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
        const WriterConfig config =
            writer_config(dir.path(), AggStrategy::adaptive, 32 << 10);
        const WriteResult result = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        EXPECT_GT(result.timings.total(), 0.0);
        EXPECT_GE(result.timings.transfer, 0.0);
    });
}

TEST(WriterReaderTest, PhaseTimingsSelfConsistentAcrossStrategies) {
    // The span-based phase bookkeeping must hold for every aggregation
    // strategy: each phase non-negative, and the per-rank phase sum bounded
    // by the wall-clock time of the collective (plus scheduling slack).
    for (const AggStrategy strategy :
         {AggStrategy::adaptive, AggStrategy::aug, AggStrategy::file_per_process}) {
        const testing::TempDir dir;
        Scenario setup(6, 6'000, 2, 31);
        std::mutex mutex;
        double max_rank_total = 0;
        const auto wall_start = std::chrono::steady_clock::now();
        vmpi::Runtime::run(6, [&](vmpi::Comm& comm) {
            const WriterConfig config = writer_config(dir.path(), strategy, 32 << 10);
            const WriteResult result = write_particles(
                comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
                setup.decomp.rank_box(comm.rank()), config);
            const WritePhaseTimings& t = result.timings;
            for (const double phase : {t.gather, t.tree_build, t.scatter, t.transfer,
                                       t.bat_build, t.file_write, t.metadata}) {
                EXPECT_GE(phase, 0.0) << to_string(strategy);
            }
            EXPECT_GT(t.total(), 0.0) << to_string(strategy);
            std::lock_guard<std::mutex> lock(mutex);
            max_rank_total = std::max(max_rank_total, t.total());
        });
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - wall_start)
                                .count();
        // Phases are disjoint spans on the rank's thread, so no rank's sum
        // can exceed the collective's wall time (plus scheduling slack).
        EXPECT_LE(max_rank_total, wall + 0.5) << to_string(strategy);
    }
}

TEST(WriterReaderTest, SerialWriterMatchesParallelPopulation) {
    const testing::TempDir dir;
    Scenario setup(6, 9'000, 2, 23);
    std::vector<Box> bounds;
    for (int r = 0; r < 6; ++r) {
        bounds.push_back(setup.decomp.rank_box(r));
    }
    WriterConfig config = writer_config(dir.path() / "serial", AggStrategy::adaptive, 32 << 10);
    const WriteResult result = write_particles_serial(setup.per_rank, bounds, config);
    EXPECT_GT(result.num_leaves, 0);

    // Read everything back through one reading rank.
    ParticleSet all(setup.global.attr_names());
    vmpi::Runtime::run(1, [&](vmpi::Comm& comm) {
        const ReadResult r = read_particles(comm, result.metadata_path, kDomain);
        all.append(r.particles);
    });
    EXPECT_EQ(testing::particle_keys(all), testing::particle_keys(setup.global));
}

TEST(WriterReaderTest, ReadAggregatorAssignmentRules) {
    // More ranks than files: spread through rank space, distinct.
    const std::vector<int> spread = assign_read_aggregators(4, 16);
    EXPECT_EQ(spread, (std::vector<int>{0, 4, 8, 12}));
    // Fewer ranks than files: contiguous blocks so spatially neighboring
    // leaves share an aggregator (the write phase orders leaves along the
    // aggregation tree); the remainder goes to the first ranks.
    const std::vector<int> blocks = assign_read_aggregators(7, 3);
    EXPECT_EQ(blocks, (std::vector<int>{0, 0, 0, 1, 1, 2, 2}));
    // Equal: identity-ish spread.
    const std::vector<int> eq = assign_read_aggregators(4, 4);
    EXPECT_EQ(eq, (std::vector<int>{0, 1, 2, 3}));
    // Block-assignment properties at scale: monotone non-decreasing (so
    // blocks are contiguous), every rank used, and per-rank loads balanced
    // to within one leaf.
    const int num_leaves = 103;
    const int nranks = 8;
    const std::vector<int> agg = assign_read_aggregators(num_leaves, nranks);
    std::vector<int> load(nranks, 0);
    for (std::size_t i = 0; i < agg.size(); ++i) {
        ASSERT_GE(agg[i], 0);
        ASSERT_LT(agg[i], nranks);
        if (i > 0) {
            EXPECT_GE(agg[i], agg[i - 1]);
        }
        ++load[static_cast<std::size_t>(agg[i])];
    }
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    EXPECT_GE(*lo, 1);
    EXPECT_LE(*hi - *lo, 1);
}

TEST(WriterReaderTest, SpatialSubsetReadReturnsOnlyOverlap) {
    const testing::TempDir dir;
    Scenario setup(4, 10'000, 2, 29);
    std::filesystem::path meta_path;
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
        const WriterConfig config =
            writer_config(dir.path(), AggStrategy::adaptive, 32 << 10);
        const WriteResult result = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        if (comm.rank() == 0) {
            meta_path = result.metadata_path;
        }
    });
    const Box window({0.5f, 0.5f, 0.5f}, {2.5f, 2.5f, 2.5f});
    ParticleSet got(setup.global.attr_names());
    vmpi::Runtime::run(1, [&](vmpi::Comm& comm) {
        ReaderConfig rc;
        const ReadResult r = read_particles(comm, meta_path, window, rc);
        got.append(r.particles);
    });
    const auto expected_idx =
        testing::brute_force_query(setup.global, window, /*inclusive_upper=*/false);
    EXPECT_EQ(got.count(), expected_idx.size());
}

// ---- zero-copy transfer path ----------------------------------------------

TEST(WriterReaderTest, DeserializeIntoMatchesFromBytes) {
    const ParticleSet src = make_uniform_particles(kDomain, 5'000, 3, 31);
    const std::vector<std::byte> wire = src.to_bytes();

    // The aggregator path: pre-sized set, payload placed at an offset.
    ParticleSet merged(src.attr_names());
    merged.resize(2 * src.count());
    EXPECT_EQ(merged.deserialize_into(wire, 0), src.count());
    EXPECT_EQ(merged.deserialize_into(wire, src.count()), src.count());
    for (std::size_t i = 0; i < src.count(); ++i) {
        ASSERT_EQ(merged.position(i), src.position(i));
        ASSERT_EQ(merged.position(src.count() + i), src.position(i));
    }
    for (std::size_t a = 0; a < src.num_attrs(); ++a) {
        for (std::size_t i = 0; i < src.count(); ++i) {
            ASSERT_EQ(merged.attr(a)[i], src.attr(a)[i]);
            ASSERT_EQ(merged.attr(a)[src.count() + i], src.attr(a)[i]);
        }
    }
}

TEST(WriterReaderTest, RepeatedWritesProduceIdenticalFiles) {
    // The any-source transfer must not leak arrival order into file bytes:
    // two writes of the same data produce byte-identical leaf files.
    Scenario setup(8, 12'000, 2, 37);
    auto write_once = [&](const std::filesystem::path& dir) {
        vmpi::Runtime::run(8, [&](vmpi::Comm& comm) {
            const WriterConfig config = writer_config(dir, AggStrategy::adaptive, 32 << 10);
            write_particles(comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
                            setup.decomp.rank_box(comm.rank()), config);
        });
    };
    const testing::TempDir dir_a;
    const testing::TempDir dir_b;
    write_once(dir_a.path());
    write_once(dir_b.path());

    std::vector<std::filesystem::path> files_a;
    for (const auto& e : std::filesystem::directory_iterator(dir_a.path())) {
        files_a.push_back(e.path());
    }
    std::sort(files_a.begin(), files_a.end());
    ASSERT_FALSE(files_a.empty());
    for (const auto& fa : files_a) {
        const auto fb = dir_b.path() / fa.filename();
        ASSERT_TRUE(std::filesystem::exists(fb)) << fb;
        std::ifstream a(fa, std::ios::binary);
        std::ifstream b(fb, std::ios::binary);
        const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                                  std::istreambuf_iterator<char>());
        const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
        EXPECT_EQ(bytes_a, bytes_b) << fa.filename();
    }
}

TEST(WriterReaderTest, AnySourceTransferPassesProtocolValidation) {
    // The validator watches every send/recv: the rewritten any-source
    // transfer phase must finish with zero diagnostics and no deadlock.
    const testing::TempDir dir;
    Scenario setup(8, 10'000, 2, 41);
    const auto report = vmpi::Runtime::run_validated(8, [&](vmpi::Comm& comm) {
        const WriterConfig config = writer_config(dir.path(), AggStrategy::adaptive, 32 << 10);
        write_particles(comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
                        setup.decomp.rank_box(comm.rank()), config);
    });
    EXPECT_FALSE(report.deadlock);
    EXPECT_TRUE(report.rank_errors.empty());
    EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
    EXPECT_GT(report.sends, 0u);
}

TEST(WriterReaderTest, BytesWrittenIncludesMetadataFile) {
    // Sum of per-rank bytes_written must equal the bytes on disk — leaf
    // files plus the .batmeta (accounted on rank 0).
    const testing::TempDir dir;
    Scenario setup(4, 8'000, 2, 43);
    std::mutex mutex;
    std::uint64_t reported = 0;
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
        const WriterConfig config = writer_config(dir.path(), AggStrategy::adaptive, 32 << 10);
        const WriteResult result = write_particles(
            comm, setup.per_rank[static_cast<std::size_t>(comm.rank())],
            setup.decomp.rank_box(comm.rank()), config);
        std::lock_guard<std::mutex> lock(mutex);
        reported += result.bytes_written;
    });
    std::uint64_t on_disk = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
        on_disk += std::filesystem::file_size(e.path());
    }
    EXPECT_EQ(reported, on_disk);
}

}  // namespace
}  // namespace bat
