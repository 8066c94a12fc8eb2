// Tests for time-series management: manifest round trips, the collective
// SeriesWriter over the virtual MPI runtime, and SeriesReader access.

#include <gtest/gtest.h>

#include <cstring>

#include "io/series.hpp"
#include "test_helpers.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});

TEST(TimeSeriesTest, ManifestRoundTrip) {
    TimeSeries series;
    series.timesteps = {{0, "a.batmeta"}, {100, "b.batmeta"}, {250, "c.batmeta"}};
    const TimeSeries back = TimeSeries::from_bytes(series.to_bytes());
    EXPECT_EQ(back.timesteps, series.timesteps);
    EXPECT_EQ(back.index_of(100), 1u);
    EXPECT_THROW(back.index_of(7), Error);
}

TEST(TimeSeriesTest, ManifestWithGapsRoundTripsOnDisk) {
    // Dump loops rarely write every simulation step; the manifest must
    // round-trip sparse, irregular timestep numbering through a real file.
    testing::TempDir dir;
    TimeSeries series;
    series.timesteps = {{0, "t0.batmeta"}, {7, "t7.batmeta"},
                        {500, "t500.batmeta"}, {501, "t501.batmeta"}};
    series.save(dir.path() / "gaps.batseries");
    const TimeSeries back = TimeSeries::load(dir.path() / "gaps.batseries");
    EXPECT_EQ(back.timesteps, series.timesteps);
    EXPECT_EQ(back.index_of(7), 1u);
    EXPECT_EQ(back.index_of(501), 3u);
    // Timesteps inside the gaps (and past the ends) are absent, not
    // rounded to a neighbor.
    EXPECT_THROW(back.index_of(1), Error);
    EXPECT_THROW(back.index_of(250), Error);
    EXPECT_THROW(back.index_of(502), Error);
}

TEST(TimeSeriesTest, LoadRejectsGarbage) {
    testing::TempDir dir;
    const std::vector<std::byte> junk(32, std::byte{1});
    write_file(dir.path() / "junk.batseries", junk);
    EXPECT_THROW(TimeSeries::load(dir.path() / "junk.batseries"), Error);
}

TEST(TimeSeriesTest, HugeCountRejectedBeforeAllocating) {
    TimeSeries series;
    series.timesteps = {{0, "a.batmeta"}};
    auto bytes = series.to_bytes();
    // The entry count follows the magic and version.
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
    EXPECT_THROW(TimeSeries::from_bytes(bytes), Error);
}

TEST(SeriesTest, WriteAndReadBackThreeTimesteps) {
    testing::TempDir dir;
    const int nranks = 4;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);

    // Three timesteps with different particle populations.
    std::vector<ParticleSet> globals;
    for (int t = 0; t < 3; ++t) {
        globals.push_back(make_uniform_particles(
            kDomain, 3'000 + 1'000 * static_cast<std::size_t>(t), 2,
            static_cast<std::uint64_t>(t) + 50));
    }

    std::filesystem::path manifest;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        WriterConfig base;
        base.tree.target_file_size = 32 << 10;
        base.directory = dir.path();
        base.basename = "series";
        SeriesWriter writer(base);
        for (int t = 0; t < 3; ++t) {
            const auto per_rank = partition_particles(globals[static_cast<std::size_t>(t)],
                                                      decomp);
            writer.write_timestep(comm, t * 100,
                                  per_rank[static_cast<std::size_t>(comm.rank())],
                                  decomp.rank_box(comm.rank()));
        }
        const auto path = writer.finalize(comm);
        if (comm.rank() == 0) {
            manifest = path;
        }
    });

    SeriesReader reader(manifest);
    ASSERT_EQ(reader.num_timesteps(), 3u);
    EXPECT_EQ(reader.timestep_at(0), 0);
    EXPECT_EQ(reader.timestep_at(2), 200);
    for (std::size_t i = 0; i < 3; ++i) {
        Dataset ds = reader.open(i);
        EXPECT_EQ(ds.num_particles(), globals[i].count());
        const ParticleSet all = ds.collect(BatQuery{});
        EXPECT_EQ(testing::particle_keys(all), testing::particle_keys(globals[i]));
    }
    Dataset mid = reader.open_timestep(100);
    EXPECT_EQ(mid.num_particles(), globals[1].count());
}

TEST(SeriesTest, OpenTimestepMissingFromManifestThrows) {
    testing::TempDir dir;
    TimeSeries series;
    series.timesteps = {{0, "t0.batmeta"}, {100, "t100.batmeta"}};
    series.save(dir.path() / "s.batseries");
    SeriesReader reader(dir.path() / "s.batseries");
    EXPECT_THROW(reader.open_timestep(50), Error);
}

TEST(SeriesTest, ManifestIsWrittenByFinalizeOnly) {
    // A series is not readable mid-write: the manifest only exists after
    // finalize, and re-finalizing after further steps updates it in place.
    testing::TempDir dir;
    const GridDecomp decomp = grid_decomp_3d(2, kDomain);
    const auto manifest_path = dir.path() / "mid.batseries";
    vmpi::Runtime::run(2, [&](vmpi::Comm& comm) {
        WriterConfig base;
        base.tree.target_file_size = 32 << 10;
        base.directory = dir.path();
        base.basename = "mid";
        SeriesWriter writer(base);
        const auto write_step = [&](int t, std::uint64_t seed) {
            const auto per_rank = partition_particles(
                make_uniform_particles(kDomain, 2'000, 1, seed), decomp);
            writer.write_timestep(comm, t,
                                  per_rank[static_cast<std::size_t>(comm.rank())],
                                  decomp.rank_box(comm.rank()));
        };
        write_step(0, 11);
        write_step(10, 12);
        comm.barrier();
        if (comm.rank() == 0) {
            // Two timesteps written, nothing finalized: no manifest yet.
            EXPECT_FALSE(std::filesystem::exists(manifest_path));
            EXPECT_ANY_THROW(SeriesReader{manifest_path});
        }
        comm.barrier();
        writer.finalize(comm);
        if (comm.rank() == 0) {
            EXPECT_EQ(SeriesReader(manifest_path).num_timesteps(), 2u);
            EXPECT_GT(writer.manifest_bytes(), 0u);
        }
        // The writer stays usable after finalize: keep appending and
        // re-finalize to pick up the new timestep.
        write_step(20, 13);
        writer.finalize(comm);
        if (comm.rank() == 0) {
            SeriesReader reader(manifest_path);
            EXPECT_EQ(reader.num_timesteps(), 3u);
            EXPECT_EQ(reader.timestep_at(2), 20);
        }
    });
}

TEST(SeriesTest, RejectsOutOfOrderTimesteps) {
    testing::TempDir dir;
    vmpi::Runtime::run(1, [&](vmpi::Comm& comm) {
        WriterConfig base;
        base.directory = dir.path();
        base.basename = "bad";
        SeriesWriter writer(base);
        const ParticleSet set = make_uniform_particles(kDomain, 100, 1, 1);
        writer.write_timestep(comm, 10, set, kDomain);
        EXPECT_THROW(writer.write_timestep(comm, 5, set, kDomain), Error);
    });
}

}  // namespace
}  // namespace bat
