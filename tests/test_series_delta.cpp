// Tests for incremental (delta) series writes: bit-exact reads through
// delta chains versus full rewrites on every timestep — via Dataset, the
// collective read_particles, DataService query rounds, and the
// LeafFileCache — plus non-vacuity of the delta path (plan reuse, clean
// treelets, keyframes), drift-forced replans, count drift under a reused
// plan, and the plan's reused file image against one-shot serializes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>

#include "core/bat_file.hpp"
#include "core/dataset.hpp"
#include "core/metadata.hpp"
#include "io/data_service.hpp"
#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "io/series.hpp"
#include "test_helpers.hpp"
#include "util/mmap_file.hpp"
#include "util/thread_pool.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});
constexpr int kRanks = 4;
constexpr int kSteps = 10;  // keyframes at 0 and 8 (default interval 8)

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Step `s` of a slowly-evolving series: the base population with the
/// particles inside a small interior hot box re-jittered (clamped to the
/// box, so global bounds and attribute ranges stay pinned by the rest).
ParticleSet make_step(const ParticleSet& base, int s) {
    ParticleSet global = base;
    if (s == 0) {
        return global;
    }
    // Off-center on purpose: a box straddling the domain center would put
    // hot particles in every Morton octant and no leaf would ever be fully
    // clean (defeating the whole-file reuse assertions below).
    const Box hot({0.2f, 0.2f, 0.2f}, {0.6f, 0.6f, 0.6f});
    auto cl = [](float v, float a, float b) { return v < a ? a : (v > b ? b : v); };
    for (std::size_t i = 0; i < global.count(); ++i) {
        Vec3 p = global.position(i);
        if (!hot.contains(p)) {
            continue;
        }
        const std::uint64_t h =
            splitmix64(static_cast<std::uint64_t>(s) << 32 | static_cast<std::uint64_t>(i));
        auto jit = [&](std::uint64_t w) {
            return 0.02f * (2.0f * static_cast<float>(w >> 40) /
                                static_cast<float>(1u << 24) -
                            1.0f);
        };
        p.x = cl(p.x + jit(h), hot.lower.x, hot.upper.x);
        p.y = cl(p.y + jit(splitmix64(h)), hot.lower.y, hot.upper.y);
        p.z = cl(p.z + jit(splitmix64(h + 1)), hot.lower.z, hot.upper.z);
        global.set_position(i, p);
    }
    return global;
}

WriterConfig series_config(const std::filesystem::path& dir, const std::string& name) {
    WriterConfig config;
    config.tree.target_file_size = 32 << 10;
    config.bat.target_treelet_particles = 256;  // several treelets per leaf
    config.directory = dir;
    config.basename = name;
    return config;
}

/// Both series written over the same steps: `full_meta[s]` from plain
/// per-step write_particles (full rewrites), the delta series through
/// SeriesWriter. Also captures the delta pass's per-step WriteResults
/// (slot per (step, rank)).
struct WrittenSeries {
    testing::TempDir dir;
    ParticleSet base;
    std::filesystem::path manifest;
    std::vector<std::filesystem::path> full_meta;
    std::vector<std::vector<WriteResult>> delta_results;  // [step][rank]

    WrittenSeries() {
        base = make_uniform_particles(kDomain, 12'000, 2, 77);
        const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
        full_meta.resize(kSteps);
        delta_results.assign(kSteps, std::vector<WriteResult>(kRanks));
        std::mutex mutex;
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            SeriesWriter writer(series_config(dir.path(), "delta"));
            for (int s = 0; s < kSteps; ++s) {
                const auto per_rank = partition_particles(make_step(base, s), decomp);
                WriterConfig full = series_config(dir.path(), "full_t" + std::to_string(s));
                const WriteResult fw =
                    write_particles(comm, per_rank[static_cast<std::size_t>(r)],
                                    decomp.rank_box(r), full);
                const WriteResult dw =
                    writer.write_timestep(comm, s, per_rank[static_cast<std::size_t>(r)],
                                          decomp.rank_box(r));
                std::lock_guard<std::mutex> lock(mutex);
                full_meta[static_cast<std::size_t>(s)] = fw.metadata_path;
                delta_results[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] =
                    dw;
            }
            const auto path = writer.finalize(comm);
            if (r == 0) {
                std::lock_guard<std::mutex> lock(mutex);
                manifest = path;
            }
        });
    }
};

WrittenSeries& written() {
    static WrittenSeries* w = new WrittenSeries();
    return *w;
}

void expect_bit_exact(const ParticleSet& a, const ParticleSet& b) {
    ASSERT_EQ(a.count(), b.count());
    ASSERT_EQ(a.num_attrs(), b.num_attrs());
    const auto pa = a.positions();
    const auto pb = b.positions();
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()));
    for (std::size_t at = 0; at < a.num_attrs(); ++at) {
        const auto va = a.attr(at);
        const auto vb = b.attr(at);
        EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin()));
    }
}

TEST(SeriesDeltaTest, DatasetReadsBitExactEveryStep) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    ASSERT_EQ(reader.num_timesteps(), static_cast<std::size_t>(kSteps));
    for (int s = 0; s < kSteps; ++s) {
        Dataset delta = reader.open_timestep(s);
        Dataset full(w.full_meta[static_cast<std::size_t>(s)]);
        expect_bit_exact(delta.collect(BatQuery{}), full.collect(BatQuery{}));
    }
}

TEST(SeriesDeltaTest, CollectiveReadsBitExactThroughLeafCache) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    // A small cache forces evictions and re-opens mid-series, so delta
    // base files resolve through the cache's re-entrant opener repeatedly.
    LeafFileCache cache(4);
    for (int s = 0; s < kSteps; ++s) {
        const auto delta_meta =
            w.manifest.parent_path() / reader.series().timesteps[s].second;
        std::vector<ParticleSet> got_delta(kRanks);
        std::vector<ParticleSet> got_full(kRanks);
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            ReaderConfig rc;
            rc.cache = &cache;
            got_delta[static_cast<std::size_t>(r)] =
                read_particles(comm, delta_meta, decomp.rank_read_box(r), rc)
                    .particles;
            got_full[static_cast<std::size_t>(r)] =
                read_particles(comm, w.full_meta[static_cast<std::size_t>(s)],
                               decomp.rank_read_box(r), rc)
                    .particles;
        });
        for (int r = 0; r < kRanks; ++r) {
            expect_bit_exact(got_delta[static_cast<std::size_t>(r)],
                             got_full[static_cast<std::size_t>(r)]);
        }
    }
}

TEST(SeriesDeltaTest, DataServiceRoundsMatchFullRewrites) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    for (const int s : {1, 7, 9}) {  // delta steps, incl. one past a keyframe
        const auto delta_meta =
            w.manifest.parent_path() / reader.series().timesteps[s].second;
        std::vector<ParticleSet> got_delta(kRanks);
        std::vector<ParticleSet> got_full(kRanks);
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            BatQuery query;
            query.box = decomp.rank_read_box(r);
            query.inclusive_upper = false;
            {
                DataService service(comm, delta_meta);
                got_delta[static_cast<std::size_t>(r)] = service.query_round(query);
            }
            {
                DataService service(comm, w.full_meta[static_cast<std::size_t>(s)]);
                got_full[static_cast<std::size_t>(r)] = service.query_round(query);
            }
        });
        for (int r = 0; r < kRanks; ++r) {
            expect_bit_exact(got_delta[static_cast<std::size_t>(r)],
                             got_full[static_cast<std::size_t>(r)]);
        }
    }
}

TEST(SeriesDeltaTest, PlanReuseAndDeltaHitsAreNotVacuous) {
    WrittenSeries& w = written();
    for (int s = 0; s < kSteps; ++s) {
        std::uint64_t clean = 0;
        std::uint64_t written_treelets = 0;
        for (int r = 0; r < kRanks; ++r) {
            const WriteResult& wr =
                w.delta_results[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
            // Step 0 has no plan to reuse; the workload never drifts, so
            // every later step must keep the plan's aggregation.
            EXPECT_EQ(wr.reused_plan, s > 0) << "step " << s << " rank " << r;
            clean += wr.delta_treelets_clean;
            written_treelets += wr.delta_treelets_written;
        }
        if (s == 0 || s == 8) {
            // Keyframes write everything inline.
            EXPECT_EQ(clean, 0u) << "keyframe step " << s;
            EXPECT_GT(written_treelets, 0u);
        } else {
            // Steady steps must actually reference prior-step treelets, and
            // the jittered hot box must dirty at least one.
            EXPECT_GT(clean, 0u) << "step " << s;
            EXPECT_GT(written_treelets, 0u) << "step " << s;
        }
    }
}

TEST(SeriesDeltaTest, SteadyStepFilesReferenceKeyframes) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    const Metadata key_meta =
        Metadata::load(w.manifest.parent_path() / reader.series().timesteps[0].second);
    const Metadata steady_meta =
        Metadata::load(w.manifest.parent_path() / reader.series().timesteps[1].second);
    ASSERT_EQ(key_meta.leaves.size(), steady_meta.leaves.size());
    int delta_files = 0;
    int overridden = 0;
    for (std::size_t l = 0; l < steady_meta.leaves.size(); ++l) {
        const MetaLeaf& key_leaf = key_meta.leaves[l];
        const MetaLeaf& leaf = steady_meta.leaves[l];
        // Keyframe files are fully inline.
        EXPECT_TRUE(key_leaf.delta_bases.empty());
        BatFile key_file(w.manifest.parent_path() / key_leaf.file);
        EXPECT_TRUE(key_file.base_file_names().empty());
        if (leaf.file == key_leaf.file) {
            // Whole-leaf reuse: step 1's metadata points back at step 0's
            // file (the .batmeta back-reference).
            ++overridden;
            continue;
        }
        BatFile file(w.manifest.parent_path() / leaf.file);
        EXPECT_EQ(file.base_file_names(), leaf.delta_bases);
        if (!file.base_file_names().empty()) {
            ++delta_files;
            bool any_delta = false;
            for (std::size_t t = 0; t < file.header().num_treelets; ++t) {
                any_delta = any_delta || file.treelet_is_delta(t);
            }
            EXPECT_TRUE(any_delta) << leaf.file;
        }
    }
    // The hot box must leave most leaves untouched and dirty at least one.
    EXPECT_GT(overridden, 0);
    EXPECT_GT(delta_files, 0);
}

TEST(SeriesDeltaTest, DriftForcesReplanAndStaysCorrect) {
    testing::TempDir dir;
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    const ParticleSet small = make_uniform_particles(kDomain, 4'000, 2, 5);
    const ParticleSet big = make_uniform_particles(kDomain, 9'000, 2, 6);
    std::vector<WriteResult> step1(kRanks);
    std::filesystem::path manifest;
    std::mutex mutex;
    vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
        const int r = comm.rank();
        SeriesWriter writer(series_config(dir.path(), "drift"));
        const auto rank0 = partition_particles(small, decomp);
        writer.write_timestep(comm, 0, rank0[static_cast<std::size_t>(r)],
                              decomp.rank_box(r));
        // >125% growth on every rank blows through kMaxRankDrift (0.3).
        const auto rank1 = partition_particles(big, decomp);
        const WriteResult wr = writer.write_timestep(
            comm, 1, rank1[static_cast<std::size_t>(r)], decomp.rank_box(r));
        const auto path = writer.finalize(comm);
        std::lock_guard<std::mutex> lock(mutex);
        step1[static_cast<std::size_t>(r)] = wr;
        if (r == 0) {
            manifest = path;
        }
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_FALSE(step1[static_cast<std::size_t>(r)].reused_plan);
        // A replan drops the per-leaf hashes, so nothing is written by
        // reference either.
        EXPECT_EQ(step1[static_cast<std::size_t>(r)].delta_treelets_clean, 0u);
    }
    SeriesReader reader(manifest);
    Dataset ds = reader.open_timestep(1);
    EXPECT_EQ(testing::particle_keys(ds.collect(BatQuery{})),
              testing::particle_keys(big));
}

TEST(SeriesDeltaTest, SubThresholdDriftReusesPlanAndStaysBitExact) {
    // Counts grow by ~15% on every rank with the bounds fixed: under the
    // drift threshold, so the plan is reused while every aggregator must
    // still lay out this step's (not the cached step's) sender counts.
    testing::TempDir dir;
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    const ParticleSet step0 = make_uniform_particles(kDomain, 8'000, 2, 11);
    ParticleSet step1 = step0;
    step1.append(make_uniform_particles(kDomain, 1'200, 2, 12));
    std::vector<WriteResult> results(kRanks);
    std::filesystem::path manifest;
    std::filesystem::path full_meta;
    // Files large enough that every leaf merges several senders.
    WriterConfig config = series_config(dir.path(), "grow");
    config.tree.target_file_size = 256 << 10;
    WriterConfig full = config;
    full.basename = "grow_full";
    std::mutex mutex;
    vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
        const int r = comm.rank();
        SeriesWriter writer(config);
        const auto rank0 = partition_particles(step0, decomp);
        writer.write_timestep(comm, 0, rank0[static_cast<std::size_t>(r)],
                              decomp.rank_box(r));
        const auto rank1 = partition_particles(step1, decomp);
        const WriteResult wr = writer.write_timestep(
            comm, 1, rank1[static_cast<std::size_t>(r)], decomp.rank_box(r));
        const WriteResult fw =
            write_particles(comm, rank1[static_cast<std::size_t>(r)], decomp.rank_box(r), full);
        const auto path = writer.finalize(comm);
        std::lock_guard<std::mutex> lock(mutex);
        results[static_cast<std::size_t>(r)] = wr;
        if (r == 0) {
            manifest = path;
            full_meta = fw.metadata_path;
        }
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_TRUE(results[static_cast<std::size_t>(r)].reused_plan) << "rank " << r;
        EXPECT_LT(results[static_cast<std::size_t>(r)].num_leaves, kRanks);
    }
    SeriesReader reader(manifest);
    const ParticleSet got = reader.open_timestep(1).collect(BatQuery{});
    expect_bit_exact(got, Dataset(full_meta).collect(BatQuery{}));
    EXPECT_EQ(testing::particle_keys(got), testing::particle_keys(step1));
}

/// Bytes an inline treelet block occupies on disk with its 4 KB padding,
/// written out here as the fixed expectation for delta_bytes_saved.
std::uint64_t padded_block_bytes(const Treelet& tr, std::size_t nattrs) {
    std::uint64_t sz = 16;  // magic + counts
    sz += tr.nodes.size() * sizeof(TreeletNode);
    sz += tr.nodes.size() * nattrs * 2;  // bitmap IDs
    sz = (sz + 3) & ~std::uint64_t{3};
    sz += 12ull * tr.num_particles;  // f32 xyz
    sz = (sz + 7) & ~std::uint64_t{7};
    sz += 8ull * tr.num_particles * nattrs;
    return (sz + 4095) & ~std::uint64_t{4095};
}

TEST(SeriesDeltaTest, PlanImageFilesEqualOneShotSerialize) {
    // Every leaf of every step serializes into the plan's one image. Each
    // file must still equal a fresh serialize_bat of the same BatData and
    // delta spec. File-per-process puts rank r's particles, and only
    // those, in the leaf rank r aggregates, so the test can rebuild that
    // BatData from the same particles and BatConfig.
    const ParticleSet base = make_uniform_particles(kDomain, 12'000, 2, 77);
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    auto data_step = [](int s) { return s == 2 ? 1 : s; };  // step 2: all clean
    ThreadPool pool(2);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(p != nullptr ? "pooled" : "serial");
        testing::TempDir dir;
        WriterConfig config = series_config(dir.path(), "img");
        config.strategy = AggStrategy::file_per_process;
        config.pool = p;
        std::vector<std::vector<WriteResult>> results(kSteps,
                                                      std::vector<WriteResult>(kRanks));
        std::mutex mutex;
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const auto r = static_cast<std::size_t>(comm.rank());
            SeriesWriter writer(config);
            for (int s = 0; s < kSteps; ++s) {
                const auto per_rank = partition_particles(make_step(base, data_step(s)), decomp);
                const WriteResult wr =
                    writer.write_timestep(comm, s, per_rank[r], decomp.rank_box(comm.rank()));
                std::lock_guard<std::mutex> lock(mutex);
                results[static_cast<std::size_t>(s)][r] = wr;
            }
        });

        BatConfig bat_config = config.bat;
        bat_config.hash_treelets = true;  // as the writer builds under a plan
        int files = 0;
        int delta_files = 0;
        int unchanged = 0;
        for (int s = 0; s < kSteps; ++s) {
            const auto per_rank = partition_particles(make_step(base, data_step(s)), decomp);
            for (std::size_t r = 0; r < kRanks; ++r) {
                const WriteResult& wr = results[static_cast<std::size_t>(s)][r];
                ASSERT_EQ(wr.my_leaf, static_cast<int>(r));
                const BatData bat = build_bat(per_rank[r], bat_config);
                const std::filesystem::path path =
                    dir.path() / ("img_t" + std::to_string(s) + "_" + std::to_string(r) + ".bat");
                std::uint64_t saved = 0;
                if (wr.leaves_unchanged == 1) {
                    // All clean: no file this step, every treelet saved.
                    ++unchanged;
                    EXPECT_FALSE(std::filesystem::exists(path)) << path;
                    for (const Treelet& tr : bat.treelets) {
                        saved += padded_block_bytes(tr, bat.num_attrs());
                    }
                } else {
                    ++files;
                    const std::vector<std::byte> bytes = read_file(path);
                    // The delta spec the writer used, read back from the file.
                    FileHeader header;
                    ASSERT_GE(bytes.size(), sizeof(header));
                    std::memcpy(&header, bytes.data(), sizeof(header));
                    ASSERT_EQ(header.num_treelets, bat.treelets.size());
                    BatDeltaSpec spec;
                    spec.base_files = BatFile(path).base_file_names();
                    spec.refs.resize(header.num_treelets);
                    for (std::size_t t = 0; t < header.num_treelets; ++t) {
                        TreeletDirEntry entry;
                        std::memcpy(&entry,
                                    bytes.data() + header.treelet_dir_offset +
                                        t * sizeof(TreeletDirEntry),
                                    sizeof(entry));
                        spec.refs[t] = DeltaRef{entry.base_file, entry.base_treelet};
                        if (entry.base_file >= 0) {
                            saved += padded_block_bytes(bat.treelets[t], bat.num_attrs());
                        }
                    }
                    delta_files += spec.base_files.empty() ? 0 : 1;
                    EXPECT_TRUE(bytes == serialize_bat(bat, &spec)) << path;
                }
                EXPECT_EQ(wr.delta_bytes_saved, saved) << "step " << s << " rank " << r;
            }
        }
        // Keyframe (inline), delta and all-clean leaves all occurred.
        EXPECT_GT(files, 0);
        EXPECT_GT(delta_files, 0);
        EXPECT_GT(unchanged, 0);
    }
}

}  // namespace
}  // namespace bat
