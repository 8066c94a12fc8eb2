// End-to-end read-pipeline bench: in-process collective reads over a 1M
// particle dataset written at 64 virtual ranks (64 leaf files, so every
// read aggregator serves several leaves and coalescing has real batches).
// Reports the slowest rank's per-phase seconds (metadata / request / serve
// / merge / local) for an 8-rank threaded read, plus the A/B comparison the
// CI gate checks:
//
//   read.serve_serial vs read.serve_pool — slowest-rank serve-loop seconds
//     at 2 read ranks (32 leaves per aggregator), serial comm-thread
//     serving vs the thread-pool fan-out.
//
// `read_pipeline --json [--out FILE]` emits bat-bench-v1 JSON to
// BENCH_read.json; a plain run prints tables. See docs/PERFORMANCE.md.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "io/writer.hpp"
#include "test_output_free.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

using namespace bat;

namespace {

struct ReadRun {
    ReadPhaseTimings slowest;  // component-wise max over ranks
    std::uint64_t particles = 0;
};

ReadRun run_read(const std::filesystem::path& meta_path, const Box& domain, int nranks,
                 ThreadPool* pool, LeafFileCache& cache) {
    const GridDecomp decomp = grid_decomp_3d(nranks, domain);
    ReadRun run;
    std::mutex mutex;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        ReaderConfig rc;
        rc.pool = pool;
        rc.cache = &cache;
        const ReadResult result =
            read_particles(comm, meta_path, decomp.rank_read_box(comm.rank()), rc);
        std::lock_guard<std::mutex> lock(mutex);
        run.slowest = ReadPhaseTimings::max(run.slowest, result.timings);
        run.particles += result.particles.count();
    });
    return run;
}

/// Best (by slowest-rank total) of `runs` collective reads.
ReadRun best_read(const std::filesystem::path& meta_path, const Box& domain, int nranks,
                  ThreadPool* pool, LeafFileCache& cache, int runs) {
    ReadRun best;
    double best_total = 1e30;
    for (int i = 0; i < runs; ++i) {
        const ReadRun run = run_read(meta_path, domain, nranks, pool, cache);
        if (run.slowest.total() < best_total) {
            best_total = run.slowest.total();
            best = run;
        }
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr int kReadRanks = 8;
    constexpr int kWriteRanks = 64;  // 64 leaves: aggregation never splits a
                                     // writer rank, so many leaves need many
                                     // (virtual) writer ranks
    constexpr std::size_t kParticles = 1 << 20;
    constexpr int kAttrs = 4;
    constexpr int kRuns = 5;

    const auto dir = bench::scratch_dir("read_pipeline");
    const Box domain({0, 0, 0}, {4, 4, 4});
    const ParticleSet global = make_uniform_particles(domain, kParticles, kAttrs, 42);
    const GridDecomp write_decomp = grid_decomp_3d(kWriteRanks, domain);
    const std::vector<ParticleSet> per_rank = partition_particles(global, write_decomp);
    std::vector<Box> bounds;
    for (int r = 0; r < kWriteRanks; ++r) {
        bounds.push_back(write_decomp.rank_box(r));
    }
    WriterConfig wc;
    wc.directory = dir;
    wc.basename = "pipeline";
    wc.tree.target_file_size = 256 << 10;  // below the ~690 KB per virtual
                                           // rank, so no leaves merge
    std::fprintf(stderr, "[bench] writing %zu particles at %d virtual ranks...\n",
                 kParticles, kWriteRanks);
    const WriteResult written = write_particles_serial(per_rank, bounds, wc);
    std::fprintf(stderr, "[bench] %d leaves; reading at %d ranks, best of %d runs\n",
                 written.num_leaves, kReadRanks, kRuns);

    // At least one worker even on single-core hosts, so the threaded
    // serving path (task fan-out + comm-thread work-helping) is what gets
    // measured, not a silent fallback to inline serving.
    ThreadPool pool(std::max<std::size_t>(1, ThreadPool::default_concurrency()));
    LeafFileCache cache(static_cast<std::size_t>(written.num_leaves));
    const auto& meta = written.metadata_path;

    // Warm the leaf cache and the pool, then the phase breakdown run.
    run_read(meta, domain, kReadRanks, &pool, cache);
    const ReadRun best = best_read(meta, domain, kReadRanks, &pool, cache, kRuns);

    // A/B: serial vs pooled serving at 2 ranks (32 leaves per aggregator).
    // The runs are interleaved so slow drift of the host (page cache,
    // frequency scaling) lands on both sides equally; each side keeps its
    // best serve-phase time.
    ReadRun serve_serial;
    ReadRun serve_pool;
    double best_serial = 1e30;
    double best_pool = 1e30;
    for (int i = 0; i < kRuns; ++i) {
        const ReadRun s = run_read(meta, domain, 2, nullptr, cache);
        if (s.slowest.serve < best_serial) {
            best_serial = s.slowest.serve;
            serve_serial = s;
        }
        const ReadRun p = run_read(meta, domain, 2, &pool, cache);
        if (p.slowest.serve < best_pool) {
            best_pool = p.slowest.serve;
            serve_pool = p;
        }
    }


    const ReadPhaseTimings& t = best.slowest;
    const std::vector<std::pair<const char*, double>> phases = {
        {"read.metadata", t.metadata}, {"read.request", t.request},
        {"read.serve", t.serve},       {"read.merge", t.merge},
        {"read.local", t.local},       {"read.total", t.total()},
    };
    const double payload =
        static_cast<double>(kParticles) * (12.0 + 8.0 * kAttrs);  // xyz + attrs

    if (bench::has_flag(argc, argv, "--json")) {
        const char* out = bench::flag_value(argc, argv, "--out", "BENCH_read.json");
        bench::JsonBenchWriter writer;
        const int threads = static_cast<int>(pool.num_threads()) + 1;
        for (const auto& [name, seconds] : phases) {
            writer.add(bench::JsonBenchResult{
                name, kParticles, 1e9 * seconds / static_cast<double>(kParticles),
                "ns/op", seconds > 0 ? payload / seconds : 0.0, threads});
        }
        writer.add(bench::JsonBenchResult{
            "read.serve_serial", kParticles,
            1e9 * serve_serial.slowest.serve / static_cast<double>(kParticles), "ns/op",
            serve_serial.slowest.serve > 0 ? payload / serve_serial.slowest.serve : 0.0,
            1});
        writer.add(bench::JsonBenchResult{
            "read.serve_pool", kParticles,
            1e9 * serve_pool.slowest.serve / static_cast<double>(kParticles), "ns/op",
            serve_pool.slowest.serve > 0 ? payload / serve_pool.slowest.serve : 0.0,
            threads});
        writer.write(out);
    } else {
        bench::Table table({"phase", "seconds", "ns/particle"});
        for (const auto& [name, seconds] : phases) {
            table.add_row({name, bench::fmt(seconds, 4),
                           bench::fmt(1e9 * seconds / static_cast<double>(kParticles), 1)});
        }
        table.print();
        std::printf("serve 2-rank: serial %.4fs, pool %.4fs (%.2fx)\n",
                    serve_serial.slowest.serve, serve_pool.slowest.serve,
                    serve_pool.slowest.serve > 0
                        ? serve_serial.slowest.serve / serve_pool.slowest.serve
                        : 0.0);
    }

    std::filesystem::remove_all(dir);
    return 0;
}
