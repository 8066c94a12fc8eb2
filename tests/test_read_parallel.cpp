// Tests for the parallel, batched read path: threaded leaf serving vs the
// serial path (byte-identical), request coalescing (O(aggregators)
// messages), protocol-validator cleanliness under concurrent serving, the
// shared LRU leaf-file cache, served parts and read results against
// point-by-point queries, and rejection of malformed read-protocol
// messages. The sanitizer matrix runs this file under TSan, covering the
// comm-thread/worker handoff in LeafServer, and under ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <set>

#include "io/data_service.hpp"
#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "io/reader.hpp"
#include "io/series.hpp"
#include "io/writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "util/buffer.hpp"
#include "util/thread_pool.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});

struct Written {
    testing::TempDir dir;
    ParticleSet global;
    std::filesystem::path meta_path;

    /// Written at 27 virtual ranks with a small target size => 27 leaf
    /// files, so readers at <=8 ranks serve several leaves per aggregator
    /// and coalescing has something to batch.
    explicit Written(std::size_t n = 24'000, std::uint64_t target = 16 << 10) {
        global = make_uniform_particles(kDomain, n, 2, 17);
        const int write_ranks = 27;
        const GridDecomp decomp = grid_decomp_3d(write_ranks, kDomain);
        const auto per_rank = partition_particles(global, decomp);
        std::vector<Box> bounds;
        for (int r = 0; r < write_ranks; ++r) {
            bounds.push_back(decomp.rank_box(r));
        }
        WriterConfig config;
        config.tree.target_file_size = target;
        config.directory = dir.path();
        config.basename = "par";
        meta_path = write_particles_serial(per_rank, bounds, config).metadata_path;
    }
};

/// Per-rank serialized read results under the given config.
std::vector<std::vector<std::byte>> read_all(const Written& w, int read_ranks,
                                             ReaderConfig rc) {
    const GridDecomp decomp = grid_decomp_3d(read_ranks, kDomain);
    std::vector<std::vector<std::byte>> bytes(static_cast<std::size_t>(read_ranks));
    std::mutex mutex;
    vmpi::Runtime::run(read_ranks, [&](vmpi::Comm& comm) {
        const ReadResult result =
            read_particles(comm, w.meta_path, decomp.rank_read_box(comm.rank()), rc);
        std::lock_guard<std::mutex> lock(mutex);
        bytes[static_cast<std::size_t>(comm.rank())] = result.particles.to_bytes();
    });
    return bytes;
}

std::uint64_t total_count(const std::vector<std::vector<std::byte>>& per_rank) {
    std::uint64_t total = 0;
    for (const auto& bytes : per_rank) {
        total += ParticleSet::from_bytes(bytes).count();
    }
    return total;
}

TEST(ReadParallelTest, ThreadedServingByteIdenticalToSerial) {
    const Written w;
    ReaderConfig serial;
    const auto want = read_all(w, 5, serial);
    EXPECT_EQ(total_count(want), w.global.count());

    for (const std::size_t workers : {1u, 3u}) {
        ThreadPool pool(workers);
        ReaderConfig threaded;
        threaded.pool = &pool;
        EXPECT_EQ(read_all(w, 5, threaded), want) << "workers=" << workers;
    }
}

TEST(ReadParallelTest, OneRequestPerClientAggregatorPair) {
    // Coalescing, exactly: each rank sends one request per distinct remote
    // aggregator among the leaves its box overlaps, and the pooled read
    // equals the serial one byte for byte.
    const Written w;
    const Metadata meta = Metadata::load(w.meta_path);
    const int read_ranks = 8;
    const GridDecomp decomp = grid_decomp_3d(read_ranks, kDomain);
    const std::vector<int> aggregator =
        assign_read_aggregators(static_cast<int>(meta.leaves.size()), read_ranks);
    std::uint64_t want_msgs = 0;
    std::uint64_t remote_leaves = 0;
    for (int r = 0; r < read_ranks; ++r) {
        std::set<int> servers;
        for (const int leaf : meta.query_leaves(decomp.rank_read_box(r))) {
            const int server = aggregator[static_cast<std::size_t>(leaf)];
            if (server != r) {
                servers.insert(server);
                ++remote_leaves;
            }
        }
        want_msgs += servers.size();
    }
    EXPECT_LT(want_msgs, remote_leaves);  // there is something to coalesce

    auto& metrics = obs::MetricsRegistry::global();
    ThreadPool pool(2);
    ReaderConfig pooled;
    pooled.pool = &pool;
    const std::uint64_t before = metrics.counter("read.request_msgs").value();
    const auto pooled_bytes = read_all(w, read_ranks, pooled);
    EXPECT_EQ(metrics.counter("read.request_msgs").value() - before, want_msgs);
    EXPECT_EQ(pooled_bytes, read_all(w, read_ranks, ReaderConfig{}));
}

TEST(ReadParallelTest, EveryRankServesAndRequestsValidatorClean) {
    const Written w;
    ThreadPool pool(3);
    const int nranks = 6;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    std::atomic<std::uint64_t> total{0};
    const vmpi::ValidationReport report =
        vmpi::Runtime::run_validated(nranks, [&](vmpi::Comm& comm) {
            ReaderConfig rc;
            rc.pool = &pool;
            const ReadResult result = read_particles(
                comm, w.meta_path, decomp.rank_read_box(comm.rank()), rc);
            total.fetch_add(result.particles.count());
        });
    EXPECT_FALSE(report.deadlock);
    EXPECT_TRUE(report.rank_errors.empty());
    EXPECT_TRUE(report.diagnostics.empty());
    EXPECT_GT(report.sends, 0u);
    EXPECT_EQ(total.load(), w.global.count());
}

TEST(ReadParallelTest, DataServiceThreadedMatchesSerial) {
    const Written w;
    const int nranks = 4;
    const auto run_rounds = [&](ThreadPool* pool) {
        std::vector<std::vector<std::byte>> bytes(static_cast<std::size_t>(nranks));
        std::mutex mutex;
        vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
            DataService service(comm, w.meta_path, pool);
            // Round 1: each rank takes a quarter slab in x.
            BatQuery q1;
            const float x0 = 0.5f * static_cast<float>(comm.rank());
            q1.box = Box({x0, 0, 0}, {x0 + 0.5f, 2, 2});
            q1.inclusive_upper = comm.rank() == nranks - 1;
            ParticleSet mine = service.query_round(q1);
            // Round 2: rank 1 asks for a filtered whole-domain view.
            if (comm.rank() == 1) {
                BatQuery q2;
                const auto [lo, hi] = w.global.attr_range(1);
                q2.attr_filters.push_back({1, lo + 0.5 * (hi - lo), hi});
                mine.append(service.query_round(q2));
            } else {
                service.query_round(std::nullopt);
            }
            std::lock_guard<std::mutex> lock(mutex);
            bytes[static_cast<std::size_t>(comm.rank())] = mine.to_bytes();
        });
        return bytes;
    };
    const auto serial = run_rounds(nullptr);
    ThreadPool pool(2);
    EXPECT_EQ(run_rounds(&pool), serial);

    std::uint64_t round1_total = 0;
    for (const auto& b : serial) {
        round1_total += ParticleSet::from_bytes(b).count();
    }
    EXPECT_GE(round1_total, w.global.count());  // round 1 partitions; round 2 adds
}

TEST(ReadParallelTest, ReadEqualsHalfOpenServiceRound) {
    // read_particles and a DataService round run the same query round, so
    // a half-open box read must equal a half-open box round byte for byte.
    const Written w;
    for (const int nranks : {1, 5, 8}) {
        const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
        std::atomic<std::uint64_t> total{0};
        std::atomic<int> mismatches{0};
        vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
            const Box box = decomp.rank_read_box(comm.rank());
            const ReadResult read = read_particles(comm, w.meta_path, box);
            DataService service(comm, w.meta_path);
            BatQuery query;
            query.box = box;
            query.inclusive_upper = false;
            const ParticleSet round = service.query_round(query);
            if (read.particles.to_bytes() != round.to_bytes()) {
                mismatches.fetch_add(1);
            }
            total.fetch_add(read.particles.count());
        });
        EXPECT_EQ(mismatches.load(), 0) << "ranks=" << nranks;
        EXPECT_EQ(total.load(), w.global.count()) << "ranks=" << nranks;
    }
}

TEST(ReadParallelTest, LeafCacheHitsAcrossCollectiveReads) {
    const Written w;
    auto& metrics = obs::MetricsRegistry::global();
    LeafFileCache cache;
    ReaderConfig rc;
    rc.cache = &cache;

    const std::uint64_t miss0 = metrics.counter("read.leaf_cache_miss").value();
    read_all(w, 4, rc);
    const std::uint64_t first_misses =
        metrics.counter("read.leaf_cache_miss").value() - miss0;
    EXPECT_GT(first_misses, 0u);
    EXPECT_GT(cache.size(), 0u);

    // A second collective read of the same dataset through the same cache
    // must reopen nothing.
    const std::uint64_t miss1 = metrics.counter("read.leaf_cache_miss").value();
    const std::uint64_t hit1 = metrics.counter("read.leaf_cache_hit").value();
    read_all(w, 4, rc);
    EXPECT_EQ(metrics.counter("read.leaf_cache_miss").value(), miss1);
    EXPECT_GT(metrics.counter("read.leaf_cache_hit").value(), hit1);
}

TEST(ReadParallelTest, LeafCacheEvictsLeastRecentlyUsed) {
    const Written w;
    const Metadata meta = Metadata::load(w.meta_path);
    ASSERT_GE(meta.leaves.size(), 3u);
    LeafFileCache cache(2);
    const auto path = [&](std::size_t i) { return w.dir.path() / meta.leaves[i].file; };

    const auto a = cache.open(path(0));
    cache.open(path(1));
    EXPECT_EQ(cache.size(), 2u);
    cache.open(path(2));  // evicts leaf 0 (least recently used)
    EXPECT_EQ(cache.size(), 2u);

    // The evicted mapping stays alive through the returned shared_ptr...
    EXPECT_GT(a->header().file_size, 0u);
    // ...and reopening it works (as a fresh miss) and evicts leaf 1.
    auto& metrics = obs::MetricsRegistry::global();
    const std::uint64_t miss0 = metrics.counter("read.leaf_cache_miss").value();
    cache.open(path(0));
    EXPECT_EQ(metrics.counter("read.leaf_cache_miss").value(), miss0 + 1);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ReadParallelTest, ReadReportsMergePhaseAndBytesRead) {
    const Written w;
    LeafFileCache cache;  // fresh cache so this read actually opens files
    const GridDecomp decomp = grid_decomp_3d(4, kDomain);
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> served{0};
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
        ReaderConfig rc;
        rc.cache = &cache;
        const ReadResult result =
            read_particles(comm, w.meta_path, decomp.rank_read_box(comm.rank()), rc);
        bytes_read.fetch_add(result.bytes_read);
        served.fetch_add(result.particles.count());
        EXPECT_GE(result.timings.total(),
                  result.timings.serve + result.timings.merge);
    });
    EXPECT_EQ(served.load(), w.global.count());
    // Every leaf file was opened exactly once somewhere, so the summed
    // bytes_read equals the summed file sizes.
    const Metadata meta = Metadata::load(w.meta_path);
    std::uint64_t file_bytes = 0;
    for (const MetaLeaf& leaf : meta.leaves) {
        file_bytes += std::filesystem::file_size(w.dir.path() / leaf.file);
    }
    EXPECT_EQ(bytes_read.load(), file_bytes);
}

// ---- served parts against point-by-point queries ----------------------------

/// `leaf` queried point by point through a QueryCallback: the reference
/// every served part (its to_bytes()) and every read result is built from.
ParticleSet pointwise_leaf(const Metadata& meta, const std::filesystem::path& dir, int leaf,
                           const BatQuery& query) {
    const BatFile file(dir / meta.leaves[static_cast<std::size_t>(leaf)].file);
    ParticleSet out(meta.attr_names);
    query_bat(file, query,
              [&out](Vec3 p, std::span<const double> attrs) { out.push_back(p, attrs); });
    return out;
}

/// The coalesced response layout: u32 seq, u32 part count, one u64 length
/// per part, then the parts back to back.
vmpi::Bytes encode_parts(std::uint32_t seq, const std::vector<vmpi::Bytes>& parts) {
    BufferWriter w;
    w.write(seq);
    w.write(static_cast<std::uint32_t>(parts.size()));
    for (const vmpi::Bytes& part : parts) {
        w.write(static_cast<std::uint64_t>(part.size()));
    }
    for (const vmpi::Bytes& part : parts) {
        w.write_span(std::span<const std::byte>(part));
    }
    return w.take();
}

constexpr int kTagTestRequest = 40;
constexpr int kTagTestResponse = 41;

/// The raw response a serving rank sends for one request of `leaves` under
/// `query`: rank 0 runs a query round that asks for nothing, while rank 1
/// plays a hand-made client — it sends the request, takes the response and
/// then joins the round's barrier. The request carries no query identity,
/// so a query log armed around the test holds only rank 0's (empty) record.
vmpi::Bytes serve_raw(const std::filesystem::path& meta_path,
                      const std::vector<std::int32_t>& leaves, const BatQuery& query,
                      ThreadPool* pool) {
    const Metadata meta = Metadata::load(meta_path);
    const std::filesystem::path dir = meta_path.parent_path();
    const std::vector<int> aggregator(meta.leaves.size(), 0);
    LeafFileCache cache;
    vmpi::Bytes response;
    vmpi::Runtime::run(2, [&](vmpi::Comm& comm) {
        if (comm.rank() == 0) {
            const io_detail::RoundSetup setup{comm,  meta,           dir,
                                              aggregator, pool,     cache,
                                              kTagTestRequest, kTagTestResponse};
            const obs::QueryContext ctx = obs::query_begin(comm.rank());
            obs::QueryScope scope(ctx);
            io_detail::query_round(setup, nullptr, ctx, obs::trace_now_ns(), "test.serve",
                                   nullptr);
            return;
        }
        io_detail::LeafRequest req;
        req.seq = 7;
        req.leaves = leaves;
        req.query = query;
        comm.isend(0, kTagTestRequest, io_detail::encode_request(req));
        response = comm.recv(0, kTagTestResponse);
        comm.ibarrier().wait();
    });
    return response;
}

/// Two steps of a 4-rank series: step 0 is a keyframe; step 1 nudges only
/// the particles in a corner box (clamped to it, so bounds and attribute
/// ranges hold), so its rewritten leaf stores most treelets as references
/// into step 0's file.
struct WrittenSeries {
    testing::TempDir dir;
    ParticleSet base;
    std::filesystem::path meta[2];

    WrittenSeries() {
        base = make_uniform_particles(kDomain, 12'000, 2, 29);
        const int nranks = 4;
        const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
        WriterConfig config;
        config.tree.target_file_size = 32 << 10;
        config.bat.target_treelet_particles = 256;
        config.directory = dir.path();
        config.basename = "serve";
        const Box hot({0.2f, 0.2f, 0.2f}, {0.6f, 0.6f, 0.6f});
        std::mutex mutex;
        vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            SeriesWriter writer(config);
            for (int s = 0; s < 2; ++s) {
                ParticleSet global = base;
                for (std::size_t i = 0; s == 1 && i < global.count(); ++i) {
                    const Vec3 p = global.position(i);
                    if (hot.contains(p)) {
                        global.set_position(i, {std::min(p.x + 0.01f, hot.upper.x), p.y, p.z});
                    }
                }
                const auto per_rank = partition_particles(global, decomp);
                const WriteResult result = writer.write_timestep(
                    comm, s, per_rank[static_cast<std::size_t>(r)], decomp.rank_box(r));
                std::lock_guard<std::mutex> lock(mutex);
                meta[s] = result.metadata_path;
            }
            writer.finalize(comm);
        });
    }
};

/// Box-only, filter-only, box + filter, half-open and progressive queries.
std::vector<BatQuery> serve_queries(const ParticleSet& data) {
    const auto [lo0, hi0] = data.attr_range(0);
    const auto [lo1, hi1] = data.attr_range(1);
    const AttrFilter filter0{0, lo0 + 0.2 * (hi0 - lo0), lo0 + 0.7 * (hi0 - lo0)};
    const AttrFilter filter1{1, lo1 + 0.1 * (hi1 - lo1), lo1 + 0.6 * (hi1 - lo1)};
    const Box part({0.3f, 0.1f, 0.2f}, {1.4f, 1.7f, 1.3f});
    std::vector<BatQuery> queries(5);
    queries[0].box = part;
    queries[1].attr_filters = {filter0};
    queries[2].box = part;
    queries[2].attr_filters = {filter0, filter1};
    queries[3].box = Box({0.f, 0.f, 0.f}, {1.f, 1.f, 1.f});
    queries[3].inclusive_upper = false;
    queries[4].box = part;
    queries[4].attr_filters = {filter1};
    queries[4].quality_lo = 0.3f;
    queries[4].quality_hi = 0.8f;
    return queries;
}

TEST(ReadProtocolTest, ServedPartsEqualPointwiseQueries) {
    // Every served part is the to_bytes() payload of its leaf queried point
    // by point, and a coalesced response lays the parts out as encode_parts
    // does — on a keyframe and on a delta-treelet step, serially and pooled.
    const WrittenSeries series;
    const std::vector<BatQuery> queries = serve_queries(series.base);
    ThreadPool pool(2);
    bool saw_delta = false;
    for (int s = 0; s < 2; ++s) {
        const Metadata meta = Metadata::load(series.meta[s]);
        const std::filesystem::path dir = series.meta[s].parent_path();
        ASSERT_GE(meta.leaves.size(), 2u);
        std::vector<std::int32_t> all_leaves;
        for (std::size_t leaf = 0; leaf < meta.leaves.size(); ++leaf) {
            all_leaves.push_back(static_cast<std::int32_t>(leaf));
            const BatFile file(dir / meta.leaves[leaf].file);
            for (std::size_t t = 0; t < file.num_treelets(); ++t) {
                saw_delta = saw_delta || file.treelet_is_delta(t);
            }
        }
        for (std::size_t q = 0; q < queries.size(); ++q) {
            SCOPED_TRACE("step " + std::to_string(s) + " query " + std::to_string(q));
            std::vector<vmpi::Bytes> parts;
            std::size_t particles = 0;
            for (const std::int32_t leaf : all_leaves) {
                const ParticleSet want = pointwise_leaf(meta, dir, leaf, queries[q]);
                particles += want.count();
                parts.push_back(want.to_bytes());
                const vmpi::Bytes single = serve_raw(series.meta[s], {leaf}, queries[q], nullptr);
                EXPECT_EQ(single, encode_parts(7, {parts.back()})) << "leaf " << leaf;
            }
            EXPECT_GT(particles, 0u);
            EXPECT_EQ(serve_raw(series.meta[s], all_leaves, queries[q], &pool),
                      encode_parts(7, parts));
            EXPECT_EQ(serve_raw(series.meta[s], all_leaves, queries[q], nullptr),
                      encode_parts(7, parts));
        }
    }
    EXPECT_TRUE(saw_delta);
}

TEST(ReadParallelTest, MixedRemoteLocalReadKeepsOrder) {
    // A rank's read result is its remote leaves' points in leaf order, then
    // its local leaves' points in leaf order, each leaf in query emission
    // order — whether the leaves are served serially or from a pool.
    const Written w;
    const Metadata meta = Metadata::load(w.meta_path);
    const std::filesystem::path dir = w.meta_path.parent_path();
    const int nranks = 4;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    const std::vector<int> aggregator =
        assign_read_aggregators(static_cast<int>(meta.leaves.size()), nranks);
    std::vector<vmpi::Bytes> want(static_cast<std::size_t>(nranks));
    int mixed_ranks = 0;
    for (int r = 0; r < nranks; ++r) {
        BatQuery query;
        query.box = decomp.rank_read_box(r);
        query.inclusive_upper = false;
        ParticleSet expected(meta.attr_names);
        bool remote = false;
        bool local = false;
        for (const bool local_pass : {false, true}) {
            for (const int leaf : meta.query_leaves(query.box)) {
                if ((aggregator[static_cast<std::size_t>(leaf)] == r) != local_pass) {
                    continue;
                }
                (local_pass ? local : remote) = true;
                expected.append(pointwise_leaf(meta, dir, leaf, query));
            }
        }
        mixed_ranks += remote && local ? 1 : 0;
        want[static_cast<std::size_t>(r)] = expected.to_bytes();
    }
    EXPECT_GT(mixed_ranks, 0);
    ReaderConfig serial;
    EXPECT_EQ(read_all(w, nranks, serial), want);
    ThreadPool pool(2);
    ReaderConfig pooled;
    pooled.pool = &pool;
    EXPECT_EQ(read_all(w, nranks, pooled), want);
}

TEST(ReadParallelTest, LeafWithRenamedAttributesIsRejected) {
    // A leaf with the metadata's attribute count but other names must not
    // be served under the metadata's names: the rank that opens it, for
    // its own result or to serve a peer, raises after the round.
    const Written w;
    const Metadata meta = Metadata::load(w.meta_path);
    const std::filesystem::path leaf_path = w.dir.path() / meta.leaves[0].file;
    ParticleSet renamed(std::vector<std::string>{"renamed0", "renamed1"});
    {
        const BatFile leaf(leaf_path);
        ASSERT_EQ(leaf.num_attrs(), renamed.num_attrs());
        query_bat(leaf, BatQuery{}, [&renamed](Vec3 p, std::span<const double> attrs) {
            renamed.push_back(p, attrs);
        });
    }
    ASSERT_GT(renamed.count(), 0u);
    write_bat_file(leaf_path, build_bat(std::move(renamed), BatConfig{}));
    // A local leaf: one rank reads everything itself.
    vmpi::Runtime::run(1, [&](vmpi::Comm& comm) {
        EXPECT_THROW(read_particles(comm, w.meta_path, kDomain, ReaderConfig{}), Error);
    });
    // A served leaf: only the rank that does not aggregate leaf 0 reads.
    // The server asks for nothing, so its failed round leaves no query
    // record without its serve spans.
    const int server =
        assign_read_aggregators(static_cast<int>(meta.leaves.size()), 2).front();
    const Box nowhere({5, 5, 5}, {6, 6, 6});
    std::atomic<int> errors{0};
    vmpi::Runtime::run(2, [&](vmpi::Comm& comm) {
        const Box box = comm.rank() == server ? nowhere : kDomain;
        try {
            read_particles(comm, w.meta_path, box, ReaderConfig{});
        } catch (const Error&) {
            EXPECT_EQ(comm.rank(), server);
            errors.fetch_add(1);
        }
    });
    EXPECT_EQ(errors.load(), 1);
}

// ---- malformed wire messages ------------------------------------------------
// Counts and lengths come from the peer, so each decoder must reject one
// the message cannot hold with bat::Error before allocating or slicing.

/// A request header (seq, query identity) followed by `leaf_count`.
BufferWriter request_prefix(std::uint32_t leaf_count) {
    BufferWriter w;
    w.write(std::uint32_t{0});  // seq
    w.write(std::uint64_t{1});  // trace id
    w.write(std::int32_t{0});   // origin rank
    w.write(std::uint32_t{0});  // query seq
    w.write(leaf_count);
    return w;
}

TEST(ReadProtocolTest, ResponsePartLengthThatWrapsIsRejected) {
    // 32 bytes: two parts whose lengths sum to 8 modulo 2^64, the first
    // claiming 2^64 - 16 bytes.
    BufferWriter w;
    w.write(std::uint32_t{0});  // seq
    w.write(std::uint32_t{2});  // parts
    w.write(~std::uint64_t{0} - 15);
    w.write(std::uint64_t{24});
    w.write(std::uint64_t{0});
    const vmpi::Bytes bytes = w.take();
    ASSERT_EQ(bytes.size(), 32u);
    EXPECT_THROW(io_detail::decode_response(bytes), Error);
}

TEST(ReadProtocolTest, RequestFilterCountPastThePayloadIsRejected) {
    BufferWriter w = request_prefix(0);
    w.write(std::uint8_t{0});    // no box
    w.write(~std::uint32_t{0});  // 2^32 - 1 attribute filters
    w.write(std::uint8_t{0});
    const vmpi::Bytes bytes = w.take();
    EXPECT_LE(bytes.size(), 32u);
    EXPECT_THROW(io_detail::decode_request(bytes), Error);
}

TEST(ReadProtocolTest, RequestLeafCountPastThePayloadIsRejected) {
    BufferWriter w = request_prefix(1u << 30);
    w.write(std::int32_t{0});
    const vmpi::Bytes bytes = w.take();
    // Rejected at the count check, not after allocating 4 GiB of leaf ids
    // and then running out of bytes.
    try {
        io_detail::decode_request(bytes);
        ADD_FAILURE() << "request accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("bytes left"), std::string::npos) << e.what();
    }
}

TEST(ReadProtocolTest, MergeRejectsPartParticleCountPastItsBytes) {
    ParticleSet one({"a", "b"});
    const double attrs[2] = {1.0, 2.0};
    one.push_back({0.5f, 0.5f, 0.5f}, attrs);
    vmpi::Bytes part = one.to_bytes();
    const std::uint64_t claimed = std::uint64_t{1} << 40;
    std::memcpy(part.data(), &claimed, sizeof(claimed));  // the leading count
    const std::vector<vmpi::Bytes> payloads{encode_parts(0, {part})};
    const std::vector<std::size_t> leaves{1};
    ParticleSet out({"a", "b"});
    EXPECT_THROW(io_detail::merge_responses(out, payloads, leaves), Error);
    EXPECT_EQ(out.count(), 0u);
}

/// One query round over `w`'s leaves, all served by `server`, at `nranks`
/// ranks: each rank but `client` runs the round (ranks in `askers` query
/// the whole data set, the others ask for nothing), while `client(comm)`
/// plays a hand-made peer that must join the round's barrier itself. Counts
/// the round's bat::Errors and the particles it returned.
struct RoundOutcome {
    std::atomic<int> errors{0};
    std::atomic<std::uint64_t> particles{0};
};
void run_round_with_peer(const Written& w, int nranks, int server, ThreadPool* pool,
                         const std::set<int>& askers, int client,
                         const std::function<void(vmpi::Comm&)>& peer, RoundOutcome* out) {
    const Metadata meta = Metadata::load(w.meta_path);
    const std::filesystem::path dir = w.meta_path.parent_path();
    const std::vector<int> aggregator(meta.leaves.size(), server);
    LeafFileCache cache;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        if (comm.rank() == client) {
            peer(comm);
            return;
        }
        const io_detail::RoundSetup setup{comm,  meta,           dir,
                                          aggregator, pool,     cache,
                                          kTagTestRequest, kTagTestResponse};
        const BatQuery everything;
        const obs::QueryContext ctx = obs::query_begin(comm.rank());
        obs::QueryScope scope(ctx);
        try {
            const io_detail::RoundResult round =
                io_detail::query_round(setup, askers.count(comm.rank()) ? &everything : nullptr,
                                       ctx, obs::trace_now_ns(), "test.round", nullptr);
            out->particles.fetch_add(round.particles.count());
        } catch (const Error&) {
            out->errors.fetch_add(1);
        }
    });
}

TEST(ReadProtocolTest, GarbledRequestFailsItsServerAfterTheRound) {
    // A request its server cannot decode must not strand the round: the
    // sender gets a part-less answer echoing its seq, every rank leaves the
    // round (rank 2's own query is served in full), and the serving rank
    // raises bat::Error once the barrier is through.
    const Written w;
    ThreadPool pool(2);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        vmpi::Bytes answer;
        RoundOutcome outcome;
        run_round_with_peer(w, 3, /*server=*/0, p, /*askers=*/{2}, /*client=*/1,
                            [&answer](vmpi::Comm& comm) {
                                BufferWriter garbled;
                                garbled.write(std::uint32_t{7});  // seq
                                garbled.write(std::uint8_t{1});   // then too short
                                comm.isend(0, kTagTestRequest, garbled.take());
                                answer = comm.recv(0, kTagTestResponse);
                                comm.ibarrier().wait();
                            },
                            &outcome);
        EXPECT_EQ(outcome.errors.load(), 1) << "pool=" << (p != nullptr);
        EXPECT_EQ(outcome.particles.load(), w.global.count());
        EXPECT_EQ(answer, encode_parts(7, {}));
    }
}

TEST(ReadProtocolTest, ResponseMissingPartsIsRejected) {
    // A response with fewer parts than its request has leaves would drop
    // those leaves' particles without a word; the client must raise instead.
    const Written w;
    RoundOutcome outcome;
    run_round_with_peer(w, 2, /*server=*/1, nullptr, /*askers=*/{0}, /*client=*/1,
                        [](vmpi::Comm& comm) {
                            const io_detail::LeafRequest req =
                                io_detail::decode_request(comm.recv(0, kTagTestRequest));
                            EXPECT_GT(req.leaves.size(), 1u);
                            comm.isend(0, kTagTestResponse, encode_parts(req.seq, {}));
                            comm.ibarrier().wait();
                        },
                        &outcome);
    EXPECT_EQ(outcome.errors.load(), 1);
    EXPECT_EQ(outcome.particles.load(), 0u);
}

}  // namespace
}  // namespace bat
