// Tests for the parallel, batched read path: threaded leaf serving vs the
// serial path (byte-identical), request coalescing (O(aggregators)
// messages), protocol-validator cleanliness under concurrent serving, the
// shared LRU leaf-file cache, and rejection of malformed read-protocol
// messages. The sanitizer matrix runs this file under TSan, covering the
// comm-thread/worker handoff in LeafServer, and under ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

#include "io/data_service.hpp"
#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "io/reader.hpp"
#include "io/writer.hpp"
#include "obs/metrics.hpp"
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

TEST(ReadParallelTest, PerLeafModeAgreesAndCoalescingCutsMessages) {
    const Written w;
    auto& metrics = obs::MetricsRegistry::global();
    ThreadPool pool(2);
    const int read_ranks = 8;

    ReaderConfig per_leaf;
    per_leaf.pool = &pool;
    per_leaf.coalesce = false;
    const std::uint64_t before_per_leaf = metrics.counter("read.request_msgs").value();
    const auto per_leaf_bytes = read_all(w, read_ranks, per_leaf);
    const std::uint64_t per_leaf_msgs =
        metrics.counter("read.request_msgs").value() - before_per_leaf;

    ReaderConfig coalesced;
    coalesced.pool = &pool;
    const std::uint64_t before_coalesced = metrics.counter("read.request_msgs").value();
    const auto coalesced_bytes = read_all(w, read_ranks, coalesced);
    const std::uint64_t coalesced_msgs =
        metrics.counter("read.request_msgs").value() - before_coalesced;

    EXPECT_EQ(coalesced_bytes, per_leaf_bytes);
    // Coalesced traffic is bounded by the aggregator count per client;
    // per-leaf traffic scales with overlapped leaves (many, given the tiny
    // target file size).
    EXPECT_LE(coalesced_msgs,
              static_cast<std::uint64_t>(read_ranks) * (read_ranks - 1));
    EXPECT_LT(coalesced_msgs, per_leaf_msgs);
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
    const std::vector<vmpi::Bytes> payloads{io_detail::encode_response(0, {&part, 1})};
    ParticleSet out({"a", "b"});
    EXPECT_THROW(io_detail::merge_responses(out, payloads), Error);
    EXPECT_EQ(out.count(), 0u);
}

}  // namespace
}  // namespace bat
