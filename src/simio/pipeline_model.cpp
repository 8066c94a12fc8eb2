#include "simio/pipeline_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "io/reader.hpp"
#include "obs/trace.hpp"
#include "simio/filesystem.hpp"
#include "simio/network.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace bat::simio {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulates modeled phases into a SimResult and, while tracing is on, lays
/// the modeled timeline out on a dedicated virtual track — the same trace
/// format as the measured pipeline, but on its own tid so modeled spans
/// never interleave with real ones.
class PhaseRecorder {
public:
    PhaseRecorder(SimResult& result, const char* track_name) : result_(result) {
        if (obs::trace_enabled()) {
            traced_ = true;
            track_ = obs::new_virtual_track(track_name);
            cursor_ns_ = obs::trace_now_ns();
        }
    }

    /// `name` must be a string literal (the trace stores the pointer).
    void add(const char* name, double seconds) {
        result_.phases.push_back({name, seconds});
        result_.seconds += seconds;
        if (traced_) {
            const auto dur_ns =
                static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e9);
            obs::emit_span_on_track(track_, name, "simio", cursor_ns_, dur_ns);
            cursor_ns_ += dur_ns;
        }
    }

private:
    SimResult& result_;
    bool traced_ = false;
    std::uint32_t track_ = 0;
    std::uint64_t cursor_ns_ = 0;
};

FileStats file_stats(const Aggregation& agg, std::uint64_t bpp, double overhead) {
    FileStats stats;
    stats.num_files = static_cast<int>(agg.leaves.size());
    RunningStats rs;
    for (const AggLeaf& leaf : agg.leaves) {
        rs.add(static_cast<double>(leaf.num_particles) * static_cast<double>(bpp) *
               (1.0 + overhead));
    }
    stats.mean_bytes = rs.mean();
    stats.std_bytes = rs.stddev();
    stats.max_bytes = rs.max();
    return stats;
}

/// Estimated size of an assignment / report message (see io/writer.cpp).
constexpr std::uint64_t kAssignmentBytes = 64;
constexpr std::uint64_t kReportBytesPerAttr = 20;
constexpr std::uint64_t kMetaBytesPerLeaf = 220;

}  // namespace

double SimResult::phase_seconds(const std::string& name) const {
    for (const SimPhase& p : phases) {
        if (p.name == name) {
            return p.seconds;
        }
    }
    return 0.0;
}

std::uint64_t workload_bytes(std::span<const RankInfo> ranks,
                             std::uint64_t bytes_per_particle) {
    std::uint64_t total = 0;
    for (const RankInfo& r : ranks) {
        total += r.num_particles * bytes_per_particle;
    }
    return total;
}

SimResult simulate_write(std::span<const RankInfo> ranks, const TwoPhaseParams& params) {
    const MachineConfig& m = params.machine;
    const int nranks = static_cast<int>(ranks.size());
    const std::uint64_t bpp = params.tree.bytes_per_particle;
    SimResult result;
    result.total_bytes = workload_bytes(ranks, bpp);
    PhaseRecorder rec(result, "simio.write");

    // (a) gather counts + bounds; the tree build runs FOR REAL and its
    // measured wall time is charged (it runs on rank 0 in the pipeline).
    rec.add("gather", model_rooted_collective(m, nranks, sizeof(RankInfo)));
    const auto t0 = Clock::now();
    Aggregation agg = build_aggregation(ranks, params.strategy, params.tree, params.pool);
    rec.add("tree_build", seconds_since(t0));
    if (params.strategy == AggStrategy::file_per_process) {
        for (AggLeaf& leaf : agg.leaves) {
            leaf.aggregator = leaf.ranks.front();
        }
    } else if (!agg.leaves.empty()) {
        agg.assign_aggregators(nranks);
    }
    result.files = file_stats(agg, bpp, params.layout_overhead);

    // (b) scatter assignments.
    rec.add("scatter", model_rooted_collective(m, nranks, kAssignmentBytes));

    // (b') transfer particles to aggregators.
    std::vector<Transfer> transfers;
    transfers.reserve(ranks.size());
    for (const AggLeaf& leaf : agg.leaves) {
        for (int r : leaf.ranks) {
            const std::uint64_t bytes = ranks[static_cast<std::size_t>(r)].num_particles * bpp;
            if (bytes > 0) {
                transfers.push_back({r, leaf.aggregator, bytes});
            }
        }
    }
    rec.add("transfer", model_transfers(m, nranks, transfers).seconds);

    // (c) BAT build on the busiest aggregator, then the file writes.
    std::vector<std::uint64_t> agg_bytes(static_cast<std::size_t>(nranks), 0);
    std::vector<FileWriteLoad> files;
    files.reserve(agg.leaves.size());
    for (const AggLeaf& leaf : agg.leaves) {
        const auto bytes = static_cast<std::uint64_t>(
            static_cast<double>(leaf.num_particles * bpp) * (1.0 + params.layout_overhead));
        agg_bytes[static_cast<std::size_t>(leaf.aggregator)] += bytes;
        files.push_back({bytes, leaf.aggregator});
    }
    const std::uint64_t max_agg_bytes =
        agg_bytes.empty() ? 0 : *std::max_element(agg_bytes.begin(), agg_bytes.end());
    rec.add("bat_build", static_cast<double>(max_agg_bytes) / params.bat_build_bps);
    rec.add("file_write", model_file_writes(m, files).seconds);

    // (d) metadata gather + metadata file write on rank 0.
    const std::uint64_t nattrs = std::max<std::uint64_t>(1, (bpp - 12) / 8);
    const double report_gather = model_rooted_collective(
        m, nranks, kReportBytesPerAttr * nattrs);
    const FileWriteLoad meta_file{kMetaBytesPerLeaf * agg.leaves.size(), 0};
    const double meta_write = model_file_writes(m, std::span(&meta_file, 1)).seconds;
    rec.add("metadata", report_gather + meta_write);
    return result;
}

SimResult simulate_read(std::span<const RankInfo> ranks, const TwoPhaseParams& params) {
    const MachineConfig& m = params.machine;
    const int nranks = static_cast<int>(ranks.size());
    const std::uint64_t bpp = params.tree.bytes_per_particle;
    SimResult result;
    result.total_bytes = workload_bytes(ranks, bpp);
    PhaseRecorder rec(result, "simio.read");

    // Re-derive the aggregation the write produced (deterministic).
    Aggregation agg = build_aggregation(ranks, params.strategy, params.tree, params.pool);
    result.files = file_stats(agg, bpp, params.layout_overhead);
    const std::vector<int> read_agg =
        assign_read_aggregators(static_cast<int>(agg.leaves.size()), nranks);

    // (a) every rank reads the metadata file. All opens hit the same inode
    // (no directory churn; lookups are cached after the first), so this is
    // a high-rate open storm plus the broadcast-like block reads.
    const std::uint64_t meta_bytes = kMetaBytesPerLeaf * agg.leaves.size();
    const double meta_open = static_cast<double>(nranks) / (8.0 * m.open_rate);
    const double meta_data =
        static_cast<double>(meta_bytes) * nranks / m.fs_read_bw +
        static_cast<double>(meta_bytes) / m.client_bw;
    rec.add("metadata_read", meta_open + meta_data);

    // (b) request messages: one per (reader, overlapped leaf). For the
    // restart pattern each rank needs exactly the leaf holding its data.
    std::vector<Transfer> requests;
    std::vector<Transfer> responses;
    for (int r = 0; r < nranks; ++r) {
        const int leaf = agg.rank_to_leaf[static_cast<std::size_t>(r)];
        if (leaf < 0) {
            continue;
        }
        const int aggregator = read_agg[static_cast<std::size_t>(leaf)];
        const std::uint64_t bytes = ranks[static_cast<std::size_t>(r)].num_particles * bpp;
        requests.push_back({r, aggregator, 32});
        responses.push_back({aggregator, r, bytes});
    }
    rec.add("request", model_transfers(m, nranks, requests).seconds);

    // (c) read aggregators read their leaf files...
    std::vector<FileWriteLoad> files;
    files.reserve(agg.leaves.size());
    for (std::size_t i = 0; i < agg.leaves.size(); ++i) {
        const auto bytes = static_cast<std::uint64_t>(
            static_cast<double>(agg.leaves[i].num_particles * bpp) *
            (1.0 + params.layout_overhead));
        files.push_back({bytes, read_agg[i]});
    }
    rec.add("file_read", model_file_reads(m, files).seconds);

    // ...and ship each rank its particles.
    rec.add("transfer", model_transfers(m, nranks, responses).seconds);
    return result;
}

namespace {

SimResult baseline_result(std::span<const RankInfo> ranks, std::uint64_t bpp) {
    SimResult result;
    result.total_bytes = workload_bytes(ranks, bpp);
    return result;
}

/// IOR-style payload: the paper's per-rank 32k particles * (12 + 14*8)B.
constexpr std::uint64_t kIorBpp = 12 + 14 * 8;

}  // namespace

SimResult simulate_ior_fpp_write(std::span<const RankInfo> ranks, const MachineConfig& m) {
    SimResult result = baseline_result(ranks, kIorBpp);
    std::vector<FileWriteLoad> files;
    files.reserve(ranks.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        if (ranks[r].num_particles > 0) {
            files.push_back({ranks[r].num_particles * kIorBpp, static_cast<int>(r)});
        }
    }
    result.files.num_files = static_cast<int>(files.size());
    PhaseRecorder rec(result, "simio.ior_fpp_write");
    rec.add("file_write", model_file_writes(m, files).seconds);
    return result;
}

SimResult simulate_ior_fpp_read(std::span<const RankInfo> ranks, const MachineConfig& m) {
    SimResult result = baseline_result(ranks, kIorBpp);
    std::vector<FileWriteLoad> files;
    files.reserve(ranks.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        if (ranks[r].num_particles > 0) {
            files.push_back({ranks[r].num_particles * kIorBpp, static_cast<int>(r)});
        }
    }
    result.files.num_files = static_cast<int>(files.size());
    PhaseRecorder rec(result, "simio.ior_fpp_read");
    rec.add("file_read", model_file_reads(m, files).seconds);
    return result;
}

SimResult simulate_ior_shared_write(std::span<const RankInfo> ranks, const MachineConfig& m,
                                    bool hdf5_flavor) {
    SimResult result = baseline_result(ranks, kIorBpp);
    std::uint64_t max_writer = 0;
    for (const RankInfo& r : ranks) {
        max_writer = std::max(max_writer, r.num_particles * kIorBpp);
    }
    result.files.num_files = 1;
    PhaseRecorder rec(result, "simio.ior_shared_write");
    rec.add("shared_write", model_shared_write(m, static_cast<int>(ranks.size()),
                                               result.total_bytes, max_writer, hdf5_flavor)
                                .seconds);
    return result;
}

SimResult simulate_ior_shared_read(std::span<const RankInfo> ranks, const MachineConfig& m,
                                   bool hdf5_flavor) {
    SimResult result = baseline_result(ranks, kIorBpp);
    std::uint64_t max_reader = 0;
    for (const RankInfo& r : ranks) {
        max_reader = std::max(max_reader, r.num_particles * kIorBpp);
    }
    result.files.num_files = 1;
    PhaseRecorder rec(result, "simio.ior_shared_read");
    rec.add("shared_read", model_shared_read(m, static_cast<int>(ranks.size()),
                                             result.total_bytes, max_reader, hdf5_flavor)
                               .seconds);
    return result;
}

}  // namespace bat::simio
