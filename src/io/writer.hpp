#pragma once
// Two-phase spatially aware adaptive write pipeline (paper §III, Fig 1).
//
// Every rank calls write_particles collectively with its local particles
// and domain bounds. The pipeline:
//   (a) gathers per-rank particle counts and bounds to rank 0, which builds
//       the Aggregation Tree (adaptive k-d, AUG baseline, or trivial
//       file-per-process) and assigns each leaf to an aggregator rank;
//   (b) scatters assignments; every rank sends its particles to its leaf's
//       aggregator with nonblocking sends;
//   (c) each aggregator builds the BAT over its leaf's particles and writes
//       it to an independent file;
//   (d) aggregators report per-attribute local ranges and root bitmaps to
//       rank 0, which populates and writes the top-level metadata file.

#include <filesystem>
#include <memory>
#include <string>

#include "core/agg_tree.hpp"
#include "core/aug.hpp"
#include "core/bat_builder.hpp"
#include "core/metadata.hpp"
#include "core/particles.hpp"
#include "vmpi/comm.hpp"

namespace bat {

enum class AggStrategy {
    adaptive,          // this paper: k-d tree over rank bounds (§III-A)
    aug,               // Kumar et al. 2019 adjustable uniform grid baseline
    file_per_process,  // one file per particle-owning rank
};

const char* to_string(AggStrategy s);

/// Incremental (delta) series writes, used only when a WritePlan is passed
/// to write_particles; one-shot writes are unaffected.
/// Rank 0 reuses the plan's aggregation tree and aggregator assignment when
/// no rank's particle count drifted by more than this fraction of its
/// previous count. Any rank whose bounds changed, whose empty/non-empty
/// status flipped, or whose count drifted more forces a full replan.
inline constexpr double kMaxRankDrift = 0.3;
/// Every kKeyframeInterval-th step of a plan (the first included) writes
/// full (all-inline) BAT files, bounding how far back a delta chain can
/// reach. Delta detection still runs so the next step has fresh hashes.
inline constexpr int kKeyframeInterval = 8;

struct WriterConfig {
    AggStrategy strategy = AggStrategy::adaptive;
    AggTreeConfig tree;  // target file size etc.; bytes_per_particle is
                         // overwritten from the particle schema
    BatConfig bat;
    std::filesystem::path directory;
    std::string basename = "particles";
    ThreadPool* pool = nullptr;  // parallelizes tree + BAT builds
};

/// Per-rank wall-clock seconds spent in each pipeline component (the
/// categories of the paper's Fig 6/10/12 breakdowns).
struct WritePhaseTimings {
    double gather = 0;      // counts/bounds gather
    double tree_build = 0;  // aggregation structure build (rank 0)
    double scatter = 0;     // assignment scatter
    double transfer = 0;    // particle transfer to aggregators
    double bat_build = 0;   // BAT construction on aggregators
    double file_write = 0;  // writing aggregator files
    double metadata = 0;    // top-level metadata population
    /// Sub-phase breakdown of bat_build (bat.* spans; not part of total()).
    BatBuildTimings bat;

    double total() const {
        return gather + tree_build + scatter + transfer + bat_build + file_write + metadata;
    }
    WritePhaseTimings& operator+=(const WritePhaseTimings& o);
    /// Component-wise max (for "slowest rank" reductions).
    static WritePhaseTimings max(const WritePhaseTimings& a, const WritePhaseTimings& b);
};

struct WriteResult {
    WritePhaseTimings timings;           // this rank's timings
    std::filesystem::path metadata_path; // valid on every rank
    std::uint64_t bytes_written = 0;     // bytes written by this rank: leaf
                                         // files + (on rank 0) the .batmeta
    int num_leaves = 0;                  // total output files
    int my_leaf = -1;                    // leaf this rank's data went to
    // Incremental-write effectiveness for this step (zero without a plan):
    bool reused_plan = false;            // rank 0 kept the plan's aggregation
    std::uint64_t delta_treelets_clean = 0;    // this rank, written by reference
    std::uint64_t delta_treelets_written = 0;  // this rank, written inline
    std::uint64_t delta_bytes_saved = 0;       // this rank, estimated
    int leaves_unchanged = 0;            // leaves whose file was not rewritten
};

namespace io_detail {
struct WritePlanState;
}

class WritePlan;

/// Collective: write one timestep. `local_bounds` is this rank's domain
/// box (not the tight particle bounds; ranks may own empty regions).
WriteResult write_particles(vmpi::Comm& comm, const ParticleSet& local,
                            const Box& local_bounds, const WriterConfig& config);

/// Collective, incremental: like write_particles, but carries state from
/// the previous step in `plan` (owned by the caller, one per rank, reused
/// across steps; pass it on every rank or on none). Rank 0 still gathers
/// every rank's count and bounds; when they fit the plan (kMaxRankDrift) it
/// keeps the cached aggregation tree and aggregator assignment instead of
/// rebuilding them, and scatters assignments carrying this step's counts.
/// Outside keyframes (kKeyframeInterval), unchanged treelets are written as
/// references into the prior step's files (see bat_file.hpp). A null plan
/// degrades to the one-shot path.
WriteResult write_particles(vmpi::Comm& comm, const ParticleSet& local,
                            const Box& local_bounds, const WriterConfig& config,
                            WritePlan* plan);

/// Per-rank carry-over state of an incremental write series: the step
/// count, rank 0's previous rank infos and aggregation, and per-leaf
/// treelet content hashes + physical treelet locations. Opaque; create one
/// per rank and pass it to every step's write_particles.
class WritePlan {
public:
    WritePlan();
    ~WritePlan();
    WritePlan(WritePlan&&) noexcept;
    WritePlan& operator=(WritePlan&&) noexcept;

private:
    friend WriteResult write_particles(vmpi::Comm&, const ParticleSet&, const Box&,
                                       const WriterConfig&, WritePlan*);
    std::unique_ptr<io_detail::WritePlanState> state_;
};

/// Build the aggregation structure for a strategy (exposed for benchmarks
/// and the performance model, which run it over full-scale rank metadata).
Aggregation build_aggregation(std::span<const RankInfo> ranks, AggStrategy strategy,
                              const AggTreeConfig& tree_config, ThreadPool* pool = nullptr);

/// Recommend a target file size from the workload (paper §VI-A2 guidance
/// and §VII future work, "automatically selecting the target size based on
/// the particle count and size using the results of our evaluation"):
/// roughly 1:1-4:1 aggregation factors at low core/particle counts, 16:1 or
/// higher at larger scales, increased correspondingly when particles are
/// added over the run. Returns a power-of-two byte count.
std::uint64_t recommend_target_size(std::uint64_t total_particles,
                                    std::uint64_t bytes_per_particle, int nranks);

/// Serial (single-process) writer: runs the same aggregation + BAT-build +
/// metadata code path over a globally available particle set partitioned
/// into per-rank pieces. Used by visualization benchmarks and examples to
/// produce data sets "written at N ranks" without running N threads.
WriteResult write_particles_serial(std::span<const ParticleSet> per_rank,
                                   std::span<const Box> rank_bounds,
                                   const WriterConfig& config);

}  // namespace bat
