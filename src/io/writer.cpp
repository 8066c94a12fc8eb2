#include "io/writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "core/bat_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace bat {

namespace {

constexpr int kTagData = 1;

std::string leaf_file_name(const std::string& basename, int leaf_id) {
    return basename + "_" + std::to_string(leaf_id) + ".bat";
}

/// Bucket edges for the transfer message-size histogram: powers of four
/// from 1 KiB to 1 GiB.
std::vector<double> transfer_size_bounds() {
    std::vector<double> bounds;
    for (double b = 1024.0; b <= 1024.0 * 1024.0 * 1024.0; b *= 4.0) {
        bounds.push_back(b);
    }
    return bounds;
}

/// Bucket edges for the delta-chain-length histogram (steps back the oldest
/// referenced treelet lives; bounded by the keyframe interval).
std::vector<double> chain_len_bounds() { return {1, 2, 4, 8, 16, 32}; }

/// Per-leaf aggregation duty sent to an aggregator rank.
struct LeafDuty {
    int leaf_id = -1;
    std::vector<std::pair<int, std::uint64_t>> senders;  // (rank, particle count)
    std::uint64_t total_particles = 0;
};

/// Assignment message scattered from rank 0 to each rank. The counts are
/// always this step's, also when rank 0 reused the plan's aggregation.
struct Assignment {
    int my_leaf = -1;          // leaf this rank's data belongs to (-1: none)
    int my_aggregator = -1;    // destination rank for this rank's data
    int num_leaves = 0;
    std::uint8_t reused = 0;   // 1: rank 0 kept the plan's aggregation
    std::vector<LeafDuty> duties;  // leaves this rank aggregates

    std::vector<std::byte> to_bytes() const {
        BufferWriter w;
        w.write(std::int32_t{my_leaf});
        w.write(std::int32_t{my_aggregator});
        w.write(std::int32_t{num_leaves});
        w.write(reused);
        w.write(static_cast<std::uint32_t>(duties.size()));
        for (const LeafDuty& duty : duties) {
            w.write(std::int32_t{duty.leaf_id});
            w.write(duty.total_particles);
            w.write(static_cast<std::uint32_t>(duty.senders.size()));
            for (const auto& [rank, count] : duty.senders) {
                w.write(std::int32_t{rank});
                w.write(count);
            }
        }
        return w.take();
    }

    static Assignment from_bytes(std::span<const std::byte> bytes) {
        BufferReader r(bytes);
        Assignment a;
        a.my_leaf = r.read<std::int32_t>();
        a.my_aggregator = r.read<std::int32_t>();
        a.num_leaves = r.read<std::int32_t>();
        a.reused = r.read<std::uint8_t>();
        // A duty is at least leaf id + total + sender count; a sender is a
        // rank + count.
        a.duties.resize(r.read_count<std::uint32_t>(16));
        for (LeafDuty& duty : a.duties) {
            duty.leaf_id = r.read<std::int32_t>();
            duty.total_particles = r.read<std::uint64_t>();
            duty.senders.resize(r.read_count<std::uint32_t>(12));
            for (auto& [rank, count] : duty.senders) {
                rank = r.read<std::int32_t>();
                count = r.read<std::uint64_t>();
            }
        }
        return a;
    }
};

}  // namespace

namespace io_detail {

/// Carry-over of one leaf between steps: treelet content hashes plus the
/// physical location (file name + treelet index) of every treelet's bytes.
/// References are flattened — treelet_file[t] always names the file that
/// physically holds the block, never an intermediate delta file.
struct LeafDeltaState {
    std::vector<std::uint64_t> hashes;        // per treelet, multiply-xorshift
    std::vector<std::uint32_t> num_points;    // per treelet
    std::vector<std::string> treelet_file;    // per treelet, physical holder
    std::vector<std::uint32_t> treelet_index; // per treelet, index in holder
    std::vector<int> ages;  // steps since the treelet was written inline
    /// File recorded in the metadata for this leaf last step (its own file,
    /// or an older one when the whole leaf was unchanged) + its base table,
    /// and the non-treelet sections needed to prove a whole-file match.
    std::string last_file;
    std::vector<std::string> last_file_bases;
    std::vector<std::pair<double, double>> attr_ranges;
    std::vector<BinEdges> attr_edges;
    std::vector<ShallowNode> shallow_nodes;
    std::vector<std::uint32_t> shallow_bitmaps;
};

/// Everything write_particles carries from one step to the next.
struct WritePlanState {
    std::size_t steps = 0;  // steps written through this plan
    AggStrategy strategy = AggStrategy::adaptive;
    std::vector<RankInfo> infos;  // rank 0: the previous step's gathered infos
    Aggregation agg;              // rank 0: the plan's aggregation
    std::map<int, LeafDeltaState> leaves;  // keyed by leaf id (my duties)
    /// Storage every leaf of every step serializes into: a steady series
    /// reuses it instead of allocating and freeing a file image per dump.
    std::vector<std::byte> image;
};

}  // namespace io_detail

WritePlan::WritePlan() : state_(std::make_unique<io_detail::WritePlanState>()) {}
WritePlan::~WritePlan() = default;
WritePlan::WritePlan(WritePlan&&) noexcept = default;
WritePlan& WritePlan::operator=(WritePlan&&) noexcept = default;

const char* to_string(AggStrategy s) {
    switch (s) {
        case AggStrategy::adaptive: return "adaptive";
        case AggStrategy::aug: return "aug";
        case AggStrategy::file_per_process: return "file-per-process";
    }
    return "?";
}

WritePhaseTimings& WritePhaseTimings::operator+=(const WritePhaseTimings& o) {
    gather += o.gather;
    tree_build += o.tree_build;
    scatter += o.scatter;
    transfer += o.transfer;
    bat_build += o.bat_build;
    file_write += o.file_write;
    metadata += o.metadata;
    bat += o.bat;
    return *this;
}

WritePhaseTimings WritePhaseTimings::max(const WritePhaseTimings& a,
                                         const WritePhaseTimings& b) {
    WritePhaseTimings m;
    m.gather = std::max(a.gather, b.gather);
    m.tree_build = std::max(a.tree_build, b.tree_build);
    m.scatter = std::max(a.scatter, b.scatter);
    m.transfer = std::max(a.transfer, b.transfer);
    m.bat_build = std::max(a.bat_build, b.bat_build);
    m.file_write = std::max(a.file_write, b.file_write);
    m.metadata = std::max(a.metadata, b.metadata);
    m.bat = BatBuildTimings::max(a.bat, b.bat);
    return m;
}

Aggregation build_aggregation(std::span<const RankInfo> ranks, AggStrategy strategy,
                              const AggTreeConfig& tree_config, ThreadPool* pool) {
    switch (strategy) {
        case AggStrategy::adaptive:
            return build_agg_tree(ranks, tree_config, pool);
        case AggStrategy::aug: {
            AugConfig aug;
            aug.target_file_size = tree_config.target_file_size;
            aug.bytes_per_particle = tree_config.bytes_per_particle;
            return build_aug(ranks, aug);
        }
        case AggStrategy::file_per_process:
            return build_file_per_process(ranks);
    }
    BAT_FAIL("unknown aggregation strategy");
}

namespace {

/// Assign aggregators for a built aggregation: file-per-process writes from
/// the owning rank itself, the others spread aggregators over rank space.
void assign_strategy_aggregators(Aggregation& agg, AggStrategy strategy, int nranks) {
    if (strategy == AggStrategy::file_per_process) {
        for (AggLeaf& leaf : agg.leaves) {
            leaf.aggregator = leaf.ranks.front();
        }
    } else {
        agg.assign_aggregators(nranks);
    }
}

/// The metadata's summary of one built leaf (§III-D): counts, attribute
/// ranges and bin edges, and the root bitmaps.
LeafReport leaf_report(const BatData& bat, int leaf_id) {
    LeafReport report;
    report.leaf_id = leaf_id;
    report.num_particles = bat.particles.count();
    report.ranges = bat.attr_ranges;
    report.edges = bat.attr_edges;
    report.root_bitmaps.resize(bat.num_attrs());
    for (std::size_t a = 0; a < bat.num_attrs(); ++a) {
        report.root_bitmaps[a] = bat.root_bitmap(a);
    }
    return report;
}

/// Build and save the top-level metadata over `reports` (ordered by leaf
/// id) and add the file's size to `result.bytes_written`: the metadata file
/// is part of the written volume, and leaving it out inflates
/// effective-bandwidth numbers (Fig 5).
void save_metadata(const Aggregation& agg, const std::vector<std::string>& attr_names,
                   std::span<const LeafReport> reports, const WriterConfig& config,
                   WriteResult& result) {
    std::vector<std::string> files;
    files.reserve(agg.leaves.size());
    for (std::size_t i = 0; i < agg.leaves.size(); ++i) {
        files.push_back(leaf_file_name(config.basename, static_cast<int>(i)));
    }
    const Metadata meta = build_metadata(agg, attr_names, reports, files);
    result.metadata_path = config.directory / (config.basename + ".batmeta");
    meta.save(result.metadata_path);
    result.bytes_written += std::filesystem::file_size(result.metadata_path);
}

/// Rank 0: whether the plan's aggregation still fits this step's gathered
/// infos — the same strategy and rank count, and every rank with the same
/// bounds, the same empty/non-empty status and a count drift of at most
/// kMaxRankDrift against the previous step.
bool plan_fits(const io_detail::WritePlanState& state, std::span<const RankInfo> infos,
               AggStrategy strategy) {
    if (state.strategy != strategy || state.infos.size() != infos.size()) {
        return false;
    }
    for (std::size_t r = 0; r < infos.size(); ++r) {
        const RankInfo& prev = state.infos[r];
        const std::uint64_t pn = prev.num_particles;
        const std::uint64_t n = infos[r].num_particles;
        const double drift = pn > 0 ? std::abs(static_cast<double>(n) -
                                               static_cast<double>(pn)) /
                                          static_cast<double>(pn)
                                    : 0.0;
        if (!(prev.bounds == infos[r].bounds) || (pn > 0) != (n > 0) ||
            drift > kMaxRankDrift) {
            return false;
        }
    }
    return true;
}

/// Each duty's senders and totals come from this step's `infos`, never
/// from AggLeaf::num_particles, which is stale under a reused plan.
std::vector<vmpi::Bytes> make_assignments(const Aggregation& agg,
                                          std::span<const RankInfo> infos, int nranks,
                                          bool reused) {
    std::vector<Assignment> assignments(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        Assignment& a = assignments[static_cast<std::size_t>(r)];
        a.num_leaves = static_cast<int>(agg.leaves.size());
        a.reused = reused ? 1 : 0;
        a.my_leaf = agg.rank_to_leaf[static_cast<std::size_t>(r)];
        a.my_aggregator =
            a.my_leaf >= 0 ? agg.leaves[static_cast<std::size_t>(a.my_leaf)].aggregator : -1;
    }
    for (std::size_t leaf_id = 0; leaf_id < agg.leaves.size(); ++leaf_id) {
        const AggLeaf& leaf = agg.leaves[leaf_id];
        LeafDuty duty;
        duty.leaf_id = static_cast<int>(leaf_id);
        duty.senders.reserve(leaf.ranks.size());
        for (int r : leaf.ranks) {
            // Ranks without particles skip the transfer (paper §III-B).
            const std::uint64_t count = infos[static_cast<std::size_t>(r)].num_particles;
            if (count > 0) {
                duty.senders.emplace_back(r, count);
                duty.total_particles += count;
            }
        }
        assignments[static_cast<std::size_t>(leaf.aggregator)].duties.push_back(
            std::move(duty));
    }
    std::vector<vmpi::Bytes> blobs;
    blobs.reserve(assignments.size());
    for (const Assignment& a : assignments) {
        blobs.push_back(a.to_bytes());
    }
    return blobs;
}

}  // namespace

WriteResult write_particles(vmpi::Comm& comm, const ParticleSet& local,
                            const Box& local_bounds, const WriterConfig& config) {
    return write_particles(comm, local, local_bounds, config, nullptr);
}

WriteResult write_particles(vmpi::Comm& comm, const ParticleSet& local,
                            const Box& local_bounds, const WriterConfig& config,
                            WritePlan* plan) {
    WriteResult result;
    WritePhaseTimings& timings = result.timings;
    const int nranks = comm.size();
    const std::size_t nattrs = local.num_attrs();
    auto& metrics = obs::MetricsRegistry::global();
    io_detail::WritePlanState* state = plan != nullptr ? plan->state_.get() : nullptr;

    // Phase accounting: each obs::PhaseSpan both emits a trace span (when
    // tracing is on) and accumulates wall seconds into the corresponding
    // WritePhaseTimings field — the only bookkeeping path for Fig 6/10/12.

    // ---- (a) gather counts + bounds; build the aggregation on rank 0 ------
    // With a plan, rank 0 keeps the plan's aggregation when this step's
    // infos fit it (plan_fits) and rebuilds it otherwise; the decision
    // reaches every rank in its assignment. The plan must be passed on
    // every rank or on none.
    std::vector<RankInfo> infos;
    {
        obs::PhaseSpan span("write.gather", &timings.gather);
        infos = comm.gather(RankInfo{local_bounds, local.count()}, 0);
    }

    Aggregation agg_local;  // rank 0 without a plan
    Aggregation& agg = state != nullptr ? state->agg : agg_local;
    std::vector<vmpi::Bytes> assignment_blobs;
    {
        obs::PhaseSpan span("write.tree_build", &timings.tree_build);
        if (comm.rank() == 0) {
            const bool reuse = state != nullptr && plan_fits(*state, infos, config.strategy);
            if (reuse) {
                metrics.counter("write.plan_reused").add(1);
            } else {
                AggTreeConfig tree_config = config.tree;
                tree_config.bytes_per_particle = local.bytes_per_particle();
                agg = build_aggregation(infos, config.strategy, tree_config, config.pool);
                assign_strategy_aggregators(agg, config.strategy, nranks);
            }
            assignment_blobs = make_assignments(agg, infos, nranks, reuse);
            if (state != nullptr) {
                state->strategy = config.strategy;
                state->infos = std::move(infos);
            }
        }
    }

    // ---- (b) scatter assignments ------------------------------------------
    Assignment assignment;
    {
        obs::PhaseSpan span("write.scatter", &timings.scatter);
        assignment = Assignment::from_bytes(comm.scatterv(std::move(assignment_blobs), 0));
    }
    result.reused_plan = assignment.reused != 0;
    if (state != nullptr && !result.reused_plan) {
        // Replan: the leaf decomposition may have shifted, so the old
        // per-leaf hashes describe regions that no longer line up — drop
        // them and let this step repopulate from its full writes.
        state->leaves.clear();
    }
    result.num_leaves = assignment.num_leaves;
    result.my_leaf = assignment.my_leaf;

    // ---- (b') transfer particles to aggregators ---------------------------
    // Zero-copy path: each sender serializes once and the payload Bytes are
    // moved into the destination mailbox; aggregators pre-size one merged
    // set per leaf and deserialize every payload directly into its sender's
    // precomputed slot (no intermediate per-sender ParticleSet). Receives
    // are any-source so one slow sender cannot serialize the aggregator —
    // the fixed slot offsets keep the merged order (and thus the output
    // bytes) independent of arrival order. An aggregator's own particles
    // skip (de)serialization entirely and are copied in place.
    std::vector<std::pair<int, ParticleSet>> leaf_particles;  // (leaf_id, data)
    {
        obs::PhaseSpan span("write.transfer", &timings.transfer);
        const bool send_self =
            !local.empty() && assignment.my_aggregator == comm.rank();
        if (!local.empty()) {
            BAT_CHECK_MSG(assignment.my_aggregator >= 0,
                          "rank " << comm.rank() << " owns particles but has no aggregator");
            if (!send_self) {
                vmpi::Bytes payload = local.to_bytes();
                metrics.histogram("write.transfer_msg_bytes", transfer_size_bounds())
                    .record(static_cast<double>(payload.size()));
                comm.isend(assignment.my_aggregator, kTagData, std::move(payload));
            }
        }
        struct SenderSlot {
            std::size_t duty;    // index into leaf_particles
            std::size_t offset;  // particle slot within the merged set
            std::uint64_t count;
        };
        std::map<int, SenderSlot> slots;
        leaf_particles.reserve(assignment.duties.size());
        for (std::size_t d = 0; d < assignment.duties.size(); ++d) {
            const LeafDuty& duty = assignment.duties[d];
            ParticleSet merged(local.attr_names());
            merged.resize(duty.total_particles);
            std::size_t offset = 0;
            for (const auto& [sender, count] : duty.senders) {
                if (send_self && sender == comm.rank()) {
                    merged.copy_from(local, offset);
                    metrics.counter("write.transfer_bytes").add(local.payload_bytes());
                } else {
                    const bool inserted =
                        slots.emplace(sender, SenderSlot{d, offset, count}).second;
                    BAT_CHECK_MSG(inserted, "rank " << sender << " feeds two leaves");
                }
                offset += count;
            }
            BAT_CHECK(offset == duty.total_particles);
            leaf_particles.emplace_back(duty.leaf_id, std::move(merged));
        }
        const std::size_t expected = slots.size();
        for (std::size_t m = 0; m < expected; ++m) {
            int from = -1;
            const vmpi::Bytes payload = comm.recv(vmpi::kAnySource, kTagData, &from);
            const auto it = slots.find(from);
            BAT_CHECK_MSG(it != slots.end(), "unexpected transfer payload from rank " << from);
            const SenderSlot slot = it->second;
            slots.erase(it);
            metrics.counter("write.transfer_bytes").add(payload.size());
            const std::size_t got =
                leaf_particles[slot.duty].second.deserialize_into(payload, slot.offset);
            BAT_CHECK_MSG(got == slot.count, "sender " << from << " sent " << got << " particles, "
                                                        << slot.count << " expected");
        }
    }

    // ---- (c) build + write the BAT for each owned leaf --------------------
    // With a plan, the builder hashes every treelet; treelets whose hash,
    // point count, and physical location carry over from the previous step
    // are written as references into the prior step's file. A leaf whose
    // treelets are ALL clean (and whose attr table + shallow tree match)
    // skips its file entirely — the metadata points at the prior file.
    BatConfig bat_config = config.bat;
    bat_config.hash_treelets = state != nullptr;
    const bool keyframe = state != nullptr && state->steps++ % static_cast<std::size_t>(kKeyframeInterval) == 0;

    std::vector<LeafReport> my_reports;
    std::filesystem::create_directories(config.directory);
    std::vector<std::byte> one_shot;  // without a plan
    std::vector<std::byte>& image = state != nullptr ? state->image : one_shot;
    auto write_leaf = [&](const BatData& bat, const BatDeltaSpec* spec,
                          const std::string& file) {
        {
            obs::SpanScope serialize("write.serialize", "write");
            serialize_bat(bat, spec, image);
        }
        write_file(config.directory / file, image);
        result.bytes_written += image.size();
    };
    for (auto& [leaf_id, particles] : leaf_particles) {
        BatData bat;
        {
            obs::PhaseSpan span("write.bat_build", &timings.bat_build);
            bat = build_bat(std::move(particles), bat_config, config.pool, &timings.bat);
        }

        LeafReport report = leaf_report(bat, leaf_id);

        obs::PhaseSpan span("write.file_write", &timings.file_write);
        const std::string own_file = leaf_file_name(config.basename, leaf_id);
        if (state == nullptr) {
            write_leaf(bat, nullptr, own_file);
            my_reports.push_back(std::move(report));
            continue;
        }

        io_detail::LeafDeltaState& st = state->leaves[leaf_id];
        const std::size_t num_treelets = bat.treelets.size();
        const bool can_delta =
            !keyframe && !st.last_file.empty() && st.hashes.size() == num_treelets;
        BatDeltaSpec spec;
        spec.refs.resize(num_treelets);
        std::map<std::string, std::int32_t> base_ids;
        std::size_t clean = 0;
        std::uint64_t saved = 0;
        int max_age = 0;
        for (std::size_t t = 0; t < num_treelets; ++t) {
            const Treelet& tr = bat.treelets[t];
            if (can_delta && st.hashes[t] == tr.hash &&
                st.num_points[t] == tr.num_particles && !st.treelet_file[t].empty()) {
                const auto [it, inserted] = base_ids.emplace(
                    st.treelet_file[t], static_cast<std::int32_t>(spec.base_files.size()));
                if (inserted) {
                    spec.base_files.push_back(st.treelet_file[t]);
                }
                spec.refs[t] = DeltaRef{it->second, st.treelet_index[t]};
                saved +=
                    treelet_layout(tr.nodes.size(), tr.num_particles, nattrs).block_bytes();
                ++clean;
            }
        }

        const bool all_clean =
            can_delta && clean == num_treelets && st.attr_ranges == bat.attr_ranges &&
            st.attr_edges == bat.attr_edges && st.shallow_bitmaps == bat.shallow_bitmaps &&
            st.shallow_nodes.size() == bat.shallow_nodes.size() &&
            (st.shallow_nodes.empty() ||
             std::memcmp(st.shallow_nodes.data(), bat.shallow_nodes.data(),
                         st.shallow_nodes.size() * sizeof(ShallowNode)) == 0);
        if (all_clean) {
            // Nothing about the leaf changed: keep the prior step's file and
            // record it (plus its base table) in this step's metadata.
            report.file_override = st.last_file;
            report.delta_bases = st.last_file_bases;
            result.leaves_unchanged += 1;
            metrics.counter("write.leaves_unchanged").add(1);
            for (std::size_t t = 0; t < num_treelets; ++t) {
                max_age = std::max(max_age, ++st.ages[t]);
            }
        } else {
            write_leaf(bat, clean > 0 ? &spec : nullptr, own_file);

            st.hashes.resize(num_treelets);
            st.num_points.resize(num_treelets);
            st.treelet_file.resize(num_treelets);
            st.treelet_index.resize(num_treelets);
            st.ages.resize(num_treelets, 0);
            for (std::size_t t = 0; t < num_treelets; ++t) {
                const Treelet& tr = bat.treelets[t];
                st.hashes[t] = tr.hash;
                st.num_points[t] = tr.num_particles;
                if (spec.refs[t].base_file >= 0) {
                    max_age = std::max(max_age, ++st.ages[t]);
                } else {
                    st.treelet_file[t] = own_file;
                    st.treelet_index[t] = static_cast<std::uint32_t>(t);
                    st.ages[t] = 0;
                }
            }
            st.last_file = own_file;
            st.last_file_bases = spec.base_files;
            st.attr_ranges = bat.attr_ranges;
            st.attr_edges = bat.attr_edges;
            st.shallow_nodes = bat.shallow_nodes;
            st.shallow_bitmaps = bat.shallow_bitmaps;
            report.delta_bases = spec.base_files;
        }

        result.delta_treelets_clean += clean;
        result.delta_treelets_written += num_treelets - clean;
        result.delta_bytes_saved += saved;
        metrics.counter("write.delta_treelets_clean")
            .add(static_cast<std::int64_t>(clean));
        metrics.counter("write.delta_treelets_written")
            .add(static_cast<std::int64_t>(num_treelets - clean));
        metrics.counter("write.delta_bytes_saved").add(static_cast<std::int64_t>(saved));
        metrics.histogram("write.delta_chain_len", chain_len_bounds())
            .record(static_cast<double>(max_age + 1));
        my_reports.push_back(std::move(report));
    }

    // ---- (d) metadata on rank 0 -------------------------------------------
    obs::PhaseSpan metadata_span("write.metadata", &timings.metadata);
    BufferWriter reports_blob;
    reports_blob.write(static_cast<std::uint32_t>(my_reports.size()));
    for (const LeafReport& report : my_reports) {
        const auto bytes = report.to_bytes();
        reports_blob.write(static_cast<std::uint32_t>(bytes.size()));
        reports_blob.write_span(std::span<const std::byte>(bytes));
    }
    std::vector<vmpi::Bytes> gathered = comm.gatherv(reports_blob.take(), 0);
    result.metadata_path = config.directory / (config.basename + ".batmeta");
    if (comm.rank() == 0) {
        std::vector<LeafReport> reports;
        for (const vmpi::Bytes& blob : gathered) {
            BufferReader r(blob);
            const auto count = r.read<std::uint32_t>();
            for (std::uint32_t i = 0; i < count; ++i) {
                const auto len = r.read_count<std::uint32_t>(1);
                std::vector<std::byte> piece(len);
                r.read_into(std::span<std::byte>(piece));
                reports.push_back(LeafReport::from_bytes(piece));
            }
        }
        // Order reports by leaf id for build_metadata.
        std::sort(reports.begin(), reports.end(),
                  [](const LeafReport& a, const LeafReport& b) { return a.leaf_id < b.leaf_id; });
        save_metadata(agg, local.attr_names(), reports, config, result);
    }
    // Everyone learns the metadata path is ready.
    comm.barrier();
    metadata_span.close();

    metrics.counter("write.bytes_written").add(static_cast<std::int64_t>(result.bytes_written));
    metrics.counter("write.files").add(static_cast<std::int64_t>(my_reports.size()));
    obs::record_rank_value("write.bytes_written", result.bytes_written);
    obs::record_rank_value("write.files", my_reports.size());
    return result;
}

std::uint64_t recommend_target_size(std::uint64_t total_particles,
                                    std::uint64_t bytes_per_particle, int nranks) {
    BAT_CHECK(nranks > 0);
    BAT_CHECK(bytes_per_particle > 0);
    const double per_rank_bytes = static_cast<double>(total_particles) *
                                  static_cast<double>(bytes_per_particle) /
                                  static_cast<double>(nranks);
    // Aggregation factor by scale (paper: 1:1-4:1 at low core or particle
    // counts; 16:1 or higher at larger scales to avoid too many files).
    double factor = 2.0;
    if (nranks > 16384) {
        factor = 32.0;
    } else if (nranks > 4096) {
        factor = 16.0;
    } else if (nranks > 1024) {
        factor = 4.0;
    }
    const double want = std::max(1.0, per_rank_bytes * factor);
    // Round up to a power of two, clamped to a sane file-size window.
    std::uint64_t target = 1 << 20;
    while (target < want && target < (512ull << 20)) {
        target <<= 1;
    }
    return target;
}

WriteResult write_particles_serial(std::span<const ParticleSet> per_rank,
                                   std::span<const Box> rank_bounds,
                                   const WriterConfig& config) {
    BAT_CHECK(per_rank.size() == rank_bounds.size());
    BAT_CHECK(!per_rank.empty());
    WriteResult result;
    const int nranks = static_cast<int>(per_rank.size());

    std::vector<RankInfo> infos(per_rank.size());
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
        infos[r] = RankInfo{rank_bounds[r], per_rank[r].count()};
    }
    AggTreeConfig tree_config = config.tree;
    tree_config.bytes_per_particle = per_rank[0].bytes_per_particle();
    Aggregation agg = build_aggregation(infos, config.strategy, tree_config, config.pool);
    assign_strategy_aggregators(agg, config.strategy, nranks);
    result.num_leaves = static_cast<int>(agg.leaves.size());

    std::filesystem::create_directories(config.directory);
    std::vector<LeafReport> reports;
    for (std::size_t leaf_id = 0; leaf_id < agg.leaves.size(); ++leaf_id) {
        const AggLeaf& leaf = agg.leaves[leaf_id];
        ParticleSet merged(per_rank[0].attr_names());
        merged.reserve(leaf.num_particles);
        for (int r : leaf.ranks) {
            merged.append(per_rank[static_cast<std::size_t>(r)]);
        }
        BatData bat = build_bat(std::move(merged), config.bat, config.pool);
        const std::vector<std::byte> bytes = serialize_bat(bat);
        const std::string file = leaf_file_name(config.basename, static_cast<int>(leaf_id));
        write_file(config.directory / file, bytes);
        result.bytes_written += bytes.size();
        reports.push_back(leaf_report(bat, static_cast<int>(leaf_id)));
    }
    save_metadata(agg, per_rank[0].attr_names(), reports, config, result);
    return result;
}

}  // namespace bat
