#pragma once
// Time-series management. Simulations write one BAT data set per dump
// timestep (paper §VI evaluates whole time series); the SeriesWriter wraps
// the per-timestep pipeline and maintains a manifest file mapping timestep
// numbers to metadata files, which SeriesReader uses to open any timestep
// as a Dataset for postprocess analysis.

#include <filesystem>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "io/writer.hpp"

namespace bat {

/// Manifest of a written time series.
struct TimeSeries {
    /// (timestep, metadata file name relative to the manifest's directory),
    /// ascending by timestep.
    std::vector<std::pair<int, std::string>> timesteps;

    std::vector<std::byte> to_bytes() const;
    static TimeSeries from_bytes(std::span<const std::byte> bytes);
    void save(const std::filesystem::path& path) const;
    static TimeSeries load(const std::filesystem::path& path);

    /// Index of the entry with the given timestep; throws if absent.
    std::size_t index_of(int timestep) const;
};

/// Collective writer for a simulation's dump loop. Writes are incremental:
/// the writer carries a WritePlan across steps so slowly-evolving series
/// reuse the aggregation tree (while no rank drifts past kMaxRankDrift) and
/// write unchanged treelets as references into prior steps' files, with
/// every kKeyframeInterval-th step a full (all-inline) write to bound delta
/// chains.
class SeriesWriter {
public:
    /// `base.basename` becomes the series name; per-timestep outputs are
    /// named `<basename>_t<timestep>`.
    explicit SeriesWriter(WriterConfig base);

    /// Collective: write one timestep (same contract as write_particles).
    WriteResult write_timestep(vmpi::Comm& comm, int timestep, const ParticleSet& local,
                               const Box& local_bounds);

    /// Collective: write the series manifest (rank 0) and return its path.
    /// The manifest's size is accounted into the write.bytes_written and
    /// write.manifest_bytes metrics (everything the series puts on disk is
    /// measured).
    std::filesystem::path finalize(vmpi::Comm& comm) const;

    const TimeSeries& series() const { return series_; }
    const std::filesystem::path& manifest_path() const { return manifest_path_; }
    /// Bytes the manifest occupied when finalize last wrote it (rank 0).
    std::uint64_t manifest_bytes() const { return manifest_bytes_; }

private:
    WriterConfig base_;
    TimeSeries series_;
    std::filesystem::path manifest_path_;
    WritePlan plan_;
    mutable std::uint64_t manifest_bytes_ = 0;
};

/// Postprocess-side access to a written series.
class SeriesReader {
public:
    explicit SeriesReader(const std::filesystem::path& manifest_path);

    const TimeSeries& series() const { return series_; }
    std::size_t num_timesteps() const { return series_.timesteps.size(); }
    int timestep_at(std::size_t index) const { return series_.timesteps[index].first; }

    /// Open the data set for the entry at `index`.
    Dataset open(std::size_t index) const;
    /// Open the data set for a specific timestep number.
    Dataset open_timestep(int timestep) const;

private:
    std::filesystem::path dir_;
    TimeSeries series_;
};

}  // namespace bat
