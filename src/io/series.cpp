#include "io/series.hpp"

#include "obs/metrics.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/mmap_file.hpp"

namespace bat {

namespace {
constexpr std::uint32_t kSeriesMagic = 0x53544142;  // "BATS"
constexpr std::uint32_t kSeriesVersion = 1;
}  // namespace

std::vector<std::byte> TimeSeries::to_bytes() const {
    BufferWriter w;
    w.write(kSeriesMagic);
    w.write(kSeriesVersion);
    w.write(static_cast<std::uint32_t>(timesteps.size()));
    for (const auto& [timestep, file] : timesteps) {
        w.write(static_cast<std::int32_t>(timestep));
        w.write_string(file);
    }
    return w.take();
}

TimeSeries TimeSeries::from_bytes(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    BAT_CHECK_MSG(r.read<std::uint32_t>() == kSeriesMagic, "not a BAT series manifest");
    BAT_CHECK_MSG(r.read<std::uint32_t>() == kSeriesVersion,
                  "unsupported series manifest version");
    TimeSeries series;
    const auto count = r.read_count<std::uint32_t>(8);  // timestep + name length
    series.timesteps.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto timestep = r.read<std::int32_t>();
        series.timesteps.emplace_back(timestep, r.read_string());
    }
    return series;
}

void TimeSeries::save(const std::filesystem::path& path) const {
    write_file(path, to_bytes());
}

TimeSeries TimeSeries::load(const std::filesystem::path& path) {
    return from_bytes(read_file(path));
}

std::size_t TimeSeries::index_of(int timestep) const {
    for (std::size_t i = 0; i < timesteps.size(); ++i) {
        if (timesteps[i].first == timestep) {
            return i;
        }
    }
    BAT_FAIL("timestep " << timestep << " not in series");
}

SeriesWriter::SeriesWriter(WriterConfig base) : base_(std::move(base)) {
    manifest_path_ = base_.directory / (base_.basename + ".batseries");
}

WriteResult SeriesWriter::write_timestep(vmpi::Comm& comm, int timestep,
                                         const ParticleSet& local,
                                         const Box& local_bounds) {
    BAT_CHECK_MSG(series_.timesteps.empty() || series_.timesteps.back().first < timestep,
                  "timesteps must be written in increasing order");
    WriterConfig config = base_;
    config.basename = base_.basename + "_t" + std::to_string(timestep);
    const WriteResult result = write_particles(comm, local, local_bounds, config, &plan_);
    series_.timesteps.emplace_back(timestep, result.metadata_path.filename().string());
    return result;
}

std::filesystem::path SeriesWriter::finalize(vmpi::Comm& comm) const {
    if (comm.rank() == 0) {
        series_.save(manifest_path_);
        // The manifest hits disk like any leaf or .batmeta file; leaving it
        // out of the byte accounting inflates per-step byte gates.
        manifest_bytes_ = std::filesystem::file_size(manifest_path_);
        auto& metrics = obs::MetricsRegistry::global();
        metrics.counter("write.bytes_written")
            .add(static_cast<std::int64_t>(manifest_bytes_));
        metrics.counter("write.manifest_bytes")
            .add(static_cast<std::int64_t>(manifest_bytes_));
    }
    comm.barrier();
    return manifest_path_;
}

SeriesReader::SeriesReader(const std::filesystem::path& manifest_path)
    : dir_(manifest_path.parent_path()), series_(TimeSeries::load(manifest_path)) {}

Dataset SeriesReader::open(std::size_t index) const {
    BAT_CHECK(index < series_.timesteps.size());
    return Dataset(dir_ / series_.timesteps[index].second);
}

Dataset SeriesReader::open_timestep(int timestep) const {
    return open(series_.index_of(timestep));
}

}  // namespace bat
