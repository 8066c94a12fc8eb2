#pragma once
// Dataset: postprocess-side view of one written timestep — the top-level
// metadata plus lazily opened (mmapped) leaf BAT files — exposing the
// paper's §V visualization reads over the *whole* data set as if it were a
// single file: spatial box queries, attribute filtering, and progressive
// multiresolution reads, with leaf-level pruning through the Aggregation
// Tree metadata before any leaf file is touched.

#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "core/bat_file.hpp"
#include "core/bat_query.hpp"
#include "core/metadata.hpp"

namespace bat {

class Dataset {
public:
    /// Open from a metadata file written by the I/O pipeline.
    explicit Dataset(const std::filesystem::path& metadata_path);

    const Metadata& metadata() const { return meta_; }
    std::uint64_t num_particles() const { return meta_.total_particles(); }
    std::size_t num_attrs() const { return meta_.num_attrs(); }
    const std::vector<std::string>& attr_names() const { return meta_.attr_names; }
    std::pair<double, double> attr_range(std::size_t a) const {
        return meta_.global_ranges[a];
    }
    /// Union of all leaf bounds.
    Box bounds() const;

    /// Index of a named attribute; throws if absent.
    std::size_t attr_index(const std::string& name) const;

    /// Run a query across every matching leaf file; returns points emitted.
    /// Leaves are pruned through the metadata (spatially and by the
    /// global-range bitmaps) before being opened. Counts add into `stats`.
    std::uint64_t query(const BatQuery& query, const QueryCallback& cb,
                        QueryStats* stats = nullptr);

    /// Collect the matching points into a ParticleSet, in query() order.
    /// Counts add into `stats`.
    ParticleSet collect(const BatQuery& query, QueryStats* stats = nullptr);

    /// Leaf file handle (opened/mmapped on first use).
    const BatFile& leaf_file(int leaf_id);
    /// Number of leaf files currently open.
    std::size_t open_files() const { return files_.size(); }

private:
    std::filesystem::path dir_;
    Metadata meta_;
    std::map<int, std::unique_ptr<BatFile>> files_;
};

}  // namespace bat
