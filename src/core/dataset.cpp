#include "core/dataset.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bat {

Dataset::Dataset(const std::filesystem::path& metadata_path)
    : dir_(metadata_path.parent_path()), meta_(Metadata::load(metadata_path)) {}

Box Dataset::bounds() const {
    Box b;
    for (const MetaLeaf& leaf : meta_.leaves) {
        b.extend(leaf.bounds);
    }
    return b;
}

std::size_t Dataset::attr_index(const std::string& name) const {
    const auto it = std::find(meta_.attr_names.begin(), meta_.attr_names.end(), name);
    BAT_CHECK_MSG(it != meta_.attr_names.end(), "unknown attribute '" << name << "'");
    return static_cast<std::size_t>(it - meta_.attr_names.begin());
}

const BatFile& Dataset::leaf_file(int leaf_id) {
    BAT_CHECK(leaf_id >= 0 && static_cast<std::size_t>(leaf_id) < meta_.leaves.size());
    auto it = files_.find(leaf_id);
    if (it == files_.end()) {
        auto file = std::make_unique<BatFile>(
            dir_ / meta_.leaves[static_cast<std::size_t>(leaf_id)].file);
        // Every point is handed out under the metadata's schema.
        BAT_CHECK_MSG(file->attr_names() == meta_.attr_names,
                      "leaf " << leaf_id << " attributes differ from the metadata's");
        it = files_.emplace(leaf_id, std::move(file)).first;
    }
    return *it->second;
}

std::uint64_t Dataset::query(const BatQuery& query, const QueryCallback& cb,
                             QueryStats* stats) {
    // query_bat accumulates into `stats`, so one struct sums the whole
    // multi-leaf sweep — and successive calls on the same struct.
    std::uint64_t emitted = 0;
    for (int leaf : meta_.query_leaves(query.box, query.attr_filters)) {
        emitted += query_bat(leaf_file(leaf), query, cb, stats);
    }
    return emitted;
}

ParticleSet Dataset::collect(const BatQuery& query, QueryStats* stats) {
    // Open leaves stay mapped for the Dataset's lifetime, so every plan
    // can be kept until the result, sized once, is written.
    std::vector<QueryPlan> plans;
    std::size_t total = 0;
    for (int leaf : meta_.query_leaves(query.box, query.attr_filters)) {
        plans.push_back(plan_bat(leaf_file(leaf), query, stats));
        total += plans.back().count();
    }
    ParticleSet out(meta_.attr_names);
    out.resize(total);
    std::size_t at = 0;
    for (const QueryPlan& plan : plans) {
        plan.write_into(out, at);
        at += plan.count();
    }
    return out;
}

}  // namespace bat
