#include "capi/bat_c.h"

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/dataset.hpp"
#include "core/particles.hpp"
#include "io/writer.hpp"
#include "util/check.hpp"

using namespace bat;

struct bat_io_s {
    WriterConfig config;
    std::optional<Box> bounds;
    std::vector<float> positions;
    std::vector<std::string> attr_names;
    std::vector<std::vector<double>> attrs;
    std::string last_error;
    std::string metadata_path;
};

struct bat_dataset_s {
    explicit bat_dataset_s(const char* metadata_path) : dataset(metadata_path) {}

    Dataset dataset;
    std::string last_error;
};

namespace {

template <typename F>
int guarded(bat_io* io, F&& f) {
    try {
        f();
        return BAT_OK;
    } catch (const std::exception& e) {
        if (io != nullptr) {
            io->last_error = e.what();
        }
        return BAT_ERR;
    }
}

}  // namespace

extern "C" {

bat_io* bat_io_create(void) {
    auto* io = new bat_io_s;
    io->config.directory = ".";
    io->config.basename = "particles";
    return io;
}

void bat_io_destroy(bat_io* io) { delete io; }

const char* bat_io_last_error(const bat_io* io) {
    return io != nullptr ? io->last_error.c_str() : "null handle";
}

int bat_io_set_output(bat_io* io, const char* directory, const char* basename) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr && directory != nullptr && basename != nullptr);
        io->config.directory = directory;
        io->config.basename = basename;
    });
}

int bat_io_set_strategy(bat_io* io, const char* strategy) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr && strategy != nullptr);
        const std::string s = strategy;
        if (s == "adaptive") {
            io->config.strategy = AggStrategy::adaptive;
        } else if (s == "aug") {
            io->config.strategy = AggStrategy::aug;
        } else if (s == "file-per-process" || s == "fpp") {
            io->config.strategy = AggStrategy::file_per_process;
        } else {
            BAT_FAIL("unknown strategy '" << s << "'");
        }
    });
}

int bat_io_set_target_size(bat_io* io, uint64_t bytes) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr && bytes > 0);
        io->config.tree.target_file_size = bytes;
    });
}

int bat_io_set_bounds(bat_io* io, const float lower[3], const float upper[3]) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr && lower != nullptr && upper != nullptr);
        io->bounds = Box({lower[0], lower[1], lower[2]}, {upper[0], upper[1], upper[2]});
    });
}

int bat_io_set_positions(bat_io* io, const float* xyz, uint64_t count) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr && (xyz != nullptr || count == 0));
        io->positions.assign(xyz, xyz + 3 * count);
        io->attr_names.clear();
        io->attrs.clear();
    });
}

int bat_io_add_attribute(bat_io* io, const char* name, const double* values) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr && name != nullptr);
        const std::size_t n = io->positions.size() / 3;
        BAT_CHECK(values != nullptr || n == 0);
        io->attr_names.emplace_back(name);
        io->attrs.emplace_back(values, values + n);
    });
}

int bat_io_commit(bat_io* io) {
    return guarded(io, [&] {
        BAT_CHECK(io != nullptr);
        ParticleSet set(io->attr_names);
        const std::size_t n = io->positions.size() / 3;
        set.resize(n);
        std::copy(io->positions.begin(), io->positions.end(), set.positions_mut().begin());
        for (std::size_t a = 0; a < io->attrs.size(); ++a) {
            BAT_CHECK_MSG(io->attrs[a].size() == n, "attribute size mismatch");
            std::copy(io->attrs[a].begin(), io->attrs[a].end(), set.attr_mut(a).begin());
        }
        const Box bounds = io->bounds.value_or(set.bounds());
        const WriteResult result =
            write_particles_serial(std::span(&set, 1), std::span(&bounds, 1), io->config);
        io->metadata_path = result.metadata_path.string();
        io->positions.clear();
        io->attr_names.clear();
        io->attrs.clear();
    });
}

const char* bat_io_metadata_path(const bat_io* io) {
    return io != nullptr ? io->metadata_path.c_str() : "";
}

bat_dataset* bat_dataset_open(const char* metadata_path) {
    if (metadata_path == nullptr) {
        return nullptr;
    }
    try {
        return new bat_dataset_s(metadata_path);
    } catch (const std::exception&) {
        return nullptr;
    }
}

void bat_dataset_close(bat_dataset* ds) { delete ds; }

const char* bat_dataset_last_error(const bat_dataset* ds) {
    return ds != nullptr ? ds->last_error.c_str() : "null handle";
}

uint64_t bat_dataset_num_particles(const bat_dataset* ds) {
    return ds != nullptr ? ds->dataset.num_particles() : 0;
}

uint32_t bat_dataset_num_attributes(const bat_dataset* ds) {
    return ds != nullptr ? static_cast<uint32_t>(ds->dataset.num_attrs()) : 0;
}

const char* bat_dataset_attribute_name(const bat_dataset* ds, uint32_t index) {
    if (ds == nullptr || index >= ds->dataset.num_attrs()) {
        return nullptr;
    }
    return ds->dataset.attr_names()[index].c_str();
}

int bat_dataset_attribute_range(const bat_dataset* ds, uint32_t index, double* lo,
                                double* hi) {
    if (ds == nullptr || index >= ds->dataset.num_attrs() || lo == nullptr || hi == nullptr) {
        return BAT_ERR;
    }
    std::tie(*lo, *hi) = ds->dataset.attr_range(index);
    return BAT_OK;
}

uint64_t bat_dataset_query(bat_dataset* ds, const float lower[3], const float upper[3],
                           int attr_index, double attr_lo, double attr_hi,
                           float quality_lo, float quality_hi, bat_query_callback cb,
                           void* user) {
    if (ds == nullptr || cb == nullptr) {
        return UINT64_MAX;
    }
    try {
        BatQuery query;
        if (lower != nullptr && upper != nullptr) {
            query.box = Box({lower[0], lower[1], lower[2]}, {upper[0], upper[1], upper[2]});
        }
        if (attr_index >= 0) {
            query.attr_filters.push_back(
                {static_cast<std::uint32_t>(attr_index), attr_lo, attr_hi});
        }
        query.quality_lo = quality_lo;
        query.quality_hi = quality_hi;
        return ds->dataset.query(query, [&](Vec3 p, std::span<const double> attrs) {
            const float pos[3] = {p.x, p.y, p.z};
            cb(pos, attrs.data(), user);
        });
    } catch (const std::exception& e) {
        ds->last_error = e.what();
        return UINT64_MAX;
    }
}

}  // extern "C"
