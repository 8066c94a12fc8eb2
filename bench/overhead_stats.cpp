// Reproduces the paper's §VI-B memory-overhead result: "By restricting the
// bitmap index sizes and avoiding duplication for LOD particles, we achieve
// low memory overhead for our layout, requiring just 0.9% additional
// memory to store."
//
// Builds real BATs over Coal Boiler and Dam Break snapshots at several
// aggregator-file sizes and reports file size vs raw particle payload,
// plus where the overhead goes (tree nodes, bitmap IDs, dictionary,
// alignment padding).

#include "bench_common.hpp"
#include "core/bat_file.hpp"
#include "test_output_free.hpp"
#include "workloads/boiler.hpp"
#include "workloads/dambreak.hpp"

using namespace bat;
using namespace bat::bench;

namespace {

void report(const char* label, ParticleSet particles) {
    const std::uint64_t raw = particles.payload_bytes();
    const std::size_t nattrs = particles.num_attrs();
    const BatData bat = build_bat(std::move(particles), BatConfig{});
    const std::vector<std::byte> bytes = serialize_bat(bat);
    const BatSizeStats stats = bat_size_stats(bat, bytes.size());

    // Attribute the overhead.
    std::uint64_t node_bytes = bat.shallow_nodes.size() * sizeof(ShallowNode);
    std::uint64_t id_bytes = bat.shallow_nodes.size() * nattrs * 2;
    std::uint64_t align_bytes = 0;
    for (const Treelet& t : bat.treelets) {
        node_bytes += t.nodes.size() * sizeof(TreeletNode);
        id_bytes += t.nodes.size() * nattrs * 2;
    }
    align_bytes = stats.overhead_bytes() > node_bytes + id_bytes
                      ? stats.overhead_bytes() - node_bytes - id_bytes
                      : 0;

    std::printf("%-28s %9.1f MB raw -> %9.1f MB file  overhead %5.2f%%  "
                "(nodes %.2f%%, bitmap IDs %.2f%%, dict+align+hdr %.2f%%)\n",
                label, static_cast<double>(raw) / (1 << 20),
                static_cast<double>(bytes.size()) / (1 << 20),
                100.0 * stats.overhead_fraction(),
                100.0 * static_cast<double>(node_bytes) / static_cast<double>(raw),
                100.0 * static_cast<double>(id_bytes) / static_cast<double>(raw),
                100.0 * static_cast<double>(align_bytes) / static_cast<double>(raw));
}

}  // namespace

int main() {
    const double scale = bench_scale();
    std::printf("=== §VI-B: BAT layout memory overhead (paper: ~0.9%%) ===\n");

    BoilerConfig boiler;
    boiler.particles_at_start = static_cast<std::uint64_t>(4'600'000 * scale);
    boiler.particles_at_end = static_cast<std::uint64_t>(41'500'000 * scale);
    report("boiler t=1501", make_boiler_particles(boiler, 1501));
    report("boiler t=3501", make_boiler_particles(boiler, 3501));

    DamBreakConfig dam;
    dam.num_particles = static_cast<std::uint64_t>(2'000'000 * scale);
    report("dambreak 2M t=0", make_dambreak_particles(dam, 0));
    report("dambreak 2M t=2001", make_dambreak_particles(dam, 2001));
    return 0;
}
