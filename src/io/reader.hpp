#pragma once
// Two-phase parallel read pipeline (paper §IV, Fig 3), mirroring the write:
//
//   (a) all ranks read the Aggregation Tree metadata and locally compute
//       the read-aggregator assignment: with more ranks than leaf files,
//       aggregators are spread evenly through the rank space (as in the
//       write phase); with fewer ranks than files, contiguous blocks of
//       leaves go to each rank (neighboring leaves share an aggregator,
//       preserving the spatial locality the write phase established) — so
//       data can be read at much larger or smaller core counts than it was
//       written with;
//   (b) each rank determines which leaves overlap its bounds and sends ONE
//       coalesced request per distinct read aggregator, carrying all the
//       leaf ids it needs from that rank (O(aggregators) messages instead
//       of O(leaves));
//   (c) read aggregators run a client–server loop on nonblocking MPI-style
//       calls, serving until a nonblocking barrier confirms every rank has
//       its responses; self-queries run locally after the loop.
//
// (b) and (c) are io_detail::query_round (io/read_protocol.hpp), the same
// round the in situ DataService runs; read_particles adds (a) and the
// read.* phase timings.

#include <filesystem>

#include "core/metadata.hpp"
#include "core/particles.hpp"
#include "vmpi/comm.hpp"

namespace bat {

class LeafFileCache;
class ThreadPool;

struct ReaderConfig {
    /// Pool that served leaves are planned and written on while the comm
    /// thread keeps the round moving. nullptr = serve serially on the comm
    /// thread; results are byte-identical either way.
    ThreadPool* pool = nullptr;
    /// Leaf-file cache reused across collective reads; nullptr = the
    /// process-global LeafFileCache.
    LeafFileCache* cache = nullptr;
};

struct ReadPhaseTimings {
    double metadata = 0;  // reading + parsing the metadata file
    double request = 0;   // overlap computation + coalesced query sends
    double serve = 0;     // server loop (incl. file reads + transfers and
                          // planning the self-queries in idle spins)
    double merge = 0;     // zero-copy ingestion of buffered responses
    double local = 0;     // writing the self-queried points after them

    double total() const { return metadata + request + serve + merge + local; }

    /// Component-wise max (slowest rank per phase, for benchmark reports).
    static ReadPhaseTimings max(const ReadPhaseTimings& a, const ReadPhaseTimings& b);
};

struct ReadResult {
    ParticleSet particles;
    ReadPhaseTimings timings;
    std::uint64_t bytes_read = 0;  // file bytes this rank read as aggregator
};

/// Collective: every rank reads the particles inside `my_bounds`, taken
/// half-open ([lo, hi) per axis) so that non-overlapping restart
/// decompositions partition the particles exactly once.
ReadResult read_particles(vmpi::Comm& comm, const std::filesystem::path& metadata_path,
                          const Box& my_bounds, const ReaderConfig& config = {});

/// The read-aggregator assignment rule (§IV-A), exposed for tests:
/// returns the rank assigned to each leaf file.
std::vector<int> assign_read_aggregators(int num_leaves, int nranks);

}  // namespace bat
