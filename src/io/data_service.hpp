#pragma once
// Distributed in situ data access (paper §IV-B: "This query mechanism can
// also be leveraged to enable distributed data access for in situ
// analytics").
//
// A DataService wraps the client–server query round of the parallel read
// pipeline (io_detail::query_round, io/read_protocol.hpp) into a reusable
// collective: every rank acts as a data server for the leaf files assigned
// to it (read-aggregator assignment, §IV-A), and any rank can pose full BAT
// queries — spatial box, attribute filters, progressive quality windows —
// against the whole data set. Each
// query_round() is a collective in which every rank submits one query
// (possibly an empty one) and receives its matching particles; servers keep
// serving until a nonblocking barrier confirms that every rank got its
// responses.
//
// Requests are coalesced (one message per distinct aggregator per round)
// and, when a ThreadPool is supplied, leaf evaluations run on workers while
// the comm loop keeps progressing — results are byte-identical to the
// serial path because responses are keyed by request id and ingested in
// request order.

#include <filesystem>
#include <optional>

#include "core/bat_query.hpp"
#include "core/metadata.hpp"
#include "vmpi/comm.hpp"

namespace bat {

class LeafFileCache;
class ThreadPool;

class DataService {
public:
    /// Collective: every rank of `comm` constructs the service against the
    /// same metadata file. `pool` (optional) serves leaf queries on worker
    /// threads; `cache` (optional) overrides the process-global leaf-file
    /// cache.
    DataService(vmpi::Comm& comm, const std::filesystem::path& metadata_path,
                ThreadPool* pool = nullptr, LeafFileCache* cache = nullptr);

    const Metadata& metadata() const { return meta_; }

    /// Collective: run one query round. Ranks that want nothing this round
    /// pass std::nullopt. Returns this rank's matching particles (in file
    /// attribute order).
    ParticleSet query_round(const std::optional<BatQuery>& query);

    /// Leaves this rank serves.
    const std::vector<int>& served_leaves() const { return my_leaves_; }

private:
    vmpi::Comm& comm_;
    std::filesystem::path dir_;
    Metadata meta_;
    ThreadPool* pool_;
    LeafFileCache* cache_;
    std::vector<int> leaf_aggregator_;  // per leaf
    std::vector<int> my_leaves_;
};

}  // namespace bat
