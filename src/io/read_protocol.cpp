#include "io/read_protocol.hpp"

#include <cstring>
#include <thread>
#include <utility>

#include "core/particles.hpp"
#include "obs/trace.hpp"
#include "sched/sched.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"

namespace bat::io_detail {

namespace {

void write_query(BufferWriter& w, const BatQuery& query) {
    w.write(static_cast<std::uint8_t>(query.box.has_value()));
    if (query.box) {
        w.write(query.box->lower.x);
        w.write(query.box->lower.y);
        w.write(query.box->lower.z);
        w.write(query.box->upper.x);
        w.write(query.box->upper.y);
        w.write(query.box->upper.z);
    }
    w.write(static_cast<std::uint32_t>(query.attr_filters.size()));
    for (const AttrFilter& f : query.attr_filters) {
        w.write(f.attr);
        w.write(f.lo);
        w.write(f.hi);
    }
    w.write(query.quality_lo);
    w.write(query.quality_hi);
    w.write(static_cast<std::uint8_t>(query.inclusive_upper));
}

BatQuery read_query(BufferReader& r) {
    BatQuery query;
    if (r.read<std::uint8_t>() != 0) {
        Box box;
        box.lower.x = r.read<float>();
        box.lower.y = r.read<float>();
        box.lower.z = r.read<float>();
        box.upper.x = r.read<float>();
        box.upper.y = r.read<float>();
        box.upper.z = r.read<float>();
        query.box = box;
    }
    query.attr_filters.resize(
        r.read_count<std::uint32_t>(sizeof(std::uint32_t) + 2 * sizeof(double)));
    for (AttrFilter& f : query.attr_filters) {
        f.attr = r.read<std::uint32_t>();
        f.lo = r.read<double>();
        f.hi = r.read<double>();
    }
    query.quality_lo = r.read<float>();
    query.quality_hi = r.read<float>();
    query.inclusive_upper = r.read<std::uint8_t>() != 0;
    return query;
}

}  // namespace

vmpi::Bytes encode_request(const LeafRequest& req) {
    BufferWriter w;
    w.write(req.seq);
    w.write(req.ctx.trace_id);
    w.write(req.ctx.origin_rank);
    w.write(req.ctx.seq);
    w.write(static_cast<std::uint32_t>(req.leaves.size()));
    w.write_span(std::span<const std::int32_t>(req.leaves));
    write_query(w, req.query);
    return w.take();
}

LeafRequest decode_request(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    LeafRequest req;
    req.seq = r.read<std::uint32_t>();
    req.ctx.trace_id = r.read<std::uint64_t>();
    req.ctx.origin_rank = r.read<std::int32_t>();
    req.ctx.seq = r.read<std::uint32_t>();
    req.leaves.resize(r.read_count<std::uint32_t>(sizeof(std::int32_t)));
    r.read_into(std::span<std::int32_t>(req.leaves));
    req.query = read_query(r);
    BAT_CHECK_MSG(r.remaining() == 0, "trailing bytes in leaf request");
    return req;
}

ResponseView decode_response(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    ResponseView view;
    view.seq = r.read<std::uint32_t>();
    const std::size_t num_parts = r.read_count<std::uint32_t>(sizeof(std::uint64_t));
    std::vector<std::uint64_t> lengths(num_parts);
    r.read_into(std::span<std::uint64_t>(lengths));
    view.parts.reserve(num_parts);
    std::size_t at = r.pos();
    for (const std::uint64_t len : lengths) {
        BAT_CHECK_MSG(len <= bytes.size() - at, "response part past the payload");
        view.parts.push_back(bytes.subspan(at, len));
        at += len;
    }
    BAT_CHECK_MSG(at == bytes.size(), "trailing bytes in leaf response");
    return view;
}

std::uint32_t peek_seq(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    return r.read<std::uint32_t>();
}

std::size_t merge_responses(ParticleSet& out, std::span<const vmpi::Bytes> payloads,
                            std::span<const std::size_t> leaves, std::size_t tail) {
    if (sched::maybe_active()) {
        // The merged result buffer is rank-local by design; the annotation
        // catches any future schedule where two threads merge into one set.
        sched::note_access(&out, "read.merged_particles", /*is_write=*/true);
    }
    std::vector<ResponseView> views;
    views.reserve(payloads.size());
    const std::size_t particle_bytes = 3 * sizeof(float) + out.num_attrs() * sizeof(double);
    std::uint64_t total = 0;
    BAT_CHECK(leaves.size() == payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        views.push_back(decode_response(payloads[i]));
        // A missing part would silently drop that leaf's particles.
        BAT_CHECK_MSG(views.back().parts.size() == leaves[i],
                      "response carries " << views.back().parts.size() << " parts for a "
                                          << leaves[i] << "-leaf request");
        for (const std::span<const std::byte> part : views.back().parts) {
            if (part.empty()) {
                continue;
            }
            // Each part leads with its u64 particle count (ParticleSet wire
            // format); summing them lets us size the result once. A count
            // the part's bytes cannot hold is rejected before the resize.
            total += BufferReader(part).read_count<std::uint64_t>(particle_bytes);
        }
    }
    std::size_t at = out.count();
    out.resize(at + total + tail);
    for (const ResponseView& view : views) {
        for (const std::span<const std::byte> part : view.parts) {
            if (part.empty()) {
                continue;
            }
            at += out.deserialize_into(part, at);
        }
    }
    return at;
}

LeafServer::LeafServer(vmpi::Comm& comm, int request_tag, int response_tag,
                       ThreadPool* pool, std::span<const std::string> attr_names,
                       OpenLeafFn open_leaf)
    : comm_(comm),
      rank_(comm.rank()),
      request_tag_(request_tag),
      response_tag_(response_tag),
      pool_(pool != nullptr && pool->num_threads() > 0 ? pool : nullptr),
      attr_names_(attr_names),
      open_leaf_(std::move(open_leaf)) {
    if (pool_ != nullptr) {
        group_.emplace(*pool_);
    }
}

void LeafServer::start_job(int src, const vmpi::Bytes& payload) {
    LeafRequest req;
    try {
        req = decode_request(payload);
    } catch (...) {
        // Answered with no parts, echoing the seq when there is one, so the
        // sender is not left waiting; finish() rethrows the error.
        note_error();
        req = LeafRequest{};
        if (payload.size() >= sizeof(std::uint32_t)) {
            req.seq = peek_seq(payload);
        }
    }
    auto job = std::make_unique<Job>();
    job->src = src;
    job->seq = req.seq;
    job->leaves = std::move(req.leaves);
    job->query = std::move(req.query);
    job->ctx = req.ctx;
    const std::size_t n = job->leaves.size();
    job->parts.resize(n);
    job->remaining.store(n, std::memory_order_relaxed);
    ++requests_served_;
    leaves_served_ += n;
    // Accepting a request is progress even while the leaf jobs are still in
    // flight — a serving rank stuck behind a slow peer stays "live".
    obs::note_leaves_served(rank_, n);
    Job* j = job.get();
    jobs_.push_back(std::move(job));
    for (std::size_t i = 0; i < n; ++i) {
        spawn(j, i, /*write=*/false);
    }
}

void LeafServer::start_writes(Job& job) {
    const std::size_t n = job.parts.size();
    std::size_t size = 2 * sizeof(std::uint32_t) + n * sizeof(std::uint64_t);
    for (Part& part : job.parts) {
        part.offset = size;
        size += part.size;
    }
    job.response.resize(size);
    BufferWriter header(job.parts.empty() ? size : job.parts.front().offset);
    header.write(job.seq);
    header.write(static_cast<std::uint32_t>(n));
    for (const Part& part : job.parts) {
        header.write(static_cast<std::uint64_t>(part.size));
    }
    std::memcpy(job.response.data(), header.bytes().data(), header.size());
    job.writing = true;
    job.remaining.store(n, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        spawn(&job, i, /*write=*/true);
    }
}

void LeafServer::spawn(Job* j, std::size_t i, bool write) {
    // The serving rank adopts the originating query's identity for each leaf
    // task: the scope here makes ThreadPool capture it at enqueue, and the
    // scope inside the task covers inline and work-helping execution.
    obs::QueryScope enqueue_scope(j->ctx);
    auto task = [this, j, i, write] {
        obs::QueryScope qscope(j->ctx);
        const char* name = write ? "read.serve_part" : "read.serve_leaf";
        const bool traced = obs::trace_enabled();
        if (traced) {
            if (j->ctx.valid()) {
                obs::emit_begin_arg(name, "read", "qtrace",
                                    static_cast<std::int64_t>(j->ctx.trace_id));
            } else {
                obs::emit_begin(name, "read");
            }
        }
        const bool tracked = obs::span_tracking_enabled();
        if (tracked) {
            obs::detail::push_span(name);
        }
        if (write) {
            write_part(*j, i);
        } else {
            plan_part(*j, i);
        }
        if (tracked) {
            obs::detail::pop_span();
        }
        if (traced) {
            obs::emit_end(name, "read");
        }
        // Release pairs with the acquire load in send_ready(): the comm
        // thread must see the finished plan or part bytes.
        j->remaining.fetch_sub(1, std::memory_order_release);
    };
    if (group_) {
        group_->run(std::move(task));
    } else {
        task();
    }
}

void LeafServer::plan_part(Job& j, std::size_t i) {
    Part& part = j.parts[i];
    std::uint64_t hits0 = 0;
    std::uint64_t misses0 = 0;
    obs::query_thread_cache_counts(&hits0, &misses0);
    part.start_ns = obs::trace_now_ns();
    try {
        part.file = open_leaf_(j.leaves[i]);
        part.plan = plan_bat(*part.file, j.query);
        part.size = part.plan.wire_size(attr_names_);
    } catch (...) {
        note_error();
    }
    std::uint64_t hits1 = 0;
    std::uint64_t misses1 = 0;
    obs::query_thread_cache_counts(&hits1, &misses1);
    part.cache_hit = hits1 > hits0 && misses1 == misses0;
}

void LeafServer::write_part(Job& j, std::size_t i) {
    Part& part = j.parts[i];
    if (part.size != 0) {
        try {
            part.plan.write_wire({j.response.data() + part.offset, part.size}, attr_names_);
        } catch (...) {
            note_error();
        }
    }
    part.plan = QueryPlan();  // done with the leaf's mapping
    part.file.reset();
    if (!j.ctx.valid()) {
        return;
    }
    // The span runs from the leaf's plan to its written part.
    obs::QueryServeSpan span;
    span.trace_id = j.ctx.trace_id;
    span.origin_rank = j.ctx.origin_rank;
    span.query_seq = j.ctx.seq;
    span.serve_rank = rank_;
    span.leaf = j.leaves[i];
    span.start_ns = part.start_ns;
    span.dur_ns = obs::trace_now_ns() - part.start_ns;
    span.bytes = part.size;
    span.cache_hit = part.cache_hit;
    // Recorded before the task's release decrement: once the origin has
    // this job's response, the span is visible in the process-wide ring —
    // query_finalize never races it.
    obs::query_record_serve_span(span);
}

void LeafServer::note_error() {
    std::lock_guard<std::mutex> lock(err_mutex_);
    if (!first_error_) {
        first_error_ = std::current_exception();
    }
}

bool LeafServer::send_ready() {
    bool sent = false;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
        Job& job = **it;
        if (job.remaining.load(std::memory_order_acquire) != 0) {
            ++it;
            continue;
        }
        if (!job.writing) {
            start_writes(job);  // serving inline, the parts are written here
            if (job.remaining.load(std::memory_order_acquire) != 0) {
                ++it;
                continue;
            }
        }
        bytes_shipped_ += job.response.size();
        comm_.isend(job.src, response_tag_, std::move(job.response));
        it = jobs_.erase(it);
        sent = true;
    }
    return sent;
}

bool LeafServer::progress() {
    bool progressed = false;
    int src = -1;
    while (comm_.iprobe(vmpi::kAnySource, request_tag_, &src)) {
        progressed = true;
        start_job(src, comm_.recv(src, request_tag_));
    }
    if (send_ready()) {
        progressed = true;
    }
    return progressed;
}

bool LeafServer::help() {
    return pool_ != nullptr && pool_->try_run_one();
}

void LeafServer::finish() {
    // Each pass lets every job move one step: plans in → parts written →
    // response sent.
    while (!jobs_.empty()) {
        if (group_) {
            group_->wait();
        }
        send_ready();
    }
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lock(err_mutex_);
        std::swap(err, first_error_);
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

RoundResult query_round(const RoundSetup& setup, const BatQuery* query,
                        const obs::QueryContext& ctx, std::uint64_t start_ns,
                        const char* op, ReadPhaseTimings* phases) {
    vmpi::Comm& comm = setup.comm;
    const Metadata& meta = setup.meta;
    RoundResult result{ParticleSet(meta.attr_names)};
    // Each stage boundary is one timestamp, so the query record's stages
    // tile its wall; with `phases` it also ends one phase span and opens
    // the next (filling ReadPhaseTimings and the per-rank trace timeline).
    std::optional<obs::PhaseSpan> phase;
    const auto next_stage = [&](const char* name, double ReadPhaseTimings::*slot) {
        phase.reset();
        const std::uint64_t now = obs::trace_now_ns();
        if (phases != nullptr) {
            phase.emplace(name, &(phases->*slot));
        }
        return now;
    };

    // ---- find matching leaves; send the requests ----------------------------
    next_stage("read.request", &ReadPhaseTimings::request);
    std::vector<int> local_leaves;  // leaves this rank serves to itself
    // One request per aggregator. Each aggregator holds a contiguous block
    // of leaves (§IV-A), so it is one run of the ascending leaf list and
    // requests follow leaf order.
    std::vector<std::pair<int, std::vector<std::int32_t>>> requests;
    std::uint32_t leaves_remote = 0;
    if (query != nullptr) {
        for (int leaf : meta.query_leaves(query->box, query->attr_filters)) {
            const int aggregator = setup.leaf_aggregator[static_cast<std::size_t>(leaf)];
            if (aggregator == comm.rank()) {
                local_leaves.push_back(leaf);
                continue;
            }
            ++leaves_remote;
            if (requests.empty() || requests.back().first != aggregator) {
                requests.emplace_back(aggregator, std::vector<std::int32_t>{});
            }
            requests.back().second.push_back(leaf);
        }
    }
    std::vector<std::size_t> request_leaves(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        request_leaves[i] = requests[i].second.size();
        LeafRequest req;
        req.seq = static_cast<std::uint32_t>(i);
        req.leaves = std::move(requests[i].second);
        req.query = *query;
        req.ctx = ctx;
        comm.isend(requests[i].first, setup.request_tag, encode_request(req));
    }
    const std::uint64_t request_done_ns = next_stage("read.serve", &ReadPhaseTimings::serve);

    // ---- client-server loop until the round barrier completes ---------------
    std::atomic<std::uint64_t> bytes_read{0};
    const auto open_leaf = [&](std::int32_t leaf) {
        BAT_CHECK_MSG(leaf >= 0 && static_cast<std::size_t>(leaf) < meta.leaves.size(),
                      "leaf id out of range in read request");
        std::shared_ptr<const BatFile> file = setup.cache.open(
            setup.dir / meta.leaves[static_cast<std::size_t>(leaf)].file, &bytes_read);
        // Parts and results are laid out under the metadata's names.
        BAT_CHECK_MSG(file->attr_names() == meta.attr_names,
                      "leaf " << leaf << " attributes differ from the metadata's");
        return file;
    };
    LeafServer server(comm, setup.request_tag, setup.response_tag, setup.pool,
                      meta.attr_names, open_leaf);
    // A failure in the loop is held until the barrier is through: leaving
    // the loop early would strand the other ranks in it.
    std::exception_ptr error;
    const auto hold_error = [&error] {
        if (!error) {
            error = std::current_exception();
        }
    };
    // The local leaves are planned where the loop would otherwise yield;
    // each plan's leaf stays open until its points are written.
    std::vector<std::shared_ptr<const BatFile>> local_files;
    std::vector<QueryPlan> local_plans;
    local_files.reserve(local_leaves.size());
    local_plans.reserve(local_leaves.size());
    const auto plan_local = [&] {
        if (error || local_plans.size() == local_leaves.size()) {
            return false;
        }
        try {
            std::shared_ptr<const BatFile> file = open_leaf(local_leaves[local_plans.size()]);
            local_plans.push_back(plan_bat(*file, *query));
            local_files.push_back(std::move(file));
        } catch (...) {
            hold_error();
        }
        return true;
    };
    // Buffered raw responses, slotted by request seq: ingestion order below
    // is the request-issue order, independent of arrival order.
    std::vector<vmpi::Bytes> responses(requests.size());
    std::size_t pending = requests.size();
    vmpi::Request barrier;  // entered once every response is in
    if (pending == 0) {
        barrier = comm.ibarrier();
    }
    for (;;) {
        bool progressed = server.progress();
        int src = -1;
        if (pending > 0 && comm.iprobe(vmpi::kAnySource, setup.response_tag, &src)) {
            progressed = true;
            vmpi::Bytes payload = comm.recv(src, setup.response_tag);
            // Every arrival counts against `pending`, even one that cannot
            // be slotted, so this rank still reaches the barrier.
            try {
                const std::uint32_t seq = peek_seq(payload);
                BAT_CHECK_MSG(seq < responses.size() && responses[seq].empty(),
                              "unexpected response seq " << seq);
                responses[seq] = std::move(payload);
            } catch (...) {
                hold_error();
            }
            if (--pending == 0) {
                barrier = comm.ibarrier();
            }
        }
        if (pending == 0 && server.idle() && barrier.test()) {
            break;
        }
        if (!progressed && !server.help() && !plan_local()) {
            std::this_thread::yield();
        }
    }
    while (plan_local()) {
    }
    server.finish();
    if (error) {
        std::rethrow_exception(error);
    }
    const std::uint64_t serve_done_ns = next_stage("read.merge", &ReadPhaseTimings::merge);

    // ---- zero-copy ingestion, then the local leaves (paper §IV-B) -----------
    // One resize holds the merged responses and the local leaves after them.
    std::size_t local_count = 0;
    for (const QueryPlan& plan : local_plans) {
        local_count += plan.count();
    }
    std::size_t at = merge_responses(result.particles, responses, request_leaves, local_count);
    const std::uint64_t merge_done_ns = next_stage("read.local", &ReadPhaseTimings::local);
    for (const QueryPlan& plan : local_plans) {
        plan.write_into(result.particles, at);
        at += plan.count();
    }
    phase.reset();
    const std::uint64_t end_ns = obs::trace_now_ns();

    result.bytes_read = bytes_read.load(std::memory_order_relaxed);
    result.request_msgs = requests.size();
    result.requests_served = server.requests_served();
    result.leaves_served = server.leaves_served();
    result.bytes_shipped = server.bytes_shipped();

    obs::QueryRecord qrec;
    qrec.trace_id = ctx.trace_id;
    qrec.origin_rank = ctx.origin_rank;
    qrec.seq = ctx.seq;
    qrec.op = op;
    qrec.start_ns = start_ns;
    qrec.wall_ns = end_ns - start_ns;
    // Work the caller did before the round (read_particles' metadata load)
    // is folded into the request stage; the four stages tile the wall.
    qrec.request_ns = request_done_ns - start_ns;
    qrec.serve_ns = serve_done_ns - request_done_ns;
    qrec.merge_ns = merge_done_ns - serve_done_ns;
    qrec.local_ns = end_ns - merge_done_ns;
    qrec.leaves_local = static_cast<std::uint32_t>(local_leaves.size());
    qrec.leaves_remote = leaves_remote;
    qrec.request_msgs = static_cast<std::uint32_t>(requests.size());
    for (const vmpi::Bytes& payload : responses) {
        qrec.bytes_moved += payload.size();
    }
    qrec.particles = result.particles.count();
    obs::query_finalize(qrec);
    return result;
}

}  // namespace bat::io_detail
