#include "io/read_protocol.hpp"

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

vmpi::Bytes encode_response(std::uint32_t seq, std::span<const vmpi::Bytes> parts) {
    std::size_t payload = 0;
    for (const vmpi::Bytes& part : parts) {
        payload += part.size();
    }
    BufferWriter w(sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) * parts.size() +
                   payload);
    w.write(seq);
    w.write(static_cast<std::uint32_t>(parts.size()));
    for (const vmpi::Bytes& part : parts) {
        w.write(static_cast<std::uint64_t>(part.size()));
    }
    for (const vmpi::Bytes& part : parts) {
        w.write_span(std::span<const std::byte>(part));
    }
    return w.take();
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

std::uint32_t peek_response_seq(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    return r.read<std::uint32_t>();
}

QuerySink particle_sink(ParticleSet& out) {
    QuerySink sink;
    sink.point = [&out](Vec3 p, std::span<const double> attrs) { out.push_back(p, attrs); };
    sink.range = [&out](const BatTreeletView& view, std::uint32_t begin, std::uint32_t end) {
        obs::query_note_fastpath_window();
        out.append_rows(view.positions, view.attrs, begin, end);
    };
    sink.gather = [&out](const BatTreeletView& view, std::span<const std::uint32_t> idx) {
        out.append_gather(view.positions, view.attrs, idx);
    };
    return sink;
}

void merge_responses(ParticleSet& out, std::span<const vmpi::Bytes> payloads) {
    if (sched::maybe_active()) {
        // The merged result buffer is rank-local by design; the annotation
        // catches any future schedule where two threads merge into one set.
        sched::note_access(&out, "read.merged_particles", /*is_write=*/true);
    }
    std::vector<ResponseView> views;
    views.reserve(payloads.size());
    const std::size_t particle_bytes = 3 * sizeof(float) + out.num_attrs() * sizeof(double);
    std::uint64_t total = 0;
    for (const vmpi::Bytes& payload : payloads) {
        views.push_back(decode_response(payload));
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
    out.resize(at + total);
    for (const ResponseView& view : views) {
        for (const std::span<const std::byte> part : view.parts) {
            if (part.empty()) {
                continue;
            }
            at += out.deserialize_into(part, at);
        }
    }
}

LeafServer::LeafServer(vmpi::Comm& comm, int request_tag, int response_tag,
                       ThreadPool* pool, ServeLeafFn serve_leaf)
    : comm_(comm),
      request_tag_(request_tag),
      response_tag_(response_tag),
      pool_(pool != nullptr && pool->num_threads() > 0 ? pool : nullptr),
      serve_leaf_(std::move(serve_leaf)) {
    if (pool_ != nullptr) {
        group_.emplace(*pool_);
    }
}

void LeafServer::start_job(int src, const vmpi::Bytes& payload) {
    LeafRequest req = decode_request(payload);
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
    obs::note_leaves_served(comm_.rank(), n);
    const int serve_rank = comm_.rank();
    Job* j = job.get();
    jobs_.push_back(std::move(job));
    // The serving rank adopts the originating query's identity for each leaf
    // evaluation: the scope here makes ThreadPool capture it at enqueue, and
    // the scope inside the task covers inline and work-helping execution.
    obs::QueryScope enqueue_scope(j->ctx);
    for (std::size_t i = 0; i < n; ++i) {
        auto task = [this, j, i, serve_rank] {
            obs::QueryScope qscope(j->ctx);
            const bool traced = obs::trace_enabled();
            if (traced) {
                if (j->ctx.valid()) {
                    obs::emit_begin_arg("read.serve_leaf", "read", "qtrace",
                                        static_cast<std::int64_t>(j->ctx.trace_id));
                } else {
                    obs::emit_begin("read.serve_leaf", "read");
                }
            }
            const bool tracked = obs::span_tracking_enabled();
            if (tracked) {
                obs::detail::push_span("read.serve_leaf");
            }
            std::uint64_t hits0 = 0;
            std::uint64_t misses0 = 0;
            obs::query_thread_cache_counts(&hits0, &misses0);
            const std::uint64_t t0 = obs::trace_now_ns();
            try {
                j->parts[i] = serve_leaf_(j->leaves[i], j->query);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex_);
                if (!first_error_) {
                    first_error_ = std::current_exception();
                }
            }
            const std::uint64_t t1 = obs::trace_now_ns();
            if (tracked) {
                obs::detail::pop_span();
            }
            if (traced) {
                obs::emit_end("read.serve_leaf", "read");
            }
            if (j->ctx.valid()) {
                std::uint64_t hits1 = 0;
                std::uint64_t misses1 = 0;
                obs::query_thread_cache_counts(&hits1, &misses1);
                obs::QueryServeSpan span;
                span.trace_id = j->ctx.trace_id;
                span.origin_rank = j->ctx.origin_rank;
                span.query_seq = j->ctx.seq;
                span.serve_rank = serve_rank;
                span.leaf = j->leaves[i];
                span.start_ns = t0;
                span.dur_ns = t1 - t0;
                span.bytes = j->parts[i].size();
                span.cache_hit = hits1 > hits0 && misses1 == misses0;
                // Recorded before the release decrement below: once the
                // origin has this job's response, the span is visible in the
                // process-wide ring — query_finalize never races it.
                obs::query_record_serve_span(span);
            }
            // Release pairs with the acquire load in send_ready(): the comm
            // thread must see the finished part bytes.
            j->remaining.fetch_sub(1, std::memory_order_release);
        };
        if (group_) {
            group_->run(std::move(task));
        } else {
            task();
        }
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
        vmpi::Bytes response = encode_response(job.seq, job.parts);
        bytes_shipped_ += response.size();
        comm_.isend(job.src, response_tag_, std::move(response));
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
    if (group_) {
        group_->wait();
    }
    send_ready();
    BAT_CHECK_MSG(jobs_.empty(), "LeafServer finished with unsent responses");
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lock(err_mutex_);
        std::swap(err, first_error_);
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

RoundResult query_round(const RoundSetup& setup, const BatQuery* query, bool coalesce,
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
    // One request per aggregator, or one per leaf when coalescing is off.
    // Each aggregator holds a contiguous block of leaves (§IV-A), so it is
    // one run of the ascending leaf list and requests follow leaf order.
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
            if (!coalesce || requests.empty() || requests.back().first != aggregator) {
                requests.emplace_back(aggregator, std::vector<std::int32_t>{});
            }
            requests.back().second.push_back(leaf);
        }
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
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
        return setup.cache.open(setup.dir / meta.leaves[static_cast<std::size_t>(leaf)].file,
                                &bytes_read);
    };
    LeafServer server(comm, setup.request_tag, setup.response_tag, setup.pool,
                      [&](std::int32_t leaf, const BatQuery& leaf_query) {
                          BAT_CHECK_MSG(leaf >= 0 && static_cast<std::size_t>(leaf) <
                                                         meta.leaves.size(),
                                        "leaf id out of range in read request");
                          ParticleSet out(meta.attr_names);
                          query_bat(*open_leaf(leaf), leaf_query, particle_sink(out));
                          return out.to_bytes();
                      });
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
            const std::uint32_t seq = peek_response_seq(payload);
            BAT_CHECK_MSG(seq < responses.size() && responses[seq].empty(),
                          "unexpected response seq " << seq);
            responses[seq] = std::move(payload);
            if (--pending == 0) {
                barrier = comm.ibarrier();
            }
        }
        if (pending == 0 && server.idle() && barrier.test()) {
            break;
        }
        if (!progressed && !server.help()) {
            std::this_thread::yield();
        }
    }
    server.finish();
    const std::uint64_t serve_done_ns = next_stage("read.merge", &ReadPhaseTimings::merge);

    // ---- zero-copy ingestion, then the local leaves (paper §IV-B) -----------
    merge_responses(result.particles, responses);
    const std::uint64_t merge_done_ns = next_stage("read.local", &ReadPhaseTimings::local);
    const QuerySink sink = particle_sink(result.particles);
    for (int leaf : local_leaves) {
        query_bat(*open_leaf(leaf), *query, sink);
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
