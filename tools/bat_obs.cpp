// bat_obs: inspect and validate an obs run bundle (obs/runtime.hpp) or any
// single document from one. A DIR argument is a bat-obs-<pid>/ bundle; each
// subcommand reads its document from it. Subcommands and flags: usage()
// below; what each checks: docs/OBSERVABILITY.md. Exit status: 0 ok, 1
// failed check or unreadable input, 2 usage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace {

namespace fs = std::filesystem;
using bat::obs::json::Value;

// ---- shared helpers ---------------------------------------------------------

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
        throw std::runtime_error("cannot open " + path);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

Value load(const std::string& path) { return bat::obs::json::parse(read_file(path)); }

/// `path` itself, or the named document inside it when it is a bundle dir.
std::string resolve(const std::string& path, const char* doc) {
    return fs::is_directory(path) ? (fs::path(path) / doc).string() : path;
}

double num_or(const Value* obj, const char* key, double fallback) {
    const Value* v = obj != nullptr ? obj->find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->number() : fallback;
}

std::string schema_of(const Value& doc) {
    const Value* s = doc.find("schema");
    return s != nullptr && s->is_string() ? s->string() : "";
}

std::string human_bytes(double b) {
    const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int u = 0;
    while (b >= 1024.0 && u < 4) {
        b /= 1024.0;
        ++u;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), u == 0 ? "%.0f %s" : "%.2f %s", b, units[u]);
    return buf;
}

/// Command-line flags of one subcommand: switches and flags taking a value.
struct Args {
    std::map<std::string, std::string> opts;
    std::vector<std::string> paths;
    bool has(const char* flag) const { return opts.count(flag) != 0; }
    double num(const char* flag, double fallback) const {
        const auto it = opts.find(flag);
        return it != opts.end() ? std::atof(it->second.c_str()) : fallback;
    }
};

bool parse_args(int argc, char** argv, const std::vector<std::string>& switches,
                const std::vector<std::string>& valued, Args& out) {
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (std::find(switches.begin(), switches.end(), arg) != switches.end()) {
            out.opts[arg] = "";
        } else if (std::find(valued.begin(), valued.end(), arg) != valued.end() &&
                   i + 1 < argc) {
            out.opts[arg] = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return false;
        } else {
            out.paths.push_back(arg);
        }
    }
    return true;
}

// ---- trace ------------------------------------------------------------------

/// Structural check + zero dropped events; prints the verdict.
bool check_trace(const Value& root, const std::string& path) {
    const bat::obs::TraceCheck check = bat::obs::validate_chrome_trace(root);
    if (!check.ok) {
        std::fprintf(stderr, "INVALID: %s: %s\n", path.c_str(), check.error.c_str());
        return false;
    }
    // A structurally valid trace can still be truncated: ring overflow
    // drops the oldest events, which CI must treat as a failure.
    const double dropped = num_or(root.find("otherData"), "dropped_events", 0);
    if (dropped > 0) {
        std::fprintf(stderr,
                     "INVALID: %s: trace dropped %.0f events to ring-buffer overflow; "
                     "shorten the traced region\n",
                     path.c_str(), dropped);
        return false;
    }
    std::printf("OK: %s: %d events, %d spans, %d flows, %d ranks\n", path.c_str(),
                check.num_events, check.num_spans, check.num_flows, check.num_ranks);
    return true;
}

struct SpanStats {
    std::string cat;
    long count = 0;
    double total_us = 0;
    double max_us = 0;

    void add(const Value& ev, double dur_us) {
        if (const Value* c = ev.find("cat"); c != nullptr && c->is_string()) {
            cat = c->string();
        }
        count += 1;
        total_us += dur_us;
        max_us = std::max(max_us, dur_us);
    }
};

/// The event's "qtrace" arg (query trace id), or 0 when untagged.
std::uint64_t event_qtrace(const Value& ev) {
    return static_cast<std::uint64_t>(num_or(ev.find("args"), "qtrace", 0));
}

/// Matched B/E pairs (and X events) per span name across all tracks. With
/// `query` != 0, only spans whose begin carries that "qtrace" arg count.
std::map<std::string, SpanStats> collect_spans(const Value& root, std::uint64_t query) {
    const Value* events = root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        throw std::runtime_error("trace has no traceEvents array");
    }
    struct Open {
        std::string name;
        double ts = 0;
        bool counted = false;
    };
    std::map<std::pair<long, long>, std::vector<Open>> stacks;
    std::map<std::string, SpanStats> spans;
    for (const Value& ev : events->array()) {
        const Value* ph = ev.find("ph");
        const Value* name = ev.find("name");
        if (ph == nullptr || !ph->is_string() || name == nullptr) {
            continue;
        }
        const double ts = num_or(&ev, "ts", 0);
        const std::pair<long, long> track{static_cast<long>(num_or(&ev, "pid", 0)),
                                          static_cast<long>(num_or(&ev, "tid", 0))};
        const bool counted = query == 0 || event_qtrace(ev) == query;
        if (ph->string() == "B") {
            stacks[track].push_back({name->string(), ts, counted});
        } else if (ph->string() == "E") {
            auto& stack = stacks[track];
            if (stack.empty() || stack.back().name != name->string()) {
                continue;  // --validate reports these; summaries stay lenient
            }
            if (stack.back().counted) {
                spans[name->string()].add(ev, ts - stack.back().ts);
            }
            stack.pop_back();
        } else if (ph->string() == "X" && ev.find("dur") != nullptr && counted) {
            spans[name->string()].add(ev, num_or(&ev, "dur", 0));
        }
    }
    return spans;
}

void print_write_breakdown(const std::map<std::string, SpanStats>& spans) {
    static const char* kPhases[] = {"gather",    "tree_build", "scatter", "transfer",
                                    "bat_build", "file_write", "metadata"};
    double total_us = 0;
    std::map<std::string, double> phase_us;
    for (const char* phase : kPhases) {
        for (const std::string& key : {std::string("write.") + phase, std::string(phase)}) {
            if (const auto it = spans.find(key); it != spans.end()) {
                phase_us[phase] += it->second.total_us;
                total_us += it->second.total_us;
                break;
            }
        }
    }
    if (total_us <= 0) {
        return;
    }
    std::printf("\nwrite phase breakdown (%% of %.3f ms):\n", total_us / 1e3);
    for (const char* phase : kPhases) {
        std::printf("  %-12s %6.2f%%\n", phase, 100.0 * phase_us[phase] / total_us);
    }
}

void print_metrics(const std::string& path) {
    const Value root = load(path);
    std::printf("metrics: %s\n", path.c_str());
    for (const char* section : {"counters", "gauges"}) {
        if (const Value* m = root.find(section); m != nullptr && m->is_object()) {
            for (const auto& [name, v] : m->object()) {
                std::printf("  %-9.7s %-28s %g\n", section, name.c_str(), v.number());
            }
        }
    }
    if (const Value* hists = root.find("histograms"); hists != nullptr && hists->is_object()) {
        for (const auto& [name, h] : hists->object()) {
            std::printf("  histogram %-28s count=%ld mean=%.3f max=%.3f\n", name.c_str(),
                        static_cast<long>(num_or(&h, "count", 0)), num_or(&h, "mean", 0),
                        num_or(&h, "max", 0));
        }
    }
}

int cmd_summarize(const Args& a) {
    const std::uint64_t query =
        a.has("--query") ? std::strtoull(a.opts.at("--query").c_str(), nullptr, 10) : 0;
    if ((a.has("--query") && query == 0) || a.paths.size() > 1 ||
        (a.paths.empty() && !a.has("--metrics"))) {
        return 2;
    }
    std::string metrics = a.has("--metrics") ? a.opts.at("--metrics") : "";
    if (!a.paths.empty()) {
        const std::string trace_path = resolve(a.paths[0], "trace.json");
        if (metrics.empty() && fs::is_directory(a.paths[0])) {
            metrics = resolve(a.paths[0], "metrics.json");
        }
        const Value root = load(trace_path);
        if (a.has("--validate") && !check_trace(root, trace_path)) {
            return 1;
        }
        const auto spans = collect_spans(root, query);
        if (query != 0) {
            std::printf("spans tagged qtrace=%llu:\n", static_cast<unsigned long long>(query));
            if (spans.empty()) {
                std::fprintf(stderr, "no spans tagged with query %llu\n",
                             static_cast<unsigned long long>(query));
                return 1;
            }
        }
        std::printf("%-28s %-8s %10s %14s %12s\n", "span", "cat", "count", "total_ms",
                    "max_ms");
        for (const auto& [name, s] : spans) {
            std::printf("%-28s %-8s %10ld %14.3f %12.3f\n", name.c_str(), s.cat.c_str(),
                        s.count, s.total_us / 1e3, s.max_us / 1e3);
        }
        if (query == 0) {
            print_write_breakdown(spans);
        }
        if (!metrics.empty()) {
            std::printf("\n");
        }
    }
    if (!metrics.empty()) {
        print_metrics(metrics);
    }
    return 0;
}

// ---- run report ---------------------------------------------------------------

void print_phases(const Value& root) {
    const Value* phases = root.find("phases");
    if (phases == nullptr || !phases->is_object() || phases->object().empty()) {
        std::printf("\nphases: (none recorded)\n");
        return;
    }
    std::printf("\n%-24s %8s %6s %10s %10s %10s %9s\n", "phase", "calls", "ranks",
                "min_s", "mean_s", "max_s", "imbalance");
    // Largest mean first: the expensive phases lead.
    std::vector<std::pair<std::string, const Value*>> rows;
    for (const auto& [name, v] : phases->object()) {
        rows.emplace_back(name, &v);
    }
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
        return num_or(x.second, "mean_s", 0) > num_or(y.second, "mean_s", 0);
    });
    for (const auto& [name, v] : rows) {
        const double mean = num_or(v, "mean_s", 0);
        const double max = num_or(v, "max_s", 0);
        std::printf("%-24s %8ld %6d %10.6f %10.6f %10.6f %8.2fx\n", name.c_str(),
                    static_cast<long>(num_or(v, "calls", 0)),
                    static_cast<int>(num_or(v, "ranks", 0)), num_or(v, "min_s", 0), mean,
                    max, mean > 0 ? max / mean : 0.0);
    }
}

void print_report_details(const Value& root) {
    if (const Value* io = root.find("io"); io != nullptr && !io->object().empty()) {
        std::printf("\n%-26s %12s %6s %12s %12s\n", "io", "total", "ranks", "min", "max");
        for (const auto& [name, v] : io->object()) {
            std::printf("%-26s %12.0f %6d %12.0f %12.0f\n", name.c_str(),
                        num_or(&v, "total", 0), static_cast<int>(num_or(&v, "ranks", 0)),
                        num_or(&v, "min", 0), num_or(&v, "max", 0));
        }
    }
    // Incremental-write effectiveness from the writer's write.delta_*
    // counters; absent counters mean the run never wrote incrementally.
    const Value* counters = root.find("counters");
    const double clean = num_or(counters, "write.delta_treelets_clean", 0);
    const double written = num_or(counters, "write.delta_treelets_written", 0);
    const double reused = num_or(counters, "write.plan_reused", 0);
    if (clean + written + reused > 0) {
        std::printf("\ndelta writes: %ld plan reuse(s), treelets %ld clean / %ld written "
                    "(%.1f%% hit rate), %s saved, %ld leaf file(s) unchanged\n",
                    static_cast<long>(reused), static_cast<long>(clean),
                    static_cast<long>(written),
                    clean + written > 0 ? 100.0 * clean / (clean + written) : 0.0,
                    human_bytes(num_or(counters, "write.delta_bytes_saved", 0)).c_str(),
                    static_cast<long>(num_or(counters, "write.leaves_unchanged", 0)));
        const Value* hists = root.find("histograms");
        const Value* chain = hists != nullptr ? hists->find("write.delta_chain_len") : nullptr;
        if (num_or(chain, "count", 0) > 0) {
            std::printf("delta chains: mean %.2f, p50 %.0f, p99 %.0f, max %.0f "
                        "(%ld delta file(s))\n",
                        num_or(chain, "mean", 0), num_or(chain, "p50", 0),
                        num_or(chain, "p99", 0), num_or(chain, "max", 0),
                        static_cast<long>(num_or(chain, "count", 0)));
        }
    }
    if (const Value* msgs = root.find("messages"); msgs != nullptr) {
        std::printf("\nmessages: %ld sends (%s), %ld recvs (%s), %ld collectives, "
                    "%ld leaves served\n",
                    static_cast<long>(num_or(msgs, "sends", 0)),
                    human_bytes(num_or(msgs, "send_bytes", 0)).c_str(),
                    static_cast<long>(num_or(msgs, "recvs", 0)),
                    human_bytes(num_or(msgs, "recv_bytes", 0)).c_str(),
                    static_cast<long>(num_or(msgs, "collectives", 0)),
                    static_cast<long>(num_or(msgs, "leaves_served", 0)));
    }
    std::printf("pool: %ld task(s)\n", static_cast<long>(num_or(root.find("pool"), "tasks", 0)));
    const Value* cache = root.find("cache");
    const double hits = num_or(cache, "hits", 0);
    const double misses = num_or(cache, "misses", 0);
    if (hits + misses > 0) {
        std::printf("leaf cache: %.0f hits / %.0f misses (%.1f%% hit rate)\n", hits, misses,
                    100.0 * num_or(cache, "hit_rate", 0));
    }
}

int cmd_report(const Args& a) {
    if (a.paths.size() != 1) {
        return 2;
    }
    const std::string path = resolve(a.paths[0], "report.json");
    const Value root = load(path);
    if (schema_of(root) != "bat-report-v1") {
        std::fprintf(stderr, "error: %s is not a bat-report-v1 document\n", path.c_str());
        return 1;
    }
    if (!a.has("--phases")) {
        const Value* run = root.find("run");
        const Value* dog = run != nullptr ? run->find("watchdog") : nullptr;
        const Value* armed = dog != nullptr ? dog->find("armed") : nullptr;
        std::printf("run: %.3f s wall, %d rank(s)\n", num_or(run, "wall_seconds", 0),
                    static_cast<int>(num_or(run, "ranks", 0)));
        std::printf("watchdog: %s, %d trip(s)\n",
                    armed != nullptr && armed->is_bool() && armed->boolean() ? "armed" : "off",
                    static_cast<int>(num_or(dog, "trips", 0)));
    }
    print_phases(root);
    if (!a.has("--phases")) {
        print_report_details(root);
    }
    return 0;
}

// ---- query log ----------------------------------------------------------------

struct Query {
    std::uint64_t trace_id = 0;
    int origin_rank = -1;
    std::string op;
    double start_us = 0, wall_us = 0;
    double request_us = 0, serve_us = 0, merge_us = 0, local_us = 0;
    double leaves_local = 0, leaves_remote = 0, request_msgs = 0, bytes_moved = 0;
    struct Span {
        int rank = -1;
        int leaf = -1;
        double start_us = 0, dur_us = 0, bytes = 0;
        bool cache_hit = false;
    };
    std::vector<Span> spans;
};

/// Required non-negative number members; the first missing one is named.
std::string need(const Value& obj, std::initializer_list<std::pair<const char*, double*>> keys) {
    for (const auto& [key, out] : keys) {
        const Value* v = obj.find(key);
        if (v == nullptr || !v->is_number() || v->number() < 0) {
            return std::string("missing \"") + key + "\"";
        }
        *out = v->number();
    }
    return "";
}

/// Parse one bat-query-v1 line into *q; returns an error string ("" = ok).
std::string parse_query(const Value& doc, Query* q) {
    const Value* op = doc.find("op");
    if (op == nullptr || !op->is_string() || op->string().empty()) {
        return "missing string \"op\"";
    }
    q->op = op->string();
    double id = 0, origin = 0, seq = 0, scratch = 0;
    std::string err = need(doc, {{"trace_id", &id}, {"origin_rank", &origin}, {"seq", &seq},
                                 {"start_us", &q->start_us}, {"wall_us", &q->wall_us},
                                 {"leaves_local", &q->leaves_local},
                                 {"leaves_remote", &q->leaves_remote},
                                 {"request_msgs", &q->request_msgs},
                                 {"bytes_moved", &q->bytes_moved}, {"particles", &scratch},
                                 {"cache_hits", &scratch}, {"cache_misses", &scratch},
                                 {"pool_task_us", &scratch}, {"fastpath_windows", &scratch}});
    if (!err.empty() || id == 0) {
        return err.empty() ? "missing nonzero \"trace_id\"" : err;
    }
    q->trace_id = static_cast<std::uint64_t>(id);
    q->origin_rank = static_cast<int>(origin);
    const Value* stages = doc.find("stages");
    if (stages == nullptr || !stages->is_object()) {
        return "missing \"stages\" object";
    }
    err = need(*stages, {{"request_us", &q->request_us}, {"serve_us", &q->serve_us},
                         {"merge_us", &q->merge_us}, {"local_us", &q->local_us}});
    if (!err.empty()) {
        return "stages " + err;
    }
    // The four stages tile the wall window by construction; allow rounding.
    const double sum = q->request_us + q->serve_us + q->merge_us + q->local_us;
    if (sum > q->wall_us + 0.01 || sum < q->wall_us - 0.01) {
        return "stage sum " + std::to_string(sum) + " != wall_us " + std::to_string(q->wall_us);
    }
    const Value* spans = doc.find("serve_spans");
    if (spans == nullptr || !spans->is_array()) {
        return "missing \"serve_spans\" array";
    }
    for (const Value& sv : spans->array()) {
        Query::Span s;
        double rank = 0, leaf = 0;
        err = need(sv, {{"rank", &rank}, {"leaf", &leaf}, {"start_us", &s.start_us},
                        {"dur_us", &s.dur_us}, {"bytes", &s.bytes}});
        const Value* hit = sv.find("cache_hit");
        if (!err.empty() || hit == nullptr || !hit->is_bool()) {
            return "serve span " + (err.empty() ? "missing bool \"cache_hit\"" : err);
        }
        s.rank = static_cast<int>(rank);
        s.leaf = static_cast<int>(leaf);
        s.cache_hit = hit->boolean();
        q->spans.push_back(s);
    }
    return "";
}

struct QueryLog {
    std::vector<Query> queries;
    int orphans = 0;
    double p50 = 0, p99 = 0;
};

/// Parse a whole log; returns an error ("" = ok).
std::string load_query_log(const std::string& path, QueryLog* log) {
    std::istringstream in(read_file(path));
    std::string line;
    for (int line_no = 1; std::getline(in, line); ++line_no) {
        if (line.empty()) {
            continue;
        }
        const std::string where = "line " + std::to_string(line_no) + ": ";
        Value doc;
        try {
            doc = bat::obs::json::parse(line);
        } catch (const std::exception& e) {
            return where + "malformed JSON: " + e.what();
        }
        const std::string schema = schema_of(doc);
        if (schema == "bat-query-orphan-v1") {
            ++log->orphans;
            continue;
        }
        if (schema != "bat-query-v1") {
            return where + "unexpected schema \"" + schema + "\"";
        }
        Query q;
        if (const std::string err = parse_query(doc, &q); !err.empty()) {
            return where + err;
        }
        log->queries.push_back(std::move(q));
    }
    if (log->queries.empty() && log->orphans == 0) {
        return path + " holds no query records";
    }
    std::vector<double> walls;
    for (const Query& q : log->queries) {
        walls.push_back(q.wall_us);
    }
    std::sort(walls.begin(), walls.end());
    // Exact nearest-rank quantiles.
    const auto quantile = [&walls](double p) {
        return walls.empty() ? 0.0
                             : walls[std::min(static_cast<std::size_t>(
                                                  p * static_cast<double>(walls.size() - 1) + 0.5),
                                              walls.size() - 1)];
    };
    log->p50 = quantile(0.50);
    log->p99 = quantile(0.99);
    return "";
}

/// The CI gate: zero orphans, one serve span per remote leaf, response
/// bytes that add up, p50 <= p99.
bool check_query_log(const QueryLog& log, const std::string& path) {
    // An orphaned serve span means work ran under a query id whose record
    // never landed — attribution is broken.
    if (log.orphans != 0) {
        std::fprintf(stderr, "INVALID: %s: %d unattributed serve span line(s)\n",
                     path.c_str(), log.orphans);
        return false;
    }
    for (const Query& q : log.queries) {
        if (static_cast<double>(q.spans.size()) != q.leaves_remote) {
            std::fprintf(stderr, "INVALID: %s: query %llu has %zu serve spans for %.0f "
                         "remote leaves\n", path.c_str(),
                         static_cast<unsigned long long>(q.trace_id), q.spans.size(),
                         q.leaves_remote);
            return false;
        }
        // Each response is a u32 seq and a u32 part count, then one u64
        // length and the part bytes per leaf; a serve span's bytes are its
        // part's size.
        double part_bytes = 0;
        for (const Query::Span& s : q.spans) {
            part_bytes += s.bytes;
        }
        const double expected = part_bytes + 8 * q.request_msgs + 8 * q.leaves_remote;
        if (q.bytes_moved != expected) {
            std::fprintf(stderr, "INVALID: %s: query %llu moved %.0f bytes, its serve spans "
                         "and headers account for %.0f\n", path.c_str(),
                         static_cast<unsigned long long>(q.trace_id), q.bytes_moved, expected);
            return false;
        }
    }
    if (log.p50 > log.p99) {
        std::fprintf(stderr, "INVALID: %s: wall p50 %.3f us > p99 %.3f us\n", path.c_str(),
                     log.p50, log.p99);
        return false;
    }
    std::printf("OK: %s: %zu records, 0 orphans, wall p50 %.3f us, p99 %.3f us\n",
                path.c_str(), log.queries.size(), log.p50, log.p99);
    return true;
}

const char* dominant_stage(const Query& q) {
    const std::pair<const char*, double> stages[] = {
        {"request", q.request_us}, {"serve", q.serve_us}, {"merge", q.merge_us},
        {"local", q.local_us}};
    return std::max_element(std::begin(stages), std::end(stages),
                            [](const auto& x, const auto& y) { return x.second < y.second; })
        ->first;
}

/// Stage windows + every serve span of one query on the shared trace clock.
void print_critical_path(const Query& q) {
    std::printf("\ncritical path of slowest query %llu (op %s, origin rank %d, "
                "%.3f ms wall):\n",
                static_cast<unsigned long long>(q.trace_id), q.op.c_str(), q.origin_rank,
                q.wall_us / 1e3);
    const double serve_end = q.request_us + q.serve_us;
    const double merge_end = serve_end + q.merge_us;
    std::printf("  %10.3f..%-10.3f ms  origin %d: build+send %.0f request msg(s) "
                "(%.0f remote leaves)\n",
                0.0, q.request_us / 1e3, q.origin_rank, q.request_msgs, q.leaves_remote);
    std::vector<Query::Span> spans = q.spans;
    std::sort(spans.begin(), spans.end(),
              [](const auto& x, const auto& y) { return x.start_us < y.start_us; });
    for (const Query::Span& s : spans) {
        std::printf("  %10.3f..%-10.3f ms  rank %d: serve leaf %-5d %8.0f B %s\n",
                    (s.start_us - q.start_us) / 1e3,
                    (s.start_us + s.dur_us - q.start_us) / 1e3, s.rank, s.leaf, s.bytes,
                    s.cache_hit ? "(cache hit)" : "(cache miss)");
    }
    std::printf("  %10.3f..%-10.3f ms  origin %d: responses collected (%.0f B moved)\n",
                q.request_us / 1e3, serve_end / 1e3, q.origin_rank, q.bytes_moved);
    std::printf("  %10.3f..%-10.3f ms  origin %d: merge responses\n", serve_end / 1e3,
                merge_end / 1e3, q.origin_rank);
    std::printf("  %10.3f..%-10.3f ms  origin %d: local leaves (%.0f)\n", merge_end / 1e3,
                q.wall_us / 1e3, q.origin_rank, q.leaves_local);
    if (!spans.empty()) {
        const auto last = std::max_element(spans.begin(), spans.end(), [](const auto& x,
                                                                           const auto& y) {
            return x.start_us + x.dur_us < y.start_us + y.dur_us;
        });
        std::printf("  serve stage dominated by rank %d leaf %d (ends %.3f ms; serve "
                    "window closes %.3f ms)\n",
                    last->rank, last->leaf, (last->start_us + last->dur_us - q.start_us) / 1e3,
                    serve_end / 1e3);
    }
}

int cmd_query(const Args& a) {
    if (a.paths.size() != 1) {
        return 2;
    }
    const std::string path = resolve(a.paths[0], "queries.jsonl");
    QueryLog log;
    if (const std::string err = load_query_log(path, &log); !err.empty()) {
        std::fprintf(stderr, "INVALID: %s: %s\n", path.c_str(), err.c_str());
        return 1;
    }
    if (a.has("--validate")) {
        return check_query_log(log, path) ? 0 : 1;
    }
    std::vector<Query>& qs = log.queries;
    std::sort(qs.begin(), qs.end(), [](const Query& x, const Query& y) {
        return x.wall_us > y.wall_us;
    });
    std::printf("%zu queries, wall p50 %.3f us, p99 %.3f us, %d orphan span(s)\n\n",
                qs.size(), log.p50, log.p99, log.orphans);
    std::printf("%-16s %-6s %-22s %10s %9s %8s %8s %-8s\n", "trace_id", "origin", "op",
                "wall_ms", "leaves", "msgs", "MB", "dominant");
    const auto top = static_cast<std::size_t>(a.num("--top", 5));
    for (std::size_t i = 0; i < std::min(top, qs.size()); ++i) {
        const Query& q = qs[i];
        std::printf("%-16llu %-6d %-22s %10.3f %9.0f %8.0f %8.2f %-8s\n",
                    static_cast<unsigned long long>(q.trace_id), q.origin_rank, q.op.c_str(),
                    q.wall_us / 1e3, q.leaves_local + q.leaves_remote, q.request_msgs,
                    q.bytes_moved / (1 << 20), dominant_stage(q));
    }
    if (!qs.empty()) {
        print_critical_path(qs.front());
    }
    return 0;
}

// ---- profile ------------------------------------------------------------------

Value load_profile(const std::string& path) {
    Value root = load(path);
    if (schema_of(root) != "bat-prof-v1") {
        throw std::runtime_error(path + ": not a bat-prof-v1 profile");
    }
    return root;
}

/// The CI attribution floor: attributed/samples >= `floor`.
bool check_attribution(const Value& root, double floor) {
    const double samples = num_or(&root, "samples", 0);
    const double frac = samples > 0 ? num_or(&root, "attributed", 0) / samples : 0.0;
    if (samples <= 0 || frac < floor) {
        std::printf("FAIL: attribution %.3f below --min-attributed %.3f (%.0f samples)\n",
                    frac, floor, samples);
        return false;
    }
    std::printf("attribution gate ok: %.3f >= %.3f\n", frac, floor);
    return true;
}

int cmd_diff(const Args& a) {
    if (a.paths.size() != 2) {
        return 2;
    }
    const double fail_above = a.num("--fail-above", 5.0);
    const bat::obs::ProfDiff diff =
        bat::obs::prof_diff(load_profile(resolve(a.paths[0], "prof.json")),
                            load_profile(resolve(a.paths[1], "prof.json")), fail_above);
    std::printf("before: %llu attributed sample(s), after: %llu\n",
                static_cast<unsigned long long>(diff.before_samples),
                static_cast<unsigned long long>(diff.after_samples));
    std::printf("%-8s %7s %7s  %s\n", "delta", "before", "after", "stack");
    for (std::size_t i = 0; i < std::min<std::size_t>(diff.entries.size(), 20); ++i) {
        const bat::obs::ProfDiffEntry& e = diff.entries[i];
        std::printf("%+7.1f%% %6.1f%% %6.1f%%  %s\n", e.delta, e.before_share, e.after_share,
                    e.stack.c_str());
    }
    if (diff.flagged.empty()) {
        std::printf("\nno stack moved by >= %.1f points\n", fail_above);
        return 0;
    }
    std::printf("\n%zu stack(s) moved by >= %.1f points:\n", diff.flagged.size(), fail_above);
    for (const bat::obs::ProfDiffEntry& e : diff.flagged) {
        std::printf("  %+7.1f%%  %s\n", e.delta, e.stack.c_str());
    }
    if (a.has("--fail-above")) {
        std::printf("FAIL: profile shares shifted beyond --fail-above %.1f\n", fail_above);
        return 1;
    }
    return 0;
}

/// Sorted (share-descending) rows of `samples`, printed as a table.
void print_shares(const std::map<std::string, double>& samples, const char* label,
                  std::size_t top_k) {
    double total = 0;
    for (const auto& [key, n] : samples) {
        total += n;
    }
    std::vector<std::pair<std::string, double>> rows(samples.begin(), samples.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& x, const auto& y) { return x.second > y.second; });
    std::printf("\n%-10s %7s  %s\n", "samples", "share", label);
    for (std::size_t i = 0; i < std::min(top_k, rows.size()); ++i) {
        std::printf("%-10.0f %6.1f%%  %s\n", rows[i].second,
                    total > 0 ? 100.0 * rows[i].second / total : 0.0, rows[i].first.c_str());
    }
    if (rows.empty()) {
        std::printf("(no attributed stacks)\n");
    }
}

int cmd_prof(const Args& a) {
    if (a.has("--diff")) {
        return cmd_diff(a);
    }
    if (a.paths.size() != 1) {
        return 2;
    }
    const Value root = load_profile(resolve(a.paths[0], "prof.json"));
    if (a.has("--collapsed")) {
        for (const auto& [stack, n] : bat::obs::prof_stack_samples(root)) {
            std::printf("%s %.0f\n", stack.c_str(), n);
        }
        return 0;
    }
    const double samples = num_or(&root, "samples", 0);
    const double attributed = num_or(&root, "attributed", 0);
    std::printf("profile: %.0f samples @ %.0f Hz over %.2f s wall (pid %.0f)\n", samples,
                num_or(&root, "hz", 0), num_or(&root, "wall_seconds", 0),
                num_or(&root, "pid", 0));
    std::printf("attributed: %.0f (%.1f%%), dropped: %.0f\n", attributed,
                samples > 0 ? 100.0 * attributed / samples : 0.0, num_or(&root, "dropped", 0));
    if (const Value* kinds = root.find("kinds"); kinds != nullptr && kinds->is_object()) {
        for (const auto& [kind, v] : kinds->object()) {
            std::printf("  %-8s %4.0f thread(s), %8.0f sample(s)\n", kind.c_str(),
                        num_or(&v, "threads", 0), num_or(&v, "samples", 0));
        }
    }
    print_shares(bat::obs::prof_stack_samples(root), "stack",
                 static_cast<std::size_t>(a.num("--top", 20)));
    if (a.has("--per-rank")) {
        const auto by_rank = bat::obs::prof_stack_samples(root, /*by_rank=*/true);
        print_shares(by_rank, "rank", by_rank.size());
        double total = 0;
        double max = 0;
        for (const auto& [rank, n] : by_rank) {
            total += n;
            max = std::max(max, n);
        }
        const double mean = by_rank.empty() ? 0 : total / static_cast<double>(by_rank.size());
        std::printf("imbalance (max/mean): %.2f\n", mean > 0 ? max / mean : 0.0);
    }
    if (a.has("--min-attributed") && !check_attribution(root, a.num("--min-attributed", 0))) {
        return 1;
    }
    return 0;
}

// ---- validate -------------------------------------------------------------------

/// A bat-report-v1 run report: the run / phases / messages sections are
/// well formed, at least one write.* or read.* phase ran, every phase has
/// min <= mean <= max, and every histogram reporting percentiles has
/// min <= p50 <= p90 <= p99 <= max (the estimator clamps to the observed
/// range, so a violation means broken accounting, not estimation error).
/// Returns "" or the first problem.
std::string check_report(const Value& doc, std::string* summary) {
    const auto number = [](const Value* obj, const char* key) -> const Value* {
        const Value* v = obj != nullptr ? obj->find(key) : nullptr;
        return v != nullptr && v->is_number() ? v : nullptr;
    };
    const Value* run = doc.find("run");
    if (run == nullptr || !run->is_object()) {
        return "report missing \"run\" object";
    }
    const Value* wall = number(run, "wall_seconds");
    if (wall == nullptr || wall->number() <= 0) {
        return "report \"run.wall_seconds\" missing or not positive";
    }
    const Value* ranks = number(run, "ranks");
    if (ranks == nullptr || ranks->number() < 1) {
        return "report \"run.ranks\" missing or < 1";
    }
    const Value* phases = doc.find("phases");
    if (phases == nullptr || !phases->is_object()) {
        return "report missing \"phases\" object";
    }
    int io_phases = 0;
    for (const auto& [name, phase] : phases->object()) {
        if (!phase.is_object()) {
            return "phase \"" + name + "\" is not an object";
        }
        const Value* calls = number(&phase, "calls");
        const Value* min_s = number(&phase, "min_s");
        const Value* mean_s = number(&phase, "mean_s");
        const Value* max_s = number(&phase, "max_s");
        if (calls == nullptr || calls->number() < 1) {
            return "phase \"" + name + "\" missing \"calls\" >= 1";
        }
        if (min_s == nullptr || mean_s == nullptr || max_s == nullptr) {
            return "phase \"" + name + "\" missing min_s/mean_s/max_s";
        }
        if (!(min_s->number() <= mean_s->number() && mean_s->number() <= max_s->number())) {
            return "phase \"" + name + "\" violates min <= mean <= max";
        }
        if (name.rfind("write.", 0) == 0 || name.rfind("read.", 0) == 0) {
            ++io_phases;
        }
    }
    if (io_phases == 0) {
        return "report has no write.* or read.* phase — the traced pipeline did not run";
    }
    const Value* messages = doc.find("messages");
    if (messages == nullptr || !messages->is_object()) {
        return "report missing \"messages\" object";
    }
    for (const char* key : {"sends", "recvs", "send_bytes", "recv_bytes"}) {
        const Value* v = number(messages, key);
        if (v == nullptr || v->number() < 0) {
            return std::string("report \"messages.") + key + "\" missing";
        }
    }
    int percentiled = 0;
    if (const Value* histograms = doc.find("histograms");
        histograms != nullptr && histograms->is_object()) {
        for (const auto& [name, h] : histograms->object()) {
            if (!h.is_object()) {
                return "histogram \"" + name + "\" is not an object";
            }
            if (h.find("p50") == nullptr && h.find("p90") == nullptr &&
                h.find("p99") == nullptr) {
                continue;  // pre-percentile report
            }
            const Value* p50 = number(&h, "p50");
            const Value* p90 = number(&h, "p90");
            const Value* p99 = number(&h, "p99");
            if (p50 == nullptr || p90 == nullptr || p99 == nullptr) {
                return "histogram \"" + name + "\" has partial percentiles";
            }
            const Value* count = number(&h, "count");
            if (count == nullptr || count->number() < 1) {
                continue;  // empty histogram: percentiles are all 0
            }
            const Value* min = number(&h, "min");
            const Value* max = number(&h, "max");
            if (min == nullptr || max == nullptr) {
                return "histogram \"" + name + "\" missing min/max";
            }
            if (!(min->number() <= p50->number() && p50->number() <= p90->number() &&
                  p90->number() <= p99->number() && p99->number() <= max->number())) {
                return "histogram \"" + name + "\" violates min <= p50 <= p90 <= p99 <= max";
            }
            ++percentiled;
        }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " (%zu phases, %d io, %d histograms with percentiles, %.3f s wall)",
                  phases->object().size(), io_phases, percentiled, wall->number());
    *summary = buf;
    return "";
}

/// Every check that applies to one document; the kind comes from its name
/// or schema.
bool validate_document(const fs::path& path, const Args& a) {
    const std::string p = path.string();
    if (path.extension() == ".jsonl") {
        QueryLog log;
        const std::string err = load_query_log(p, &log);
        if (!err.empty()) {
            std::fprintf(stderr, "INVALID: %s: %s\n", p.c_str(), err.c_str());
        }
        return err.empty() && check_query_log(log, p);
    }
    const Value doc = load(p);
    const std::string schema = schema_of(doc);
    if (doc.find("traceEvents") != nullptr) {
        return check_trace(doc, p);
    }
    if (schema == "bat-prof-v1" && a.has("--min-attributed")) {
        return check_attribution(doc, a.num("--min-attributed", 0));
    }
    std::string summary;
    if (schema == "bat-report-v1") {
        const std::string err = check_report(doc, &summary);
        if (!err.empty()) {
            std::fprintf(stderr, "INVALID: %s: %s\n", p.c_str(), err.c_str());
            return false;
        }
    }
    const bool known = schema == "bat-obs-v1" || schema == "bat-report-v1" ||
                       schema == "bat-prof-v1" || schema == "bat-flight-v1" ||
                       (schema.empty() && doc.find("counters") != nullptr);
    if (!known) {
        std::fprintf(stderr, "INVALID: %s: unknown document (schema \"%s\")\n", p.c_str(),
                     schema.c_str());
        return false;
    }
    std::printf("OK: %s: %s%s\n", p.c_str(), schema.empty() ? "metrics" : schema.c_str(),
                summary.c_str());
    return true;
}

int cmd_validate(const Args& a) {
    if (a.paths.empty()) {
        return 2;
    }
    bool ok = true;
    int checked = 0;
    for (const std::string& arg : a.paths) {
        std::vector<fs::path> docs;
        if (fs::is_directory(arg)) {
            for (const auto& entry : fs::directory_iterator(arg)) {
                const auto ext = entry.path().extension();
                if (ext == ".json" || ext == ".jsonl") {
                    docs.push_back(entry.path());
                }
            }
            std::sort(docs.begin(), docs.end());
        } else {
            docs.emplace_back(arg);
        }
        for (const fs::path& doc : docs) {
            ok = validate_document(doc, a) && ok;
            ++checked;
        }
    }
    if (checked == 0) {
        std::fprintf(stderr, "INVALID: no documents found\n");
        return 1;
    }
    return ok ? 0 : 1;
}

struct Command {
    const char* name;
    int (*run)(const Args&);
    std::vector<std::string> switches;
    std::vector<std::string> valued;
};

const Command kCommands[] = {
    {"summarize", cmd_summarize, {"--validate"}, {"--query", "--metrics"}},
    {"validate", cmd_validate, {}, {"--min-attributed"}},
    {"report", cmd_report, {"--phases"}, {}},
    {"query", cmd_query, {"--validate"}, {"--top"}},
    {"prof", cmd_prof, {"--per-rank", "--collapsed", "--diff"},
     {"--top", "--min-attributed", "--fail-above"}},
    {"diff", cmd_diff, {}, {"--fail-above"}},
};

int usage() {
    std::fprintf(stderr,
                 "usage: bat_obs summarize [--validate] [--query ID] [--metrics M] [TRACE|DIR]\n"
                 "       bat_obs validate [--min-attributed F] DIR|FILE...\n"
                 "       bat_obs report [--phases] REPORT|DIR\n"
                 "       bat_obs query [--validate] [--top K] LOG|DIR\n"
                 "       bat_obs prof [--top K] [--per-rank] [--collapsed] "
                 "[--min-attributed F] PROFILE|DIR\n"
                 "       bat_obs diff [--fail-above PTS] OLD NEW\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string name = argv[1];
    for (const Command& cmd : kCommands) {
        if (name != cmd.name) {
            continue;
        }
        Args args;
        if (!parse_args(argc, argv, cmd.switches, cmd.valued, args)) {
            return usage();
        }
        try {
            const int rc = cmd.run(args);
            return rc == 2 ? usage() : rc;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bat_obs %s: %s\n", cmd.name, e.what());
            return 1;
        }
    }
    return name == "--help" || name == "-h" ? (usage(), 0) : usage();
}
