// bench_check: the CI perf gates over bat-bench-v1 documents (the --json
// output of bench/micro_kernels, write_pipeline, read_pipeline,
// series_pipeline and obs_overhead), and the bench trajectory those
// documents accumulate.
//
//   bench_check [--seed SEED.json] BENCH.json
//       validate the document and apply every gate whose rows it carries;
//       exit 1 when a gate fails or none applies (a silently skipped gate
//       looks exactly like a passing one)
//   bench_check history --label L [--append TRAJ.json] [--out OUT.json] BENCH.json...
//       fold the documents' rows into one run labeled L of a
//       bat-bench-trajectory-v1 document; a label already in the
//       trajectory is replaced (CI retries). --out defaults to the --append
//       path; with neither, the trajectory goes to stdout
//   bench_check history --print TRAJ.json
//       render a trajectory as a metric x run table
//
// The gates are the rows of kGates, plus bat_tiling and the prof stage
// shares, which need more than one row pair (docs/PERFORMANCE.md, "CI
// gates"). Two bounds can be raised from the environment for shared CI
// runners: BAT_BENCH_MAX_BAT_BUILD_NS and BAT_BENCH_MAX_SERIES_TOTAL_RATIO.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace {

using bat::obs::json::Value;

/// A failed gate or an unusable document; main() prints it and exits 1.
struct Failure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Failure("cannot open " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Value load_json(const std::string& path) {
    try {
        return bat::obs::json::parse(read_file(path));
    } catch (const bat::Error& e) {
        throw Failure(path + ": malformed JSON: " + e.what());
    }
}

const std::string* schema_of(const Value& doc) {
    const Value* schema = doc.find("schema");
    return schema != nullptr && schema->is_string() ? &schema->string() : nullptr;
}

// ---- the bat-bench-v1 reader ---------------------------------------------------

struct Row {
    std::string name;
    double n = 0;
    double ns_op = 0;  // a count row ("unit" other than ns/op) carries its count in n,
                       // or a value over the population n here
    std::string unit;

    std::uint64_t count() const { return static_cast<std::uint64_t>(n); }
};

/// A validated bat-bench-v1 document's rows, in document order.
struct Bench {
    std::vector<Row> rows;

    /// The row named `name`, or nullptr when it is absent or appears at two
    /// different n (a pair of such rows compares nothing in particular).
    const Row* find(const std::string& name) const {
        const Row* found = nullptr;
        for (const Row& row : rows) {
            if (row.name != name) {
                continue;
            }
            if (found != nullptr && found->count() != row.count()) {
                return nullptr;
            }
            found = &row;
        }
        return found;
    }
};

Bench load_bench(const std::string& path) {
    const Value doc = load_json(path);
    const std::string* schema = schema_of(doc);
    if (schema == nullptr || *schema != "bat-bench-v1") {
        throw Failure(path + ": not a bat-bench-v1 document");
    }
    const Value* benchmarks = doc.find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array() || benchmarks->array().empty()) {
        throw Failure(path + ": \"benchmarks\" missing, not an array, or empty");
    }
    Bench bench;
    for (const Value& b : benchmarks->array()) {
        if (!b.is_object()) {
            throw Failure(path + ": benchmark entry is not an object");
        }
        const Value* name = b.find("name");
        if (name == nullptr || !name->is_string() || name->string().empty()) {
            throw Failure(path + ": benchmark entry missing string \"name\"");
        }
        const auto number = [&b](const char* key) {
            const Value* v = b.find(key);
            return v != nullptr && v->is_number() ? v->number() : std::nan("");
        };
        Row row{name->string(), number("n"), number("ns_op"), "ns/op"};
        if (!(row.n > 0)) {
            throw Failure(row.name + ": missing positive \"n\"");
        }
        // `unit` is optional (older documents are all ns/op rows). Other
        // rows carry ns_op >= 0: 0 on a count row (the count is n), or a
        // value that may be 0 over the population n (prof.attributed_pct,
        // the series treelet rows); rate rows must be positive.
        if (const Value* unit = b.find("unit"); unit != nullptr) {
            if (!unit->is_string()) {
                throw Failure(row.name + ": \"unit\" is not a string");
            }
            row.unit = unit->string();
        }
        const bool rate = row.unit == "ns/op";
        if (!(rate ? row.ns_op > 0 : row.ns_op >= 0)) {
            throw Failure(row.name + (rate ? ": missing positive \"ns_op\""
                                           : ": negative \"ns_op\""));
        }
        if (!(number("bytes_per_sec") >= 0)) {
            throw Failure(row.name + ": missing \"bytes_per_sec\"");
        }
        if (!(number("threads") >= 1)) {
            throw Failure(row.name + ": missing \"threads\" >= 1");
        }
        bench.rows.push_back(std::move(row));
    }
    return bench;
}

// ---- the gate table --------------------------------------------------------------

enum GateFlags : unsigned {
    kCount = 1u << 0,     // compare the rows' `n` (count rows), not ns_op
    kPaired = 1u << 1,    // the baseline row alone also applies the gate
    kPartner = 1u << 2,   // the bound is on the row's own value; the baseline
                          // row must only appear next to it
    kFloor1M = 1u << 3,   // the row must have run at n >= 2^20
    kUnseeded = 1u << 4,  // applies only when the --seed document lacks the row
};

/// Baseline: the same row in the --seed document.
const char* const kSeed = "--seed";

struct Gate {
    const char* row;   // "series.*." rows expand over the series groups
    const char* base;  // baseline row, kSeed, or nullptr (a bound on the row)
    bool at_least;     // a minimum — on base/row, a speedup — or a maximum on row/base
    double bound;
    unsigned flags;
    const char* env;  // overrides the bound; only where CI sets one
};

// Order is report order; every gate that applies must hold.
const Gate kGates[] = {
    // simd: the vector kernel tiers must pay for their dispatch. The rows
    // exist only when a vector tier is active, so scalar-only hosts skip.
    {"morton_encode_simd", "morton_encode_scalar", true, 1.5, kPaired | kFloor1M, nullptr},
    {"bitmap_bin_simd", "bitmap_bin_scalar", true, 1.0, kPaired | kFloor1M, nullptr},
    // serve: pooled leaf serving must not lose to the serial comm thread.
    {"read.serve_pool", "read.serve_serial", true, 1.0, kPaired | kFloor1M, nullptr},
    // querytrace, prof: armed per-query tracing and the profiler cost at
    // most 5% of the unarmed read (bench/obs_overhead); at least 90% of
    // profiler samples carry a span attribution (bench/write_pipeline).
    {"read.total_querytrace", "read.total_off", false, 1.05, kPaired, nullptr},
    {"read.total_prof", "read.total_off", false, 1.05, 0, nullptr},
    {"prof.attributed_pct", "prof.samples", true, 90.0, kPaired | kPartner, nullptr},
    // series: per series.<w> group, delta steps must write under 0.40x the
    // full-rewrite bytes, be no slower end to end, and have referenced at
    // least one prior treelet (else the incremental path degraded to full
    // rewrites). The treelet rows carry their count in ns_op, the judged
    // treelets in n.
    {"series.*.treelets_clean", "series.*.treelets_written", true, 1, kPartner, nullptr},
    {"series.*.steady_bytes_delta", "series.*.steady_bytes_full", false, 0.40, kCount,
     nullptr},
    {"series.*.write_total_delta", "series.*.write_total_full", false, 1.0, 0,
     "BAT_BENCH_MAX_SERIES_TOTAL_RATIO"},
    // bat_build: a same-host ratio against the seed run when it has the
    // row; otherwise an absolute ceiling calibrated for a quiet multi-core
    // reference host, which slower machines must raise.
    {"write.bat_build", kSeed, false, 1.25, kFloor1M, nullptr},
    {"write.bat_build", nullptr, false, 140.0, kFloor1M | kUnseeded,
     "BAT_BENCH_MAX_BAT_BUILD_NS"},
};

/// A series.<w> group is named by its full-rewrite bytes row; every
/// series.* gate applies to every group, so all its rows must be present.
const std::string kSeriesWildcard = "series.*";
const std::string kSeriesAnchor = ".steady_bytes_full";

double bound_of(const Gate& g) {
    const char* env = g.env != nullptr ? std::getenv(g.env) : nullptr;
    if (env == nullptr || *env == '\0') {
        return g.bound;
    }
    const double bound = std::atof(env);
    if (bound <= 0) {
        throw Failure(std::string(g.env) + " is not a positive number");
    }
    return bound;
}

/// Apply `g` to the rows `name` and `base_name` (wildcards expanded);
/// `group` = a series group exists, so the gate applies. Returns the number
/// of comparisons made (0 = the gate does not apply).
int apply(const Gate& g, const std::string& name, const std::string& base_name, bool group,
          const Bench& doc, const Bench* seed) {
    const Row* row = doc.find(name);
    const Row* base = nullptr;
    const bool seeded = g.base == kSeed;
    if (seeded || g.base == nullptr) {
        const Row* seed_row = seed != nullptr ? seed->find(name) : nullptr;
        if (row == nullptr || (seeded ? seed_row == nullptr
                                      : (g.flags & kUnseeded) != 0 && seed_row != nullptr)) {
            return 0;
        }
        base = seeded ? seed_row : nullptr;
    } else {
        base = doc.find(base_name);
        if (!group && row == nullptr && (base == nullptr || (g.flags & kPaired) == 0)) {
            return 0;
        }
        if (row == nullptr || base == nullptr) {
            throw Failure(base_name + "/" + name + " must appear together (once each)");
        }
    }
    const bool ratio = base != nullptr && (g.flags & kPartner) == 0;
    if (ratio && !seeded && (g.flags & kCount) == 0 && row->count() != base->count()) {
        throw Failure(name + " and " + base_name + " ran at different n");
    }
    if ((g.flags & kFloor1M) != 0 && row->count() < (1u << 20)) {
        throw Failure(name + " ran below the 1M-particle gate size");
    }
    const double bound = bound_of(g);
    const auto field = [&](const Row& r) {
        return (g.flags & kCount) != 0 ? static_cast<double>(r.count()) : r.ns_op;
    };
    const double own = field(*row);
    double value = own;
    if (ratio) {
        if (field(*base) <= 0) {
            throw Failure(name + ": baseline " + base_name + " is zero");
        }
        value = g.at_least ? field(*base) / own : own / field(*base);
    }
    const auto show = [&g](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), (g.flags & kCount) != 0 ? "%.0f" : "%.3f", v);
        return std::string(buf);
    };
    const char* limit = g.at_least ? "min" : "max";
    if (ratio) {
        std::printf("bench_check: %s %s vs %s %s (%.3fx, %s %.2fx)\n", name.c_str(),
                    show(own).c_str(), seeded ? "seed" : base_name.c_str(),
                    show(field(*base)).c_str(), value, limit, bound);
    } else {
        std::printf("bench_check: %s %s (%s %g)\n", name.c_str(), show(own).c_str(), limit,
                    bound);
    }
    if (g.at_least ? value < bound : value > bound) {
        char msg[64];
        std::snprintf(msg, sizeof(msg), " %.3f%s %s the bound %g", value, ratio ? "x" : "",
                      g.at_least ? "below" : "above", bound);
        throw Failure(name + msg + (seeded ? " (vs the seed run)" : ""));
    }
    return 1;
}

/// Every kGates row against `doc`, series.* rows once per series group.
int apply_table(const Bench& doc, const Bench* seed) {
    std::set<std::string> groups;  // "series.<w>"
    for (const Row& row : doc.rows) {
        const std::string& n = row.name;
        if (n.starts_with("series.") && n.ends_with(kSeriesAnchor)) {
            groups.insert(n.substr(0, n.size() - kSeriesAnchor.size()));
        }
    }
    const std::size_t wild = kSeriesWildcard.size();
    int gated = 0;
    for (const Gate& g : kGates) {
        const std::string row = g.row;
        const std::string base = g.base != nullptr && g.base != kSeed ? g.base : "";
        if (!row.starts_with(kSeriesWildcard)) {
            gated += apply(g, row, base, false, doc, seed);
            continue;
        }
        for (const std::string& group : groups) {
            gated += apply(g, group + row.substr(wild), group + base.substr(wild), true, doc, seed);
        }
    }
    return gated;
}

// ---- gates that sum over several rows -------------------------------------------

/// build_bat's stage rows (the bat.* spans), in build order.
const char* const kBatStages[] = {"bat.edges",    "bat.encode",  "bat.sort",
                                  "bat.treelets", "bat.reorder", "bat.bitmaps"};

/// bat_tiling: the bat.* stage rows come from the rank whose build is the
/// write.bat_build row, and the stages run one after another inside that
/// phase, so they must sum to no more than it.
int gate_bat_tiling(const Bench& doc) {
    const Row* build = doc.find("write.bat_build");
    if (build == nullptr) {
        return 0;
    }
    double sum = 0;
    int stages = 0;
    for (const char* stage : kBatStages) {
        if (const Row* row = doc.find(stage); row != nullptr) {
            if (row->count() != build->count()) {
                throw Failure(std::string(stage) + " ran at a different n than write.bat_build");
            }
            sum += row->ns_op;
            ++stages;
        }
    }
    if (stages == 0) {
        return 0;
    }
    std::printf("bench_check: bat.* sum %.3f vs write.bat_build %.3f (%.3fx)\n", sum,
                build->ns_op, sum / build->ns_op);
    // Rows are printed to 0.001 ns/op; allow only that rounding.
    if (sum > build->ns_op + 0.0005 * (stages + 1)) {
        throw Failure("bat.* stages sum above write.bat_build: they must come from the "
                      "same rank");
    }
    return 1;
}

/// prof shares: each builder stage's profiler sample share (prof.share.*)
/// must lie within 15 points of its wall share. Wall shares come from the
/// prof.wall.bat.* rows (the ranks and runs the samples cover) when present,
/// else from the bat.* ns/op rows, normalized over the stages found. A stage
/// with no prof.share row was never sampled (zero-n rows are not
/// representable). Only stages with >= 10% of the wall are gated: at
/// ~100 ms of bat_build per run, a 5% stage collects too few 97 Hz samples
/// to bound tightly.
int gate_prof_shares(const Bench& doc) {
    constexpr double kMaxDelta = 15.0;
    constexpr double kMinWallShare = 10.0;
    std::map<std::string, double> wall;
    std::map<std::string, double> sampled;
    double wall_total = 0;
    for (const char* stage : kBatStages) {
        const Row* row = doc.find(std::string("prof.wall.") + stage);
        if (row == nullptr) {
            row = doc.find(stage);
        }
        if (row != nullptr) {
            wall[stage] = row->ns_op;
            wall_total += row->ns_op;
        }
        if (const Row* share = doc.find(std::string("prof.share.") + stage)) {
            sampled[stage] = share->ns_op;  // ns_op carries the share in percent
        }
    }
    if (sampled.empty()) {
        return 0;  // not a profiler-armed write_pipeline run
    }
    if (wall_total <= 0) {
        throw Failure("prof.share.bat.* rows present without bat.* wall-time rows");
    }
    int gated = 0;
    for (const char* stage : kBatStages) {
        const double wall_share = 100.0 * wall[stage] / wall_total;
        const double delta = sampled[stage] - wall_share;
        const bool gate = wall_share >= kMinWallShare;
        std::printf("bench_check: %-14s wall %5.1f%% sampled %5.1f%% (delta %+5.1f)%s\n",
                    stage, wall_share, sampled[stage], delta, gate ? "" : "  [not gated]");
        if (!gate) {
            continue;
        }
        if (delta > kMaxDelta || delta < -kMaxDelta) {
            throw Failure(std::string(stage) + " sample share deviates from wall share by "
                                               "more than 15 points");
        }
        ++gated;
    }
    return gated;
}

int check(const std::string& path, const std::string& seed_path) {
    const Bench doc = load_bench(path);
    // A previous same-host run turns absolute ceilings into before/after
    // ratio gates where its rows overlap.
    const Bench seed = seed_path.empty() ? Bench{} : load_bench(seed_path);
    const int gated = gate_bat_tiling(doc) + gate_prof_shares(doc) +
                      apply_table(doc, seed_path.empty() ? nullptr : &seed);
    if (gated == 0) {
        throw Failure("no gateable rows (morton_encode_*, bitmap_bin_*, read.serve_*, "
                      "read.total_*, prof.*, series.*, write.bat_build) found");
    }
    std::printf("bench_check: OK (%zu entries, %d gated comparisons)\n", doc.rows.size(),
                gated);
    return 0;
}

// ---- history: the bat-bench-trajectory-v1 document ------------------------------

struct Run {
    std::string label;
    std::vector<std::string> sources;
    std::vector<Row> rows;
};

double num_or(const Value& obj, const char* key, double fallback) {
    const Value* v = obj.find(key);
    return v != nullptr && v->is_number() ? v->number() : fallback;
}

std::string str_or(const Value& obj, const char* key, const char* fallback) {
    const Value* v = obj.find(key);
    return v != nullptr && v->is_string() ? v->string() : fallback;
}

std::vector<Run> load_trajectory(const std::string& path) {
    const Value root = load_json(path);
    const std::string* schema = schema_of(root);
    if (schema == nullptr || *schema != "bat-bench-trajectory-v1") {
        throw Failure(path + ": not a bat-bench-trajectory-v1 file");
    }
    std::vector<Run> runs;
    const Value* runs_v = root.find("runs");
    if (runs_v == nullptr || !runs_v->is_array()) {
        return runs;
    }
    for (const Value& r : runs_v->array()) {
        Run run;
        run.label = str_or(r, "label", "");
        if (const Value* sources = r.find("sources"); sources != nullptr && sources->is_array()) {
            for (const Value& s : sources->array()) {
                run.sources.push_back(s.string());
            }
        }
        if (const Value* rows = r.find("rows"); rows != nullptr && rows->is_array()) {
            for (const Value& row : rows->array()) {
                run.rows.push_back({str_or(row, "name", ""), num_or(row, "n", 0),
                                    num_or(row, "ns_op", 0), str_or(row, "unit", "ns/op")});
            }
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

std::string json_escape(const std::string& in) {
    std::string out;
    for (const char c : in) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out;
}

std::string render_trajectory(const std::vector<Run>& runs) {
    std::string out = "{\n  \"schema\": \"bat-bench-trajectory-v1\",\n  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run& run = runs[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"label\": \"" + json_escape(run.label) + "\", \"sources\": [";
        for (std::size_t s = 0; s < run.sources.size(); ++s) {
            out += (s == 0 ? "\"" : ", \"") + json_escape(run.sources[s]) + "\"";
        }
        out += "], \"rows\": [";
        for (std::size_t r = 0; r < run.rows.size(); ++r) {
            const Row& row = run.rows[r];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"n\": %.0f, \"ns_op\": %.3f, \"unit\": \"%s\"}",
                          json_escape(row.name).c_str(), row.n, row.ns_op,
                          json_escape(row.unit).c_str());
            out += r == 0 ? "\n      " : ",\n      ";
            out += buf;
        }
        out += run.rows.empty() ? "]}" : "\n    ]}";
    }
    out += runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void print_trajectory(const std::vector<Run>& runs) {
    // A metric is a row name at one n (a gate's identity); its unit rides along.
    std::map<std::string, std::map<std::string, double>> by_metric;
    std::vector<std::string> labels;
    for (const Run& run : runs) {
        labels.push_back(run.label);
        for (const Row& row : run.rows) {
            by_metric[row.name + " @ " + std::to_string(static_cast<long long>(row.n)) + " [" +
                      row.unit + "]"][run.label] = row.ns_op;
        }
    }
    std::printf("%-52s", "metric");
    for (const std::string& label : labels) {
        std::printf(" %14s", label.c_str());
    }
    std::printf("\n");
    for (const auto& [metric, values] : by_metric) {
        std::printf("%-52s", metric.c_str());
        for (const std::string& label : labels) {
            const auto it = values.find(label);
            if (it != values.end()) {
                std::printf(" %14.3f", it->second);
            } else {
                std::printf(" %14s", "-");
            }
        }
        std::printf("\n");
    }
    std::printf("%zu run(s), %zu metric(s)\n", runs.size(), by_metric.size());
}

int history(const std::string& label, const std::string& append_path, std::string out_path,
            const std::vector<std::string>& inputs) {
    std::vector<Run> runs;
    if (!append_path.empty() && std::ifstream(append_path).good()) {
        runs = load_trajectory(append_path);
    }
    Run run;
    run.label = label;
    for (const std::string& input : inputs) {
        // Directories stripped, so CI paths do not leak into the artifact.
        const std::size_t slash = input.find_last_of('/');
        run.sources.push_back(slash == std::string::npos ? input : input.substr(slash + 1));
        for (Row& row : load_bench(input).rows) {
            run.rows.push_back(std::move(row));
        }
    }
    std::erase_if(runs, [&label](const Run& r) { return r.label == label; });
    runs.push_back(std::move(run));
    const std::string rendered = render_trajectory(runs);
    if (out_path.empty()) {
        out_path = append_path;
    }
    if (out_path.empty()) {
        std::fputs(rendered.c_str(), stdout);
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out.write(rendered.data(), static_cast<std::streamsize>(rendered.size()))) {
        throw Failure("cannot write " + out_path);
    }
    std::printf("bench_check: %zu run(s) -> %s\n", runs.size(), out_path.c_str());
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: bench_check [--seed SEED.json] BENCH.json\n"
                 "       bench_check history --label L [--append TRAJ.json] [--out OUT.json] "
                 "BENCH.json...\n"
                 "       bench_check history --print TRAJ.json\n");
    return 2;
}

int run(int argc, char** argv) {
    const bool is_history = argc > 1 && std::strcmp(argv[1], "history") == 0;
    std::map<std::string, std::string> opts;
    std::vector<std::string> paths;
    for (int i = is_history ? 2 : 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() > 2 && arg.rfind("--", 0) == 0 && i + 1 < argc) {
            opts[arg] = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    const auto opt = [&opts](const char* flag) {
        const auto it = opts.find(flag);
        return it != opts.end() ? it->second : std::string();
    };
    const std::set<std::string> known =
        is_history ? std::set<std::string>{"--label", "--append", "--out", "--print"}
                   : std::set<std::string>{"--seed"};
    for (const auto& [flag, value] : opts) {
        if (known.count(flag) == 0) {
            return usage();
        }
    }
    if (!is_history) {
        return paths.size() == 1 ? check(paths[0], opt("--seed")) : usage();
    }
    if (!opt("--print").empty()) {
        print_trajectory(load_trajectory(opt("--print")));
        return 0;
    }
    if (opt("--label").empty() || paths.empty()) {
        return usage();
    }
    return history(opt("--label"), opt("--append"), opt("--out"), paths);
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_check: FAIL: %s\n", e.what());
        return 1;
    }
}
