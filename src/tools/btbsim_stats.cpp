/**
 * @file
 * btbsim-stats — inspect and compare btbsim result JSON (schema v2,
 * see obs/export.h; every command loads through obs/result_doc.h).
 *
 *   btbsim-stats show <file.json>
 *       Validate the file and print per-config aggregates, with a
 *       sparkline of the interval IPC time series when present.
 *
 *   btbsim-stats diff <old.json> <new.json> [--threshold FRAC]
 *       Match runs by (config, workload), compare per-config geomean IPC
 *       and exit 1 when any config regresses by more than FRAC (default
 *       0.02 = 2%). Used by CI as a regression gate. At FRAC 0 the gate
 *       is exact instead: both files must hold the same runs, with equal
 *       "stats", "counters" and "samples" (keys present in both); the
 *       first differing field is named.
 *
 *   btbsim-stats prof <file.json>
 *       Render the host span profile as an indented tree: where the
 *       simulator itself spent its wall time (warmup vs measure vs
 *       export, experiment-engine stages).
 *
 *   btbsim-stats prof --compare <a.json> <b.json>
 *       Side-by-side wall-time comparison of two profiles by span path.
 *
 *   btbsim-stats env [--markdown]
 *       Dump every BTBSIM_* knob the simulator honours (common/env.h
 *       facade): name, default, current value, description. --markdown
 *       emits the README env-var table.
 *
 * Exit codes: 0 ok, 1 regression found, 2 usage or parse error.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/stats.h"
#include "obs/json.h"
#include "obs/result_doc.h"

namespace {

using btbsim::geomean;
using btbsim::SimStats;
using btbsim::obs::ResultDoc;
using btbsim::obs::SpanAgg;
using btbsim::obs::SpanProfile;

std::map<std::string, std::vector<double>>
ipcByConfig(const ResultDoc &doc)
{
    std::map<std::string, std::vector<double>> out;
    for (const SimStats &r : doc.runs)
        out[r.config].push_back(r.ipc);
    return out;
}

int
cmdShow(const std::string &path)
{
    const ResultDoc doc = btbsim::obs::loadResultDoc(path);
    std::printf("%s: schema v%d, bench \"%s\", %zu runs\n", path.c_str(),
                doc.schema_version, doc.bench.c_str(), doc.runs.size());
    std::printf("%-32s %6s %12s %9s  %s\n", "config", "runs", "geomean IPC",
                "samples", "ipc over time");
    std::printf("%s\n", std::string(96, '-').c_str());

    // Per-config sample tally and interval-IPC series (runs in file
    // order, concatenated — a coarse shape, not a per-run plot).
    std::map<std::string, std::size_t> samples;
    std::map<std::string, std::vector<double>> series;
    for (const SimStats &r : doc.runs) {
        samples[r.config] += r.samples.size();
        for (const btbsim::obs::IntervalSample &p : r.samples)
            series[r.config].push_back(p.ipc);
    }
    for (const auto &[cfg, ipcs] : ipcByConfig(doc))
        std::printf("%-32s %6zu %12.3f %9zu  %s\n", cfg.c_str(),
                    ipcs.size(), geomean(ipcs), samples[cfg],
                    btbsim::obs::sparkline(series[cfg]).c_str());
    return 0;
}

int
cmdDiff(const std::string &old_path, const std::string &new_path,
        double threshold)
{
    const btbsim::obs::JsonValue old_root = btbsim::obs::loadJson(old_path);
    const btbsim::obs::JsonValue new_root = btbsim::obs::loadJson(new_path);
    const ResultDoc a = btbsim::obs::parseResultDoc(old_root, old_path);
    const ResultDoc b = btbsim::obs::parseResultDoc(new_root, new_path);

    std::map<std::pair<std::string, std::string>, double> old_ipc;
    for (const SimStats &r : a.runs)
        old_ipc[{r.config, r.workload}] = r.ipc;

    // Per-config geomean over the runs present in BOTH files.
    std::map<std::string, std::vector<double>> old_by_cfg, new_by_cfg;
    std::size_t matched = 0;
    for (const SimStats &r : b.runs) {
        auto it = old_ipc.find({r.config, r.workload});
        if (it == old_ipc.end())
            continue;
        ++matched;
        old_by_cfg[r.config].push_back(it->second);
        new_by_cfg[r.config].push_back(r.ipc);
    }

    if (matched == 0) {
        std::fprintf(stderr,
                     "no (config, workload) pairs in common between %s "
                     "and %s\n",
                     old_path.c_str(), new_path.c_str());
        return 2;
    }

    std::printf("%zu matched runs; regression threshold %.1f%%\n\n", matched,
                threshold * 100.0);
    std::printf("%-32s %10s %10s %9s\n", "config", "old IPC", "new IPC",
                "delta");
    std::printf("%s\n", std::string(64, '-').c_str());

    bool regression = false;
    for (const auto &[cfg, old_v] : old_by_cfg) {
        const double g_old = geomean(old_v);
        const double g_new = geomean(new_by_cfg[cfg]);
        const double delta = g_old > 0 ? (g_new - g_old) / g_old : 0.0;
        const bool bad = delta < -threshold;
        regression = regression || bad;
        std::printf("%-32s %10.3f %10.3f %+8.2f%%%s\n", cfg.c_str(), g_old,
                    g_new, delta * 100.0, bad ? "  <-- REGRESSION" : "");
    }

    if (regression) {
        std::printf("\nIPC regression beyond %.1f%% detected.\n",
                    threshold * 100.0);
        return 1;
    }
    if (threshold == 0.0) {
        const std::string d =
            btbsim::obs::firstRunDifference(old_root, new_root);
        if (!d.empty()) {
            std::printf("\nnot identical: %s\n", d.c_str());
            return 1;
        }
        std::printf("\nall runs identical.\n");
        return 0;
    }
    std::printf("\nno IPC regression beyond %.1f%%.\n", threshold * 100.0);
    return 0;
}

// ---- prof ---------------------------------------------------------------

std::uint16_t
pathDepth(const std::string &path)
{
    std::uint16_t d = 0;
    for (char c : path)
        if (c == '/')
            ++d;
    return d;
}

std::string
pathLeaf(const std::string &path)
{
    const std::size_t pos = path.rfind('/');
    return pos == std::string::npos ? path : path.substr(pos + 1);
}

/** Wall time summed over root-level paths — the denominator of "%". */
std::uint64_t
rootWallNs(const SpanProfile &spans)
{
    std::uint64_t total = 0;
    for (const auto &[path, a] : spans)
        if (pathDepth(path) == 0)
            total += a.wall_ns;
    return total;
}

int
cmdProf(const std::string &path)
{
    const ResultDoc doc = btbsim::obs::loadResultDoc(path);
    const SpanProfile &spans = doc.profile.spans;

    std::printf("%s: schema v%d, bench \"%s\", %zu runs\n", path.c_str(),
                doc.schema_version, doc.bench.c_str(), doc.runs.size());
    if (spans.empty()) {
        std::printf("no host span profile in this document "
                    "(BTBSIM_SPANS=0 when it was produced?)\n");
        return 0;
    }
    std::printf("profile: %llu spans on %u thread(s), %llu trace "
                "record(s) dropped\n",
                static_cast<unsigned long long>(doc.profile.total_spans),
                doc.profile.threads,
                static_cast<unsigned long long>(doc.profile.dropped));

    std::printf("\n%-36s %8s %10s %6s %9s\n", "span", "count", "wall(s)",
                "%", "avg(ms)");
    std::printf("%s\n", std::string(78, '-').c_str());

    // std::map iterates paths lexicographically, so every span follows
    // its ancestors; indentation by depth renders the tree.
    const double total_ns = static_cast<double>(rootWallNs(spans));
    for (const auto &[span_path, a] : spans) {
        const std::uint16_t depth = pathDepth(span_path);
        const std::string label =
            std::string(2 * depth, ' ') + pathLeaf(span_path);
        const double wall_s = static_cast<double>(a.wall_ns) / 1e9;
        const double pct =
            total_ns > 0
                ? static_cast<double>(a.wall_ns) / total_ns * 100.0
                : 0.0;
        const double avg_ms =
            a.count > 0
                ? static_cast<double>(a.wall_ns) / 1e6 /
                      static_cast<double>(a.count)
                : 0.0;
        std::printf("%-36s %8llu %10.3f %5.1f%% %9.3f\n", label.c_str(),
                    static_cast<unsigned long long>(a.count), wall_s, pct,
                    avg_ms);
    }
    return 0;
}

int
cmdProfCompare(const std::string &a_path, const std::string &b_path)
{
    const ResultDoc a = btbsim::obs::loadResultDoc(a_path);
    const ResultDoc b = btbsim::obs::loadResultDoc(b_path);
    const SpanProfile &sa = a.profile.spans;
    const SpanProfile &sb = b.profile.spans;

    // Union of paths, lexicographic (tree order).
    std::map<std::string, std::pair<const SpanAgg *, const SpanAgg *>> all;
    for (const auto &[p, agg] : sa)
        all[p].first = &agg;
    for (const auto &[p, agg] : sb)
        all[p].second = &agg;

    if (all.empty()) {
        std::fprintf(stderr, "neither %s nor %s holds a span profile\n",
                     a_path.c_str(), b_path.c_str());
        return 2;
    }

    std::printf("span wall-time comparison: A=%s  B=%s\n\n", a_path.c_str(),
                b_path.c_str());
    std::printf("%-36s %10s %10s %9s\n", "span", "A wall(s)", "B wall(s)",
                "delta");
    std::printf("%s\n", std::string(70, '-').c_str());
    for (const auto &[span_path, pair] : all) {
        const std::string label =
            std::string(2 * pathDepth(span_path), ' ') + pathLeaf(span_path);
        const double wa =
            pair.first ? static_cast<double>(pair.first->wall_ns) / 1e9 : 0.0;
        const double wb =
            pair.second ? static_cast<double>(pair.second->wall_ns) / 1e9
                        : 0.0;
        if (wa > 0 && wb > 0)
            std::printf("%-36s %10.3f %10.3f %+8.1f%%\n", label.c_str(), wa,
                        wb, (wb - wa) / wa * 100.0);
        else
            std::printf("%-36s %10.3f %10.3f %9s\n", label.c_str(), wa, wb,
                        pair.first ? "A only" : "B only");
    }
    return 0;
}

int
cmdEnv(bool markdown)
{
    if (markdown) {
        std::printf("| Variable | Default | Description |\n");
        std::printf("| --- | --- | --- |\n");
        for (const btbsim::env::Knob &k : btbsim::env::knobs())
            std::printf("| `%s` | `%s` | %s |\n", k.name,
                        *k.fallback ? k.fallback : "(unset)", k.description);
        return 0;
    }
    std::printf("%-24s %-16s %-16s %s\n", "variable", "default", "current",
                "description");
    std::printf("%s\n", std::string(100, '-').c_str());
    for (const btbsim::env::Knob &k : btbsim::env::knobs()) {
        const std::string cur = btbsim::env::isSet(k.name)
                                    ? btbsim::env::raw(k.name)
                                    : "(unset)";
        std::printf("%-24s %-16s %-16s %s\n", k.name,
                    *k.fallback ? k.fallback : "(unset)", cur.c_str(),
                    k.description);
    }
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: btbsim-stats show <file.json>\n"
        "       btbsim-stats diff <old.json> <new.json> [--threshold F]\n"
        "       btbsim-stats prof <file.json>\n"
        "       btbsim-stats prof --compare <a.json> <b.json>\n"
        "       btbsim-stats env [--markdown]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 3 && std::strcmp(argv[1], "show") == 0)
            return cmdShow(argv[2]);
        if (argc >= 2 && std::strcmp(argv[1], "env") == 0)
            return cmdEnv(argc >= 3 &&
                          std::strcmp(argv[2], "--markdown") == 0);
        if (argc >= 3 && std::strcmp(argv[1], "prof") == 0) {
            if (std::strcmp(argv[2], "--compare") == 0) {
                if (argc < 5) {
                    usage();
                    return 2;
                }
                return cmdProfCompare(argv[3], argv[4]);
            }
            return cmdProf(argv[2]);
        }
        if (argc >= 4 && std::strcmp(argv[1], "diff") == 0) {
            double threshold = 0.02;
            for (int i = 4; i + 1 < argc; ++i)
                if (std::strcmp(argv[i], "--threshold") == 0)
                    threshold = std::atof(argv[i + 1]);
            return cmdDiff(argv[2], argv[3], threshold);
        }
        usage();
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "btbsim-stats: %s\n", e.what());
        return 2;
    }
}
