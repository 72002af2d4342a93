#include "obs/result_doc.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/export.h"
#include "obs/json.h"

namespace btbsim::obs {

SpanProfile
ResultDoc::mergedSpans() const
{
    // The whole-process profile block already aggregates every span,
    // including the ones each run's host.spans re-states as a per-run
    // slice — summing both would double-count. Runs are the fallback
    // for documents without a profile block.
    if (has_profile && !profile.spans.empty())
        return profile.spans;
    SpanProfile out;
    for (const SimStats &r : runs)
        for (const auto &[path, agg] : r.span_profile)
            out[path] += agg;
    return out;
}

ResultDoc
parseResultDoc(const JsonValue &root, const std::string &origin)
{
    ResultDoc doc;
    doc.schema_version =
        static_cast<int>(root.at("schema_version").asNumber());
    if (doc.schema_version != kSchemaVersion)
        throw std::runtime_error(
            origin + ": unsupported schema_version " +
            std::to_string(doc.schema_version) + " (tool supports " +
            std::to_string(kSchemaVersion) + ")");
    if (const JsonValue *b = root.find("bench"))
        doc.bench = b->isString() ? b->str : "";

    for (const JsonValue &r : root.at("runs").array)
        doc.runs.push_back(simStatsFromJson(r));

    if (const JsonValue *p = root.find("profile")) {
        doc.has_profile = true;
        doc.profile.total_spans =
            static_cast<std::uint64_t>(p->at("total_spans").asNumber());
        doc.profile.dropped =
            static_cast<std::uint64_t>(p->at("dropped").asNumber());
        doc.profile.threads =
            static_cast<std::uint32_t>(p->at("threads").asNumber());
        doc.profile.spans = spanProfileFromJson(p->at("spans"));
    }
    return doc;
}

ResultDoc
loadResultDoc(const std::string &path)
{
    return parseResultDoc(loadJson(path), path);
}

JsonValue
loadJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseJson(buf.str());
}

namespace {

std::string
exactNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** First difference between @p a and @p b at @p path ("" when equal);
 *  objects compare only the keys both hold. */
std::string
firstValueDifference(const JsonValue &a, const JsonValue &b,
                     const std::string &path)
{
    if (a.type != b.type)
        return path + ": value types differ";
    switch (a.type) {
      case JsonValue::Type::kNull:
        return "";
      case JsonValue::Type::kBool:
        return a.boolean == b.boolean ? "" : path + ": booleans differ";
      case JsonValue::Type::kNumber:
        return a.number == b.number ? ""
            : path + ": " + exactNumber(a.number) + " vs " +
                exactNumber(b.number);
      case JsonValue::Type::kString:
        return a.str == b.str ? ""
                              : path + ": \"" + a.str + "\" vs \"" +
                                    b.str + "\"";
      case JsonValue::Type::kArray:
        if (a.array.size() != b.array.size())
            return path + ": " + std::to_string(a.array.size()) + " vs " +
                   std::to_string(b.array.size()) + " elements";
        for (std::size_t i = 0; i < a.array.size(); ++i) {
            std::string d = firstValueDifference(
                a.array[i], b.array[i], path + "[" + std::to_string(i) + "]");
            if (!d.empty())
                return d;
        }
        return "";
      case JsonValue::Type::kObject:
        for (const auto &[key, va] : a.object) {
            const JsonValue *vb = b.find(key);
            if (!vb)
                continue;
            std::string d = firstValueDifference(va, *vb, path + "." + key);
            if (!d.empty())
                return d;
        }
        return "";
    }
    return "";
}

/** Runs of a document by "config / workload", in file order. */
std::map<std::string, std::vector<const JsonValue *>>
runsByKey(const JsonValue &root)
{
    std::map<std::string, std::vector<const JsonValue *>> out;
    for (const JsonValue &r : root.at("runs").array)
        out[r.at("config").asString() + " / " + r.at("workload").asString()]
            .push_back(&r);
    return out;
}

} // namespace

std::string
firstRunDifference(const JsonValue &old_root, const JsonValue &new_root)
{
    const auto old_runs = runsByKey(old_root);
    const auto new_runs = runsByKey(new_root);
    for (const auto &[key, runs] : new_runs)
        if (!old_runs.count(key))
            return "run (" + key + ") only in the new file";
    for (const auto &[key, runs] : old_runs) {
        const auto it = new_runs.find(key);
        if (it == new_runs.end())
            return "run (" + key + ") only in the old file";
        if (it->second.size() != runs.size())
            return "run (" + key + ") appears " +
                   std::to_string(runs.size()) + " vs " +
                   std::to_string(it->second.size()) + " times";
        for (std::size_t i = 0; i < runs.size(); ++i)
            for (const char *part : {"stats", "counters", "samples"}) {
                const JsonValue *a = runs[i]->find(part);
                const JsonValue *b = it->second[i]->find(part);
                if (!a || !b)
                    continue;
                std::string d =
                    firstValueDifference(*a, *b, "(" + key + ")." + part);
                if (!d.empty())
                    return d;
            }
    }
    return "";
}

std::string
sparkline(const std::vector<double> &v, std::size_t max_points)
{
    if (v.empty() || max_points == 0)
        return {};

    // Downsample to max_points by averaging adjacent buckets.
    std::vector<double> pts;
    if (v.size() <= max_points) {
        pts = v;
    } else {
        pts.reserve(max_points);
        for (std::size_t b = 0; b < max_points; ++b) {
            const std::size_t lo = b * v.size() / max_points;
            std::size_t hi = (b + 1) * v.size() / max_points;
            if (hi <= lo)
                hi = lo + 1;
            double sum = 0.0;
            for (std::size_t i = lo; i < hi; ++i)
                sum += v[i];
            pts.push_back(sum / static_cast<double>(hi - lo));
        }
    }

    double mn = pts[0], mx = pts[0];
    for (double x : pts) {
        if (x < mn)
            mn = x;
        if (x > mx)
            mx = x;
    }

    // U+2581..U+2588, one UTF-8 triplet per level.
    static const char *kBlocks[8] = {"▁", "▂", "▃",
                                     "▄", "▅", "▆",
                                     "▇", "█"};
    std::string out;
    out.reserve(pts.size() * 3);
    const double range = mx - mn;
    for (double x : pts) {
        int lvl = 3; // Constant series render mid-height.
        if (range > 0) {
            lvl = static_cast<int>((x - mn) / range * 7.0 + 0.5);
            if (lvl < 0)
                lvl = 0;
            if (lvl > 7)
                lvl = 7;
        }
        out += kBlocks[lvl];
    }
    return out;
}

} // namespace btbsim::obs
