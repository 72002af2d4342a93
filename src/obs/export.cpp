#include "obs/export.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "sim/sim_stats.h"

namespace btbsim::obs {

namespace {

/**
 * One numeric member of T and its result-JSON key: a count (emitted as
 * an integer) or a double. The tables below name each field once; the
 * JSON writer, the JSON reader and the runs CSV all iterate them.
 */
template <typename T>
struct Field
{
    const char *name;
    std::uint64_t T::*count = nullptr;
    double T::*value = nullptr;

    constexpr Field(const char *n, std::uint64_t T::*c) : name(n), count(c)
    {}
    constexpr Field(const char *n, double T::*v) : name(n), value(v) {}

    /** Call @p fn with the member of @p obj at its own type. */
    template <typename Fn>
    void
    visit(const T &obj, Fn &&fn) const
    {
        if (count)
            fn(obj.*count);
        else
            fn(obj.*value);
    }
};

/** The "stats" members of a run, in export order. */
constexpr Field<SimStats> kStatFields[] = {
    {"instructions", &SimStats::instructions},
    {"cycles", &SimStats::cycles},
    {"ipc", &SimStats::ipc},
    {"branch_mpki", &SimStats::branch_mpki},
    {"misfetch_pki", &SimStats::misfetch_pki},
    {"combined_mpki", &SimStats::combined_mpki},
    {"cond_mispredict_rate", &SimStats::cond_mispredict_rate},
    {"l1_btb_hitrate", &SimStats::l1_btb_hitrate},
    {"btb_hitrate", &SimStats::btb_hitrate},
    {"fetch_pcs_per_access", &SimStats::fetch_pcs_per_access},
    {"taken_per_ki", &SimStats::taken_per_ki},
    {"l1_slot_occupancy", &SimStats::l1_slot_occupancy},
    {"l2_slot_occupancy", &SimStats::l2_slot_occupancy},
    {"l1_redundancy", &SimStats::l1_redundancy},
    {"l2_redundancy", &SimStats::l2_redundancy},
    {"icache_mpki", &SimStats::icache_mpki},
    {"avg_dyn_bb_size", &SimStats::avg_dyn_bb_size},
};

/** The members of one "samples.points" element, in export order. */
constexpr Field<IntervalSample> kSampleFields[] = {
    {"cycle", &IntervalSample::cycle},
    {"instructions", &IntervalSample::instructions},
    {"ipc", &IntervalSample::ipc},
    {"l1_btb_hitrate", &IntervalSample::l1_btb_hitrate},
    {"btb_hitrate", &IntervalSample::btb_hitrate},
    {"branch_mpki", &IntervalSample::branch_mpki},
    {"misfetch_pki", &IntervalSample::misfetch_pki},
    {"ftq_occupancy", &IntervalSample::ftq_occupancy},
    {"icache_mpki", &IntervalSample::icache_mpki},
};

template <typename T, std::size_t N>
void
writeFields(JsonWriter &w, const T &obj, const Field<T> (&fields)[N])
{
    w.beginObject();
    for (const Field<T> &f : fields)
        f.visit(obj, [&](auto v) { w.kv(f.name, v); });
    w.endObject();
}

/** @p m (the member @p key of the object at @p where) checked to have
 *  type @p type; throws std::runtime_error naming the dotted key. */
const JsonValue &
typed(const JsonValue *m, std::string_view where, std::string_view key,
      JsonValue::Type type)
{
    if (m && m->type == type)
        return *m;
    std::string path(where);
    if (!path.empty())
        path += '.';
    path += key;
    throw std::runtime_error(m ? "run JSON: '" + path + "' has the wrong type"
                               : "run JSON: missing key '" + path + "'");
}

const JsonValue &
member(const JsonValue &obj, std::string_view where, std::string_view key,
       JsonValue::Type type)
{
    return typed(obj.find(key), where, key, type);
}

double
number(const JsonValue *m, std::string_view where, std::string_view key)
{
    // The writer renders a non-finite double as null.
    if (m && m->isNull())
        return std::numeric_limits<double>::quiet_NaN();
    return typed(m, where, key, JsonValue::Type::kNumber).number;
}

std::uint64_t
count(const JsonValue *m, std::string_view where, std::string_view key)
{
    return static_cast<std::uint64_t>(
        typed(m, where, key, JsonValue::Type::kNumber).number);
}

template <typename T, std::size_t N>
void
readFields(const JsonValue &obj, std::string_view where, T &out,
           const Field<T> (&fields)[N])
{
    for (const Field<T> &f : fields) {
        const JsonValue *m = obj.find(f.name);
        if (f.count)
            out.*f.count = count(m, where, f.name);
        else
            out.*f.value = number(m, where, f.name);
    }
}

} // namespace

void
writeSimStatsJson(JsonWriter &w, const SimStats &s)
{
    w.beginObject();
    w.kv("config", s.config);
    w.kv("workload", s.workload);

    w.key("stats");
    writeFields(w, s, kStatFields);

    w.key("counters");
    w.beginObject();
    for (const auto &[name, v] : s.counters)
        w.kv(name, v);
    w.endObject();

    w.key("host");
    w.beginObject();
    w.kv("seconds", s.host_seconds);
    w.kv("minst_per_sec", s.minst_per_host_sec);
    w.key("spans");
    writeSpanProfileJson(w, s.span_profile);
    w.endObject();

    w.key("samples");
    w.beginObject();
    w.kv("interval_cycles", s.sample_interval);
    w.key("points");
    w.beginArray();
    for (const IntervalSample &p : s.samples)
        writeFields(w, p, kSampleFields);
    w.endArray();
    w.endObject();

    w.endObject();
}

SimStats
simStatsFromJson(const JsonValue &run)
{
    using Type = JsonValue::Type;
    SimStats s;
    s.config = member(run, "", "config", Type::kString).str;
    s.workload = member(run, "", "workload", Type::kString).str;
    readFields(member(run, "", "stats", Type::kObject), "stats", s,
               kStatFields);
    for (const auto &[name, v] :
         member(run, "", "counters", Type::kObject).object)
        s.counters[name] = number(&v, "counters", name);

    const JsonValue &host = member(run, "", "host", Type::kObject);
    s.host_seconds = number(host.find("seconds"), "host", "seconds");
    s.minst_per_host_sec =
        number(host.find("minst_per_sec"), "host", "minst_per_sec");
    s.span_profile =
        spanProfileFromJson(member(host, "host", "spans", Type::kObject));

    const JsonValue &samples = member(run, "", "samples", Type::kObject);
    s.sample_interval =
        count(samples.find("interval_cycles"), "samples", "interval_cycles");
    const JsonValue &points =
        member(samples, "samples", "points", Type::kArray);
    s.samples.resize(points.array.size());
    for (std::size_t i = 0; i < points.array.size(); ++i)
        readFields(points.array[i], "samples.points", s.samples[i],
                   kSampleFields);
    return s;
}

void
writeSpanProfileJson(JsonWriter &w, const SpanProfile &p)
{
    w.beginObject();
    for (const auto &[path, a] : p) {
        w.key(path);
        w.beginObject();
        w.kv("count", a.count);
        w.kv("wall_ns", a.wall_ns);
        w.endObject();
    }
    w.endObject();
}

SpanProfile
spanProfileFromJson(const JsonValue &spans)
{
    SpanProfile out;
    for (const auto &[path, agg] : spans.object) {
        SpanAgg &a = out[path];
        a.count = count(agg.find("count"), "spans", "count");
        a.wall_ns = count(agg.find("wall_ns"), "spans", "wall_ns");
    }
    return out;
}

void
writeProfileBlockJson(JsonWriter &w, const ProfileBlock &p)
{
    w.beginObject();
    w.kv("total_spans", p.total_spans);
    w.kv("dropped", p.dropped);
    w.kv("threads", p.threads);
    w.key("spans");
    writeSpanProfileJson(w, p.spans);
    w.endObject();
}

namespace {

void
csvQuote(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"')
            os << '"';
        os << c;
    }
    os << '"';
}

} // namespace

void
writeRunsCsvHeader(std::ostream &os)
{
    os << "config,workload";
    for (const Field<SimStats> &f : kStatFields)
        os << ',' << f.name;
    os << ",host_seconds,minst_per_host_sec\n";
}

void
writeRunCsvRow(std::ostream &os, const SimStats &s)
{
    csvQuote(os, s.config);
    os << ',';
    csvQuote(os, s.workload);
    for (const Field<SimStats> &f : kStatFields)
        f.visit(s, [&](auto v) { os << ',' << v; });
    os << ',' << s.host_seconds << ',' << s.minst_per_host_sec << '\n';
}

std::string
slugify(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    bool pending_sep = false;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (pending_sep && !out.empty())
                out += '_';
            pending_sep = false;
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        } else {
            pending_sep = true;
        }
    }
    return out.empty() ? "unnamed" : out;
}

} // namespace btbsim::obs
