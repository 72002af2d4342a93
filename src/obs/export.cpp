#include "obs/export.h"

#include <cctype>
#include <ostream>

#include "sim/sim_stats.h"

namespace btbsim::obs {

namespace {

/** The scalar SimStats fields exported both to JSON and CSV, in order. */
struct Field
{
    const char *name;
    double (*get)(const SimStats &);
};

constexpr Field kScalarFields[] = {
    {"ipc", [](const SimStats &s) { return s.ipc; }},
    {"branch_mpki", [](const SimStats &s) { return s.branch_mpki; }},
    {"misfetch_pki", [](const SimStats &s) { return s.misfetch_pki; }},
    {"combined_mpki", [](const SimStats &s) { return s.combined_mpki; }},
    {"cond_mispredict_rate",
     [](const SimStats &s) { return s.cond_mispredict_rate; }},
    {"l1_btb_hitrate", [](const SimStats &s) { return s.l1_btb_hitrate; }},
    {"btb_hitrate", [](const SimStats &s) { return s.btb_hitrate; }},
    {"fetch_pcs_per_access",
     [](const SimStats &s) { return s.fetch_pcs_per_access; }},
    {"taken_per_ki", [](const SimStats &s) { return s.taken_per_ki; }},
    {"l1_slot_occupancy",
     [](const SimStats &s) { return s.l1_slot_occupancy; }},
    {"l2_slot_occupancy",
     [](const SimStats &s) { return s.l2_slot_occupancy; }},
    {"l1_redundancy", [](const SimStats &s) { return s.l1_redundancy; }},
    {"l2_redundancy", [](const SimStats &s) { return s.l2_redundancy; }},
    {"icache_mpki", [](const SimStats &s) { return s.icache_mpki; }},
    {"avg_dyn_bb_size", [](const SimStats &s) { return s.avg_dyn_bb_size; }},
};

} // namespace

void
writeSimStatsJson(JsonWriter &w, const SimStats &s)
{
    w.beginObject();
    w.kv("config", s.config);
    w.kv("workload", s.workload);

    w.key("stats");
    w.beginObject();
    w.kv("instructions", s.instructions);
    w.kv("cycles", s.cycles);
    for (const Field &f : kScalarFields)
        w.kv(f.name, f.get(s));
    w.endObject();

    w.key("counters");
    w.beginObject();
    for (const auto &[name, v] : s.counters)
        w.kv(name, v);
    w.endObject();

    w.key("host");
    w.beginObject();
    w.kv("seconds", s.host_seconds);
    w.kv("minst_per_sec", s.minst_per_host_sec);
    w.kv("source", s.source_kind);
    w.kv("counters_available", s.host_counters_available ? 1 : 0);
    w.key("spans");
    writeSpanProfileJson(w, s.span_profile);
    w.endObject();

    w.key("samples");
    w.beginObject();
    w.kv("interval_cycles", s.sample_interval);
    w.key("points");
    w.beginArray();
    for (const obs::IntervalSample &p : s.samples) {
        w.beginObject();
        w.kv("cycle", p.cycle);
        w.kv("instructions", p.instructions);
        w.kv("ipc", p.ipc);
        w.kv("l1_btb_hitrate", p.l1_btb_hitrate);
        w.kv("btb_hitrate", p.btb_hitrate);
        w.kv("branch_mpki", p.branch_mpki);
        w.kv("misfetch_pki", p.misfetch_pki);
        w.kv("ftq_occupancy", p.ftq_occupancy);
        w.kv("icache_mpki", p.icache_mpki);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
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
        w.kv("tsc", a.tsc);
        w.kv("cycles", a.cycles);
        w.kv("instructions", a.instructions);
        w.kv("branch_misses", a.branch_misses);
        w.kv("cache_misses", a.cache_misses);
        w.kv("task_clock_ns", a.task_clock_ns);
        w.endObject();
    }
    w.endObject();
}

void
writeProfileBlockJson(JsonWriter &w, const ProfileBlock &p)
{
    w.beginObject();
    w.kv("total_spans", p.total_spans);
    w.kv("dropped", p.dropped);
    w.kv("threads", p.threads);
    w.kv("counters_available", p.counters_available ? 1 : 0);
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
    os << "config,workload,instructions,cycles";
    for (const Field &f : kScalarFields)
        os << ',' << f.name;
    os << ",host_seconds,minst_per_host_sec,source\n";
}

void
writeRunCsvRow(std::ostream &os, const SimStats &s)
{
    csvQuote(os, s.config);
    os << ',';
    csvQuote(os, s.workload);
    os << ',' << s.instructions << ',' << s.cycles;
    for (const Field &f : kScalarFields)
        os << ',' << f.get(s);
    os << ',' << s.host_seconds << ',' << s.minst_per_host_sec << ',';
    csvQuote(os, s.source_kind);
    os << '\n';
}

void
writeSamplesCsv(std::ostream &os, const SimStats &s)
{
    os << "config,workload,cycle,instructions,ipc,l1_btb_hitrate,"
          "btb_hitrate,branch_mpki,misfetch_pki,ftq_occupancy,icache_mpki\n";
    for (const obs::IntervalSample &p : s.samples) {
        csvQuote(os, s.config);
        os << ',';
        csvQuote(os, s.workload);
        os << ',' << p.cycle << ',' << p.instructions << ',' << p.ipc << ','
           << p.l1_btb_hitrate << ',' << p.btb_hitrate << ','
           << p.branch_mpki << ',' << p.misfetch_pki << ','
           << p.ftq_occupancy << ',' << p.icache_mpki << '\n';
    }
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
