#include "exp/run_cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/env.h"
#include "exp/sha256.h"
#include "obs/export.h"

namespace btbsim::exp {

namespace {

/// The stats payload is the envelope's last member, written verbatim
/// between these two markers (no other top-level member of the
/// envelope, the key or the payload is named "stats").
constexpr std::string_view kStatsMember = "\n  \"stats\": ";
constexpr std::string_view kEnvelopeEnd = "\n}\n";

} // namespace

// ---- run key -----------------------------------------------------------

std::string
canonicalRunKeyJson(const RunKey &key, int key_schema)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("run_key_schema", key_schema);
    w.kv("result_schema", obs::kSchemaVersion);
    w.key("config");
    writeCpuConfigJson(w, key.config);
    w.key("workload");
    writeWorkloadSpecJson(w, key.workload);
    // Of RunOptions, only the fields that shape the simulated window are
    // hashed. threads cannot affect results (runner contract:
    // bit-identical regardless of thread count) and traces only selects
    // which points a sweep contains, not what each point computes.
    w.kv("warmup", key.opt.warmup);
    w.kv("measure", key.opt.measure);
    w.kv("sample_interval", key.sample_interval);
    w.endObject();
    return os.str();
}

std::string
runKeyDigest(const RunKey &key, int key_schema)
{
    return Sha256::hexDigest(canonicalRunKeyJson(key, key_schema));
}

// ---- SimStats serialization -------------------------------------------

void
writeStatsJson(obs::JsonWriter &w, const SimStats &s)
{
    w.beginObject();
    w.kv("workload", s.workload);
    w.kv("config", s.config);
    w.kv("instructions", s.instructions);
    w.kv("cycles", s.cycles);
    w.kv("ipc", s.ipc);
    w.kv("branch_mpki", s.branch_mpki);
    w.kv("misfetch_pki", s.misfetch_pki);
    w.kv("combined_mpki", s.combined_mpki);
    w.kv("cond_mispredict_rate", s.cond_mispredict_rate);
    w.kv("l1_btb_hitrate", s.l1_btb_hitrate);
    w.kv("btb_hitrate", s.btb_hitrate);
    w.kv("fetch_pcs_per_access", s.fetch_pcs_per_access);
    w.kv("taken_per_ki", s.taken_per_ki);
    w.kv("l1_slot_occupancy", s.l1_slot_occupancy);
    w.kv("l2_slot_occupancy", s.l2_slot_occupancy);
    w.kv("l1_redundancy", s.l1_redundancy);
    w.kv("l2_redundancy", s.l2_redundancy);
    w.kv("icache_mpki", s.icache_mpki);
    w.kv("avg_dyn_bb_size", s.avg_dyn_bb_size);
    w.kv("sample_interval", s.sample_interval);
    w.key("samples");
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
    w.key("counters");
    w.beginObject();
    for (const auto &[name, v] : s.counters)
        w.kv(name, v);
    w.endObject();
    w.kv("host_seconds", s.host_seconds);
    w.kv("minst_per_host_sec", s.minst_per_host_sec);
    // The host span profile is cached too: a warm hit restores the
    // original run's profile bit-identically, keeping cold and warm
    // sweeps byte-comparable (the CI determinism gate relies on it).
    w.key("span_profile");
    obs::writeSpanProfileJson(w, s.span_profile);
    w.endObject();
}

std::string
statsToJson(const SimStats &s)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    writeStatsJson(w, s);
    return os.str();
}

namespace {

std::uint64_t
u64At(const obs::JsonValue &v, std::string_view key)
{
    return static_cast<std::uint64_t>(v.at(key).asNumber());
}

} // namespace

SimStats
statsFromJson(const obs::JsonValue &v)
{
    SimStats s;
    s.workload = v.at("workload").asString();
    s.config = v.at("config").asString();
    s.instructions = u64At(v, "instructions");
    s.cycles = u64At(v, "cycles");
    s.ipc = v.at("ipc").asNumber();
    s.branch_mpki = v.at("branch_mpki").asNumber();
    s.misfetch_pki = v.at("misfetch_pki").asNumber();
    s.combined_mpki = v.at("combined_mpki").asNumber();
    s.cond_mispredict_rate = v.at("cond_mispredict_rate").asNumber();
    s.l1_btb_hitrate = v.at("l1_btb_hitrate").asNumber();
    s.btb_hitrate = v.at("btb_hitrate").asNumber();
    s.fetch_pcs_per_access = v.at("fetch_pcs_per_access").asNumber();
    s.taken_per_ki = v.at("taken_per_ki").asNumber();
    s.l1_slot_occupancy = v.at("l1_slot_occupancy").asNumber();
    s.l2_slot_occupancy = v.at("l2_slot_occupancy").asNumber();
    s.l1_redundancy = v.at("l1_redundancy").asNumber();
    s.l2_redundancy = v.at("l2_redundancy").asNumber();
    s.icache_mpki = v.at("icache_mpki").asNumber();
    s.avg_dyn_bb_size = v.at("avg_dyn_bb_size").asNumber();
    s.sample_interval = u64At(v, "sample_interval");
    for (const obs::JsonValue &pv : v.at("samples").array) {
        obs::IntervalSample p;
        p.cycle = u64At(pv, "cycle");
        p.instructions = u64At(pv, "instructions");
        p.ipc = pv.at("ipc").asNumber();
        p.l1_btb_hitrate = pv.at("l1_btb_hitrate").asNumber();
        p.btb_hitrate = pv.at("btb_hitrate").asNumber();
        p.branch_mpki = pv.at("branch_mpki").asNumber();
        p.misfetch_pki = pv.at("misfetch_pki").asNumber();
        p.ftq_occupancy = pv.at("ftq_occupancy").asNumber();
        p.icache_mpki = pv.at("icache_mpki").asNumber();
        s.samples.push_back(p);
    }
    for (const auto &[name, cv] : v.at("counters").object)
        s.counters[name] = cv.asNumber();
    s.host_seconds = v.at("host_seconds").asNumber();
    s.minst_per_host_sec = v.at("minst_per_host_sec").asNumber();
    for (const auto &[path, av] : v.at("span_profile").object) {
        obs::SpanAgg a;
        a.count = u64At(av, "count");
        a.wall_ns = u64At(av, "wall_ns");
        s.span_profile[path] = a;
    }
    return s;
}

// ---- RunCache ----------------------------------------------------------

std::string
RunCache::dirFromEnv(const std::string &fallback_dir)
{
    // A checked run exists to exercise the simulation itself; serving it
    // from (or polluting) the content-addressed cache would defeat it.
    if (env::flag("BTBSIM_CHECK"))
        return {};
    if (!env::isSet("BTBSIM_RUN_CACHE"))
        return fallback_dir;
    if (env::disabled("BTBSIM_RUN_CACHE"))
        return {};
    return env::raw("BTBSIM_RUN_CACHE");
}

std::string
RunCache::entryPath(const std::string &digest) const
{
    if (dir_.empty() || digest.size() < 3)
        return {};
    return (std::filesystem::path(dir_) / digest.substr(0, 2) /
            (digest + ".json"))
        .string();
}

std::optional<SimStats>
RunCache::load(const std::string &digest) const
{
    const std::string path = entryPath(digest);
    if (path.empty())
        return std::nullopt;

    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return std::nullopt;

    try {
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return std::nullopt;
        std::ostringstream buf;
        buf << is.rdbuf();
        const std::string text = buf.str();
        const obs::JsonValue root = obs::parseJson(text);

        if (static_cast<int>(root.at("cache_schema").asNumber()) !=
            kRunCacheSchemaVersion)
            throw std::runtime_error("stale cache_schema");
        if (root.at("digest").asString() != digest)
            throw std::runtime_error("digest mismatch");

        // Integrity: the payload bytes as stored must hash to the digest
        // recorded at store time. Catches truncation, bit rot and any
        // editing, yet keeps entries valid when a later build stops
        // reading a field (statsFromJson ignores unknown members).
        const std::size_t at = text.find(kStatsMember);
        if (at == std::string::npos || !text.ends_with(kEnvelopeEnd))
            throw std::runtime_error("malformed envelope");
        const std::size_t begin = at + kStatsMember.size();
        const std::string_view payload(
            text.data() + begin, text.size() - kEnvelopeEnd.size() - begin);
        if (Sha256::hexDigest(payload) != root.at("stats_sha256").asString())
            throw std::runtime_error("stats_sha256 mismatch");
        return statsFromJson(root.at("stats"));
    } catch (const std::exception &) {
        // Corrupt or stale entry: drop it so the point re-simulates and
        // the next store replaces it.
        std::filesystem::remove(path, ec);
        return std::nullopt;
    }
}

bool
RunCache::store(const std::string &digest, const std::string &key_json,
                const SimStats &stats) const
{
    const std::string path = entryPath(digest);
    if (path.empty())
        return false;

    const std::filesystem::path p(path);
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec)
        return false;

    const std::string stats_json = statsToJson(stats);

    // The envelope embeds two pre-rendered canonical documents, so it is
    // assembled textually rather than through JsonWriter.
    std::ostringstream entry;
    entry << "{\n  \"cache_schema\": " << kRunCacheSchemaVersion << ",\n"
          << "  \"digest\": \"" << digest << "\",\n"
          << "  \"stats_sha256\": \"" << Sha256::hexDigest(stats_json)
          << "\",\n"
          << "  \"key\": " << key_json << "," << kStatsMember
          << stats_json << kEnvelopeEnd;

    // Atomic publish: unique temp name (thread id salted) then rename,
    // so concurrent workers and parallel jobs never see partial entries.
    std::ostringstream tid;
    tid << std::this_thread::get_id();
    const std::filesystem::path tmp =
        p.parent_path() / (digest + ".tmp." + tid.str());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os << entry.str();
        if (!os.flush())
            return false;
    }
    std::filesystem::rename(tmp, p, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace btbsim::exp
