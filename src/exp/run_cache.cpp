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

/// The payload is the envelope's last member, written verbatim between
/// these two markers (no other member of the envelope, the key or the
/// payload is named "run").
constexpr std::string_view kRunMember = "\n  \"run\": ";
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
    w.endObject();
    return os.str();
}

std::string
runKeyDigest(const RunKey &key, int key_schema)
{
    return Sha256::hexDigest(canonicalRunKeyJson(key, key_schema));
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
        // reading a field (simStatsFromJson ignores unknown members).
        const std::size_t at = text.find(kRunMember);
        if (at == std::string::npos || !text.ends_with(kEnvelopeEnd))
            throw std::runtime_error("malformed envelope");
        const std::size_t begin = at + kRunMember.size();
        const std::string_view payload(
            text.data() + begin, text.size() - kEnvelopeEnd.size() - begin);
        if (Sha256::hexDigest(payload) != root.at("run_sha256").asString())
            throw std::runtime_error("run_sha256 mismatch");
        return obs::simStatsFromJson(root.at("run"));
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

    std::ostringstream run;
    {
        obs::JsonWriter w(run);
        obs::writeSimStatsJson(w, stats);
    }
    const std::string run_json = run.str();

    // The envelope embeds two pre-rendered documents, so it is assembled
    // textually rather than through JsonWriter.
    std::ostringstream entry;
    entry << "{\n  \"cache_schema\": " << kRunCacheSchemaVersion << ",\n"
          << "  \"digest\": \"" << digest << "\",\n"
          << "  \"run_sha256\": \"" << Sha256::hexDigest(run_json)
          << "\",\n"
          << "  \"key\": " << key_json << "," << kRunMember << run_json
          << kEnvelopeEnd;

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
