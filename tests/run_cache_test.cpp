/** @file Tests for the content-addressed run cache (exp/run_cache.h). */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "env_util.h"
#include "exp/run_cache.h"
#include "exp/sha256.h"
#include "obs/export.h"
#include "obs/json.h"

using namespace btbsim;

namespace {

exp::RunKey
baseKey()
{
    exp::RunKey k;
    k.workload.name = "cache-wl";
    k.workload.params.seed = 7;
    k.opt.warmup = 1000;
    k.opt.measure = 2000;
    return k;
}

/** A SimStats with every field (incl. samples and counters)
 *  non-default. */
SimStats
fullStats()
{
    SimStats s;
    s.workload = "cache-wl";
    s.config = "I-BTB 16";
    s.instructions = 123'456;
    s.cycles = 234'567;
    s.ipc = 0.5263101471520399; // Awkward mantissa: %.17g fidelity.
    s.branch_mpki = 12.25;
    s.misfetch_pki = 3.5;
    s.combined_mpki = 15.75;
    s.cond_mispredict_rate = 0.01234567890123456;
    s.l1_btb_hitrate = 0.75;
    s.btb_hitrate = 0.875;
    s.fetch_pcs_per_access = 7.7;
    s.taken_per_ki = 180.5;
    s.l1_slot_occupancy = 1.25;
    s.l2_slot_occupancy = 1.5;
    s.l1_redundancy = 1.0625;
    s.l2_redundancy = 1.125;
    s.icache_mpki = 4.25;
    s.avg_dyn_bb_size = 5.5;
    s.sample_interval = 50'000;
    obs::IntervalSample p;
    p.cycle = 50'000;
    p.instructions = 26'000;
    p.ipc = 0.52;
    p.l1_btb_hitrate = 0.74;
    p.btb_hitrate = 0.87;
    p.branch_mpki = 12.0;
    p.misfetch_pki = 3.25;
    p.ftq_occupancy = 31.5;
    p.icache_mpki = 4.0;
    s.samples = {p, p};
    s.samples[1].cycle = 100'000;
    s.counters = {{"btb.l1.hits", 1234.0},
                  {"frontend.fetch_stalls", 567.0}};
    s.host_seconds = 0.125;
    s.minst_per_host_sec = 0.987;
    return s;
}

/** The result-JSON run object of @p s. */
std::string
runJson(const SimStats &s)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    obs::writeSimStatsJson(w, s);
    return os.str();
}

/** @p text with the first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

/** Write a cache entry for @p key by hand: @p payload under @p member,
 *  hashed into @p sha_member, in envelope version @p schema. */
void
writeEntry(const exp::RunCache &cache, const exp::RunKey &key, int schema,
           const char *sha_member, const char *member,
           const std::string &payload)
{
    const std::string path = cache.entryPath(exp::runKeyDigest(key));
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream(path) << "{\n  \"cache_schema\": " << schema << ",\n"
                        << "  \"digest\": \"" << exp::runKeyDigest(key)
                        << "\",\n"
                        << "  \"" << sha_member << "\": \""
                        << exp::Sha256::hexDigest(payload) << "\",\n"
                        << "  \"key\": " << exp::canonicalRunKeyJson(key)
                        << ",\n  \"" << member << "\": " << payload
                        << "\n}\n";
}

} // namespace

TEST(RunCache, RunJsonRoundTripsEveryField)
{
    // The cache payload is the result-JSON run object. Every field of
    // fullStats() is non-default, so a field the reader drops comes back
    // default and breaks the equality, and a misnamed one throws.
    const SimStats s = fullStats();
    EXPECT_EQ(obs::simStatsFromJson(obs::parseJson(runJson(s))), s);
}

TEST(RunCache, RunJsonMissingKeyThrowsNamingIt)
{
    const std::string text =
        replaced(runJson(fullStats()), "\"ipc\": ", "\"ipc_renamed\": ");
    try {
        (void)obs::simStatsFromJson(obs::parseJson(text));
        FAIL() << "a run without stats.ipc must not load";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("'stats.ipc'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RunCache, DigestIsStableAndKeyOrderCanonical)
{
    const exp::RunKey k = baseKey();
    EXPECT_EQ(exp::runKeyDigest(k), exp::runKeyDigest(k));
    EXPECT_EQ(exp::runKeyDigest(k).size(), 64u); // SHA-256 hex.
    EXPECT_EQ(exp::canonicalRunKeyJson(k), exp::canonicalRunKeyJson(k));
}

TEST(RunCache, EverySingleFieldChangeInvalidatesTheDigest)
{
    const std::string base = exp::runKeyDigest(baseKey());

    // Each mutator changes exactly one field somewhere in the key.
    const std::vector<std::function<void(exp::RunKey &)>> mutators = {
        // RunOptions (result-affecting fields).
        [](exp::RunKey &k) { ++k.opt.warmup; },
        [](exp::RunKey &k) { ++k.opt.measure; },
        // CpuConfig scalars.
        [](exp::RunKey &k) { ++k.config.fetch_width; },
        [](exp::RunKey &k) { ++k.config.ftq_entries; },
        // Nested BTB geometry and policy.
        [](exp::RunKey &k) { k.config.btb = BtbConfig::bbtb(2, true); },
        [](exp::RunKey &k) { ++k.config.btb.l1.sets; },
        [](exp::RunKey &k) { ++k.config.btb.l2.ways; },
        [](exp::RunKey &k) { k.config.btb.ideal = true; },
        [](exp::RunKey &k) { ++k.config.btb.l2_penalty; },
        [](exp::RunKey &k) { k.config.btb.skip_taken = true; },
        // Nested bpred / memory / backend.
        [](exp::RunKey &k) { ++k.config.bpred.perceptron.num_tables; },
        [](exp::RunKey &k) { ++k.config.bpred.ras_entries; },
        [](exp::RunKey &k) { ++k.config.mem.l1i.sets; },
        [](exp::RunKey &k) { ++k.config.mem.dram_latency; },
        [](exp::RunKey &k) { ++k.config.backend.rob_size; },
        [](exp::RunKey &k) { k.config.backend.ideal = true; },
        // Workload identity.
        [](exp::RunKey &k) { k.workload.name = "other"; },
        [](exp::RunKey &k) { ++k.workload.trace_seed; },
        [](exp::RunKey &k) { ++k.workload.params.seed; },
        [](exp::RunKey &k) { k.workload.params.mean_block_len += 0.5; },
        [](exp::RunKey &k) { k.workload.params.w_loop += 0.001; },
    };

    std::set<std::string> digests{base};
    for (std::size_t i = 0; i < mutators.size(); ++i) {
        exp::RunKey k = baseKey();
        mutators[i](k);
        const std::string d = exp::runKeyDigest(k);
        EXPECT_NE(d, base) << "mutator " << i << " did not change the hash";
        EXPECT_TRUE(digests.insert(d).second)
            << "mutator " << i << " collided with an earlier digest";
    }
}

TEST(RunCache, ThreadCountDoesNotInvalidate)
{
    // Results are bit-identical regardless of thread count (see
    // sim/runner.h), so `threads` is deliberately NOT part of the key:
    // re-sharding a sweep must keep its cache warm.
    exp::RunKey a = baseKey(), b = baseKey();
    a.opt.threads = 1;
    b.opt.threads = 8;
    EXPECT_EQ(exp::runKeyDigest(a), exp::runKeyDigest(b));
    // Same for `traces`: it selects points, it doesn't change one.
    b.opt.traces = a.opt.traces + 3;
    EXPECT_EQ(exp::runKeyDigest(a), exp::runKeyDigest(b));
}

TEST(RunCache, SchemaBumpInvalidates)
{
    const exp::RunKey k = baseKey();
    EXPECT_NE(exp::runKeyDigest(k, exp::kRunKeySchemaVersion),
              exp::runKeyDigest(k, exp::kRunKeySchemaVersion + 1));
}

TEST(RunCache, WarmHitIsBitIdentical)
{
    const std::string dir = ::testing::TempDir() + "run_cache_warm";
    std::filesystem::remove_all(dir);
    const exp::RunCache cache(dir);
    ASSERT_TRUE(cache.enabled());

    const exp::RunKey key = baseKey();
    const std::string digest = exp::runKeyDigest(key);
    const SimStats s = fullStats();

    EXPECT_FALSE(cache.load(digest).has_value()); // Cold.
    ASSERT_TRUE(cache.store(digest, exp::canonicalRunKeyJson(key), s));

    const auto hit = cache.load(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, s);
    std::filesystem::remove_all(dir);
}

TEST(RunCache, CorruptedEntryIsDiscardedAndResimulated)
{
    const std::string dir = ::testing::TempDir() + "run_cache_corrupt";
    std::filesystem::remove_all(dir);
    const exp::RunCache cache(dir);

    const exp::RunKey key = baseKey();
    const std::string digest = exp::runKeyDigest(key);
    ASSERT_TRUE(cache.store(digest, exp::canonicalRunKeyJson(key),
                            fullStats()));
    const std::string path = cache.entryPath(digest);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip the payload: ipc changes but stats_sha256 does not.
    {
        std::ifstream is(path);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        const std::string from = "\"cycles\": 234567";
        const auto pos = text.find(from);
        ASSERT_NE(pos, std::string::npos);
        text.replace(pos, from.size(), "\"cycles\": 999999");
        std::ofstream(path) << text;
    }

    EXPECT_FALSE(cache.load(digest).has_value()); // Detected, not served.
    EXPECT_FALSE(std::filesystem::exists(path));  // ...and unlinked.

    // Truncated (torn write) entries are misses too.
    ASSERT_TRUE(cache.store(digest, exp::canonicalRunKeyJson(key),
                            fullStats()));
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(cache.load(digest).has_value());
    EXPECT_FALSE(std::filesystem::exists(path));

    // The point can immediately be stored (re-simulated) again.
    ASSERT_TRUE(cache.store(digest, exp::canonicalRunKeyJson(key),
                            fullStats()));
    EXPECT_TRUE(cache.load(digest).has_value());
    std::filesystem::remove_all(dir);
}

TEST(RunCache, EntryWithRetiredKeyStillLoads)
{
    // Earlier builds also wrote the workload source, its drain
    // throughput and the run's host span slice into the host block and
    // hashed the payload with them. Such entries must keep serving warm
    // hits.
    const std::string dir = ::testing::TempDir() + "run_cache_retired";
    std::filesystem::remove_all(dir);
    const exp::RunCache cache(dir);

    const exp::RunKey key = baseKey();
    const SimStats s = fullStats();
    writeEntry(cache, key, exp::kRunCacheSchemaVersion, "run_sha256", "run",
               replaced(runJson(s), "\"host\": {",
                        "\"host\": {\n    \"source\": \"synthetic\",\n"
                        "    \"source_minst_per_sec\": 42.5,\n"
                        "    \"spans\": {\"run\": {\"count\": 1, "
                        "\"wall_ns\": 4000000}},"));

    const auto hit = cache.load(exp::runKeyDigest(key));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, s);
    std::filesystem::remove_all(dir);
}

TEST(RunCache, FlatSchema2EntryIsStale)
{
    // Envelope v2 stored a flat copy of SimStats under "stats". Such an
    // entry, intact and correctly hashed, is a miss and is unlinked; the
    // point re-simulates.
    const std::string dir = ::testing::TempDir() + "run_cache_v2";
    std::filesystem::remove_all(dir);
    const exp::RunCache cache(dir);

    const exp::RunKey key = baseKey();
    writeEntry(cache, key, 2, "stats_sha256", "stats",
               "{\n  \"workload\": \"cache-wl\",\n"
               "  \"config\": \"I-BTB 16\",\n"
               "  \"instructions\": 123456,\n  \"cycles\": 234567,\n"
               "  \"ipc\": 0.5263101471520399,\n"
               "  \"sample_interval\": 50000,\n  \"samples\": [],\n"
               "  \"counters\": {},\n  \"host_seconds\": 0.125,\n"
               "  \"minst_per_host_sec\": 0.987,\n"
               "  \"span_profile\": {}\n}");
    const std::string path = cache.entryPath(exp::runKeyDigest(key));
    ASSERT_TRUE(std::filesystem::exists(path));

    EXPECT_FALSE(cache.load(exp::runKeyDigest(key)).has_value());
    EXPECT_FALSE(std::filesystem::exists(path));
    std::filesystem::remove_all(dir);
}

TEST(RunCache, DisabledCacheMissesAndIgnoresStores)
{
    const exp::RunCache cache; // Empty dir = disabled.
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.store("d", "{}", fullStats()));
    EXPECT_FALSE(cache.load("d").has_value());
}

TEST(RunCache, DirFromEnvSemantics)
{
    {
        test::ScopedEnv e("BTBSIM_RUN_CACHE", nullptr);
        EXPECT_EQ(exp::RunCache::dirFromEnv("fb"), "fb");
        EXPECT_EQ(exp::RunCache::dirFromEnv(""), "");
    }
    {
        test::ScopedEnv e("BTBSIM_RUN_CACHE", "0");
        EXPECT_EQ(exp::RunCache::dirFromEnv("fb"), "");
    }
    {
        test::ScopedEnv e("BTBSIM_RUN_CACHE", "/tmp/somewhere");
        EXPECT_EQ(exp::RunCache::dirFromEnv("fb"), "/tmp/somewhere");
    }
}

TEST(RunCache, Sha256MatchesReferenceVectors)
{
    EXPECT_EQ(exp::Sha256::hexDigest(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(exp::Sha256::hexDigest("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        exp::Sha256::hexDigest(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");
}
