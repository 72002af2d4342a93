/** @file Tests for canonical configuration JSON (exp/config_json.h). */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/config_json.h"
#include "exp/run_cache.h"
#include "obs/json.h"

using namespace btbsim;

namespace {

/** A BtbConfig with every field moved off its default. */
BtbConfig
fullyMutatedBtb()
{
    BtbConfig c = BtbConfig::mbbtb(3, PullPolicy::kAllBr, 32);
    c.skip_taken = true;
    c.region_bytes = 128;
    c.dual_region = true;
    c.split = true;
    c.cond_ends_block = true;
    c.stability_threshold = 7;
    c.allow_last_slot_pull = true;
    c.l1 = {64, 3};
    c.l2 = {2048, 5};
    c.ideal = true;
    c.l2_penalty = 9;
    return c;
}

std::string
btbJson(const BtbConfig &c)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    exp::writeBtbConfigJson(w, c);
    return os.str();
}

/** A run key with a non-default config and workload. */
exp::RunKey
mutatedKey()
{
    exp::RunKey k;
    k.config.btb = fullyMutatedBtb();
    k.config.backend.rob_size = 777;
    k.config.fetch_width = 8;
    k.workload.name = "canonical-wl";
    k.workload.trace_seed = 0xABCDEF;
    k.workload.params.pattern_frac = 0.123456789012345; // %.17g fidelity.
    k.opt.warmup = 123;
    k.opt.measure = 456;
    return k;
}

} // namespace

TEST(ConfigJson, BtbConfigRoundTripsExactly)
{
    for (const BtbConfig &c :
         {BtbConfig{}, fullyMutatedBtb(), BtbConfig::hetero(2),
          BtbConfig::rbtb(3, 128, true), BtbConfig::ibtb(8, true)}) {
        const std::string json = btbJson(c);
        const BtbConfig back = exp::btbConfigFromJson(obs::parseJson(json));
        EXPECT_EQ(back, c);
        // Re-serializing the round-tripped value is byte-identical:
        // canonical form is a fixed point.
        EXPECT_EQ(btbJson(back), json);
    }
}

TEST(ConfigJson, RunKeySerializationIsDeterministic)
{
    EXPECT_EQ(exp::canonicalRunKeyJson(mutatedKey()),
              exp::canonicalRunKeyJson(mutatedKey()));
}

TEST(ConfigJson, DifferentConfigsSerializeDifferently)
{
    const exp::RunKey a = mutatedKey();
    const std::string base = exp::canonicalRunKeyJson(a);
    exp::RunKey b = a;
    b.config.fetch_width += 1;
    EXPECT_NE(exp::canonicalRunKeyJson(b), base);
    b = a;
    b.config.btb.cond_ends_block = false;
    EXPECT_NE(exp::canonicalRunKeyJson(b), base);
    b = a;
    b.workload.params.pattern_frac += 1e-15;
    EXPECT_NE(exp::canonicalRunKeyJson(b), base);
}

TEST(ConfigJson, SchemaMismatchThrows)
{
    std::string json = btbJson(BtbConfig{});
    const std::string needle =
        "\"_schema\": " + std::to_string(exp::kConfigSchemaVersion);
    const auto pos = json.find(needle);
    ASSERT_NE(pos, std::string::npos);
    json.replace(pos, needle.size(), "\"_schema\": 999");
    EXPECT_THROW(exp::btbConfigFromJson(obs::parseJson(json)),
                 std::runtime_error);
}

TEST(ConfigJson, MissingKeyThrows)
{
    EXPECT_THROW(exp::btbConfigFromJson(obs::parseJson(
                     "{\"_schema\": 1, \"kind\": \"block\"}")),
                 std::runtime_error);
}

TEST(ConfigJson, EnumNamesRoundTrip)
{
    for (BtbKind k : {BtbKind::kInstruction, BtbKind::kRegion,
                      BtbKind::kBlock, BtbKind::kMultiBlock, BtbKind::kHetero})
        EXPECT_EQ(exp::btbKindFromName(exp::btbKindName(k)), k);
    for (PullPolicy p : {PullPolicy::kNone, PullPolicy::kUncondDir,
                         PullPolicy::kCallDir, PullPolicy::kAllBr})
        EXPECT_EQ(exp::pullPolicyFromName(exp::pullPolicyName(p)), p);
    EXPECT_THROW(exp::btbKindFromName("bogus"), std::runtime_error);
    EXPECT_THROW(exp::pullPolicyFromName("bogus"), std::runtime_error);
}
