/** @file Tests for the BTBSIM_* environment-knob facade. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "env_util.h"

using namespace btbsim;
using btbsim::test::ScopedEnv;

namespace {

constexpr const char *kVar = "BTBSIM_WARMUP"; // Any registered knob.

} // namespace

TEST(Env, KnobTableIsWellFormed)
{
    const auto &ks = env::knobs();
    ASSERT_FALSE(ks.empty());
    std::set<std::string> names;
    for (const env::Knob &k : ks) {
        EXPECT_TRUE(std::string(k.name).starts_with("BTBSIM_")) << k.name;
        EXPECT_TRUE(names.insert(k.name).second)
            << "duplicate knob " << k.name;
        EXPECT_NE(std::string(k.description), "") << k.name;
        EXPECT_TRUE(env::isKnown(k.name));
    }
    EXPECT_FALSE(env::isKnown("BTBSIM_NO_SUCH_KNOB"));
}

TEST(Env, EveryDocumentedKnobIsRegistered)
{
    // The knobs the rest of the library reads through the facade.
    for (const char *name :
         {"BTBSIM_WARMUP", "BTBSIM_MEASURE", "BTBSIM_TRACES",
          "BTBSIM_THREADS", "BTBSIM_RUN_CACHE", "BTBSIM_SPANS",
          "BTBSIM_SPAN_CAP", "BTBSIM_SPAN_OUT", "BTBSIM_JSON_OUT",
          "BTBSIM_CHECK", "BTBSIM_FAULT"})
        EXPECT_TRUE(env::isKnown(name)) << name;
}

TEST(Env, RawAndIsSet)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::raw(kVar), "");
        EXPECT_FALSE(env::isSet(kVar));
    }
    {
        ScopedEnv e(kVar, "");
        EXPECT_FALSE(env::isSet(kVar));
    }
    {
        ScopedEnv e(kVar, "123");
        EXPECT_EQ(env::raw(kVar), "123");
        EXPECT_TRUE(env::isSet(kVar));
    }
}

TEST(Env, U64)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::u64(kVar, 77), 77u);
    }
    {
        ScopedEnv e(kVar, "123456789012");
        EXPECT_EQ(env::u64(kVar, 77), 123456789012ull);
    }
    {
        ScopedEnv e(kVar, "18446744073709551615");
        EXPECT_EQ(env::u64(kVar, 77), UINT64_MAX);
    }
    // Sign, empty parse, trailing characters, overflow: each is an
    // error naming the knob and its value, never a silent misread.
    for (const char *bad : {"-1", "+5", " 7", "abc", "1e6", "500k", "12 ",
                            "18446744073709551616"}) {
        ScopedEnv e(kVar, bad);
        try {
            env::u64(kVar, 77);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const std::invalid_argument &ex) {
            EXPECT_NE(std::string(ex.what()).find(kVar), std::string::npos);
            EXPECT_NE(std::string(ex.what()).find(bad), std::string::npos);
        }
    }
}

TEST(Env, FlagAndDisabled)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_FALSE(env::flag(kVar));
        EXPECT_FALSE(env::disabled(kVar));
    }
    {
        ScopedEnv e(kVar, "0");
        EXPECT_FALSE(env::flag(kVar));
        EXPECT_TRUE(env::disabled(kVar));
    }
    {
        ScopedEnv e(kVar, "1");
        EXPECT_TRUE(env::flag(kVar));
        EXPECT_FALSE(env::disabled(kVar));
    }
}

TEST(Env, OutPathSemantics)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::outPath(kVar, "d.json"), "");
    }
    {
        ScopedEnv e(kVar, "0");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "");
    }
    {
        ScopedEnv e(kVar, "1");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "d.json");
    }
    {
        ScopedEnv e(kVar, "true");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "d.json");
    }
    {
        ScopedEnv e(kVar, "other.json");
        EXPECT_EQ(env::outPath(kVar, "d.json"), "other.json");
    }
}
