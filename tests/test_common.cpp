/**
 * @file
 * Unit tests for the common infrastructure: logging, stats registry,
 * JSON writer, hardware configuration, RNG determinism.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace stonne {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug ", "here"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "nope"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, MessageCarriesFormattedArguments)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value=7 name=x");
    }
}

TEST(Stats, CountersAccumulate)
{
    StatsRegistry reg;
    StatCounter &c = reg.counter("mn.mult_ops",
                                 StatGroup::MultiplierNetwork);
    c.value += 5;
    c.value += 7;
    EXPECT_EQ(reg.value("mn.mult_ops"), 12u);
}

TEST(Stats, UnknownCounterReadsZero)
{
    StatsRegistry reg;
    EXPECT_EQ(reg.value("does.not.exist"), 0u);
}

TEST(Stats, CounterKindIsStickyAndPreservedByDelta)
{
    StatsRegistry reg;
    reg.counter("gb.reads", StatGroup::GlobalBuffer).value = 4;
    StatCounter &occ = reg.counter("gb.write_queue_occ",
                                   StatGroup::GlobalBuffer,
                                   StatKind::Occupancy);
    occ.value = 9;
    EXPECT_EQ(occ.kind, StatKind::Occupancy);
    // Re-registering with another kind is a modelling bug.
    EXPECT_THROW(reg.counter("gb.write_queue_occ",
                             StatGroup::GlobalBuffer,
                             StatKind::Activity),
                 PanicError);
    const StatsRegistry d = reg.delta(std::vector<count_t>{1, 2});
    EXPECT_EQ(d.value("gb.write_queue_occ"), 7u);
    for (const StatCounter &c : d.counters()) {
        if (c.name == "gb.write_queue_occ") {
            EXPECT_EQ(c.kind, StatKind::Occupancy);
        }
    }
}

TEST(Stats, GroupTotalsSumOnlyOwnGroup)
{
    StatsRegistry reg;
    reg.counter("a", StatGroup::GlobalBuffer).value = 3;
    reg.counter("b", StatGroup::GlobalBuffer).value = 4;
    reg.counter("c", StatGroup::ReductionNetwork).value = 100;
    EXPECT_EQ(reg.groupTotal(StatGroup::GlobalBuffer), 7u);
    EXPECT_EQ(reg.groupTotal(StatGroup::ReductionNetwork), 100u);
    EXPECT_EQ(reg.groupTotal(StatGroup::Dram), 0u);
}

TEST(Stats, ReRegisteringSameNameReturnsSameCounter)
{
    StatsRegistry reg;
    StatCounter &a = reg.counter("x", StatGroup::Other);
    StatCounter &b = reg.counter("x", StatGroup::Other);
    EXPECT_EQ(&a, &b);
}

TEST(Stats, ReRegisteringInDifferentGroupPanics)
{
    StatsRegistry reg;
    reg.counter("x", StatGroup::Other);
    EXPECT_THROW(reg.counter("x", StatGroup::GlobalBuffer), PanicError);
}

TEST(Stats, SnapshotDeltaIsolatesOneOperation)
{
    StatsRegistry reg;
    reg.counter("gb.reads", StatGroup::GlobalBuffer).value = 10;
    const auto before = reg.snapshot();
    reg.counter("gb.reads", StatGroup::GlobalBuffer).value += 25;
    reg.counter("gb.writes", StatGroup::GlobalBuffer).value = 3;
    const StatsRegistry d = reg.delta(before);
    EXPECT_EQ(d.value("gb.reads"), 25u);
    EXPECT_EQ(d.value("gb.writes"), 3u);
}

TEST(Stats, ResetZeroesButKeepsRegistrations)
{
    StatsRegistry reg;
    reg.counter("x", StatGroup::Other).value = 9;
    reg.reset();
    EXPECT_EQ(reg.value("x"), 0u);
    EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(Json, ScalarsRender)
{
    EXPECT_EQ(JsonValue::makeInt(-3).dump(), "-3");
    EXPECT_EQ(JsonValue::makeBool(true).dump(), "true");
    EXPECT_EQ(JsonValue::makeString("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue j = JsonValue::makeObject();
    j.set("zeta", std::int64_t{1});
    j.set("alpha", std::int64_t{2});
    const std::string s = j.dump();
    EXPECT_LT(s.find("zeta"), s.find("alpha"));
}

TEST(Json, StringsAreEscaped)
{
    JsonValue j = JsonValue::makeString("a\"b\\c\nd");
    EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ControlCharactersAreEscaped)
{
    // RFC 8259 requires every byte below 0x20 escaped; short forms for
    // the named controls, \u00XX for the rest.
    JsonValue j = JsonValue::makeString("a\rb\x01" "c\fd\be\x1f");
    EXPECT_EQ(j.dump(), "\"a\\rb\\u0001c\\fd\\be\\u001f\"");
}

TEST(Json, UnsignedValuesKeepTheFullRange)
{
    // Counters are uint64; a value above INT64_MAX must not wrap into
    // a negative number on its way through the writer.
    EXPECT_EQ(JsonValue::makeUint(18446744073709551615ull).dump(),
              "18446744073709551615");
    JsonValue obj = JsonValue::makeObject();
    obj.set("big", std::uint64_t{9223372036854775808ull});
    EXPECT_NE(obj.dump().find("\"big\": 9223372036854775808"),
              std::string::npos);
    EXPECT_EQ(obj.dump().find('-'), std::string::npos);
}

TEST(Json, NestedStructureRoundTrips)
{
    JsonValue j = JsonValue::makeObject();
    j["perf"].set("cycles", std::uint64_t{123});
    j["list"] = JsonValue::makeArray();
    j["list"].append(JsonValue::makeInt(1));
    j["list"].append(JsonValue::makeInt(2));
    const std::string s = j.dump();
    EXPECT_NE(s.find("\"cycles\": 123"), std::string::npos);
    EXPECT_NE(s.find('['), std::string::npos);
}

TEST(Config, PresetsMatchTableIV)
{
    const HardwareConfig tpu = HardwareConfig::tpuLike();
    EXPECT_EQ(tpu.dn_type, DnType::PointToPoint);
    EXPECT_EQ(tpu.mn_type, MnType::Linear);
    EXPECT_EQ(tpu.rn_type, RnType::Linear);
    EXPECT_EQ(tpu.controller_type, ControllerType::Dense);

    const HardwareConfig maeri = HardwareConfig::maeriLike();
    EXPECT_EQ(maeri.dn_type, DnType::Tree);
    EXPECT_EQ(maeri.mn_type, MnType::Linear);
    EXPECT_EQ(maeri.rn_type, RnType::ArtAcc);
    EXPECT_EQ(maeri.controller_type, ControllerType::Dense);

    const HardwareConfig sigma = HardwareConfig::sigmaLike();
    EXPECT_EQ(sigma.dn_type, DnType::Benes);
    EXPECT_EQ(sigma.mn_type, MnType::Disabled);
    EXPECT_EQ(sigma.rn_type, RnType::Fan);
    EXPECT_EQ(sigma.controller_type, ControllerType::Sparse);
}

TEST(Config, ParseRoundTrip)
{
    const HardwareConfig orig = HardwareConfig::sigmaLike(128, 64);
    const HardwareConfig parsed = HardwareConfig::parse(
        orig.toConfigText());
    EXPECT_EQ(parsed.dn_type, orig.dn_type);
    EXPECT_EQ(parsed.rn_type, orig.rn_type);
    EXPECT_EQ(parsed.controller_type, orig.controller_type);
    EXPECT_EQ(parsed.ms_size, orig.ms_size);
    EXPECT_EQ(parsed.dn_bandwidth, orig.dn_bandwidth);
}

TEST(Config, TracedConfigSharesItsSilencedTwinsStructure)
{
    // Tracing observes a run without changing the hardware, so a traced
    // config and its silenced() twin must key caches and checkpoints
    // alike.
    const HardwareConfig traced =
        HardwareConfig::parseFile("configs/maeri_128_traced.cfg");
    ASSERT_TRUE(traced.trace);
    ASSERT_NE(traced.trace_sample_cycles,
              HardwareConfig().trace_sample_cycles);
    EXPECT_EQ(traced.structuralText(), traced.silenced().structuralText());
}

TEST(Config, ParseAcceptsCommentsAndSections)
{
    const HardwareConfig c = HardwareConfig::parse(
        "# a comment\n[hardware]\nms_size = 64 # trailing\n"
        "dn_type = TREE\ndn_bandwidth=16\nrn_bandwidth = 16\n");
    EXPECT_EQ(c.ms_size, 64);
    EXPECT_EQ(c.dn_bandwidth, 16);
}

TEST(Config, RejectsUnknownKey)
{
    EXPECT_THROW(HardwareConfig::parse("bogus_key = 1\n"), FatalError);
}

TEST(Config, RejectsNonIntegerValue)
{
    EXPECT_THROW(HardwareConfig::parse("ms_size = lots\n"), FatalError);
}

TEST(Config, RejectsTrailingGarbageAfterNumbers)
{
    // stoll/stod stop at the first bad character, so without the
    // full-consumption check these silently parse as 8 and 1.5.
    try {
        HardwareConfig::parse("ms_size = 8x\n", "test.cfg");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("test.cfg:1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trailing characters"), std::string::npos)
            << msg;
    }
    EXPECT_THROW(HardwareConfig::parse("dram_bandwidth_gbps = 1.5GB\n"),
                 FatalError);
    EXPECT_THROW(HardwareConfig::parse("clock_ghz = 1.0 1.0\n"),
                 FatalError);
}

TEST(Config, RejectsNonPowerOfTwoArray)
{
    HardwareConfig c = HardwareConfig::maeriLike();
    c.ms_size = 100;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Config, RejectsBandwidthAboveArraySize)
{
    HardwareConfig c = HardwareConfig::maeriLike(64, 64);
    c.dn_bandwidth = 128;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Config, RejectsIncompatibleSparseComposition)
{
    HardwareConfig c = HardwareConfig::sigmaLike();
    c.rn_type = RnType::Linear;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Config, RejectsSystolicWithClusterRn)
{
    HardwareConfig c = HardwareConfig::tpuLike();
    c.rn_type = RnType::Fan;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, IntegerRangeIsInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.integer(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

} // namespace
} // namespace stonne
