/**
 * @file
 * Replay hot-path guarantees (DESIGN.md section 9): decision logging
 * (the checked instantiation) must not perturb results, and the
 * hotpath benchmark must emit its stable "gllc-hotpath-v1" schema.
 * test_reference_llc checks the access body itself against an
 * independent reference LLC.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/offline_sim.hh"
#include "analysis/policy_table.hh"
#include "bench/hotpath.hh"
#include "common/decision_log.hh"

using namespace gllc;

namespace
{

/** Small but multi-bank LLC the pinned trace thrashes properly. */
LlcConfig
smallConfig()
{
    LlcConfig config;
    config.capacityBytes = 256 * 1024;
    config.ways = 16;
    config.banks = 4;
    return config;
}

void
expectStatsEqual(const LlcStats &a, const LlcStats &b,
                 const std::string &what)
{
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        SCOPED_TRACE(what + " stream " + std::to_string(i));
        EXPECT_EQ(a.stream[i].accesses, b.stream[i].accesses);
        EXPECT_EQ(a.stream[i].hits, b.stream[i].hits);
        EXPECT_EQ(a.stream[i].misses, b.stream[i].misses);
        EXPECT_EQ(a.stream[i].bypasses, b.stream[i].bypasses);
    }
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
}

void
expectCharacterizationEqual(const Characterization &a,
                            const Characterization &b,
                            const std::string &what)
{
    EXPECT_EQ(a.interTexHits, b.interTexHits) << what;
    EXPECT_EQ(a.intraTexHits, b.intraTexHits) << what;
    EXPECT_EQ(a.rtProductions, b.rtProductions) << what;
    EXPECT_EQ(a.rtConsumptions, b.rtConsumptions) << what;
    for (unsigned k = 0; k < Characterization::kEpochs; ++k) {
        EXPECT_EQ(a.texEpochHits[k], b.texEpochHits[k]) << what;
        EXPECT_EQ(a.texReach[k], b.texReach[k]) << what;
        EXPECT_EQ(a.zReach[k], b.zReach[k]) << what;
    }
}

} // namespace

/**
 * Decision logging selects the checked instantiation and must not
 * perturb results; the run actually records decisions.
 */
TEST(HotpathBitIdentity, DecisionLoggingUnperturbed)
{
    const FrameTrace trace = syntheticHotpathTrace(10000, 3);
    const LlcConfig config = smallConfig();
    const PolicySpec spec = policySpec("GSPC");

    const RunResult base = runTrace(trace, spec, config);

    DecisionLog::setDepth(128);
    DecisionLog::local().clear();
    const RunResult logged = runTrace(trace, spec, config);
    const std::size_t recorded = DecisionLog::local().size();
    DecisionLog::setDepth(0);

    EXPECT_EQ(recorded, 128u);
    expectStatsEqual(base.stats, logged.stats, "logged");
    expectCharacterizationEqual(base.characterization,
                                logged.characterization, "logged");
}

/** Same (length, seed) reproduces the synthetic trace exactly. */
TEST(HotpathSynthetic, TraceIsPinnedBySeed)
{
    const FrameTrace a = syntheticHotpathTrace(5000, 42);
    const FrameTrace b = syntheticHotpathTrace(5000, 42);
    const FrameTrace c = syntheticHotpathTrace(5000, 43);
    ASSERT_EQ(a.accesses.size(), 5000u);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
        ASSERT_EQ(a.accesses[i].addr, b.accesses[i].addr) << i;
        ASSERT_EQ(a.accesses[i].stream, b.accesses[i].stream) << i;
        ASSERT_EQ(a.accesses[i].isWrite, b.accesses[i].isWrite) << i;
        ASSERT_EQ(a.accesses[i].cycle, b.accesses[i].cycle) << i;
        differs = differs || a.accesses[i].addr != c.accesses[i].addr;
    }
    EXPECT_TRUE(differs);
}

/** The benchmark JSON carries the stable v1 schema fields. */
TEST(HotpathSchema, JsonHasStableFields)
{
    HotpathOptions options;
    options.syntheticAccesses = 4000;
    options.realFrames = 0;
    options.repeats = 2;
    options.policies = {"NRU", "DRRIP"};

    const HotpathReport report = runHotpathBench(options);
    ASSERT_EQ(report.policies.size(), 2u);
    for (const HotpathPolicyResult &p : report.policies) {
        EXPECT_EQ(p.totalAccesses, 2u * 4000u) << p.policy;
        EXPECT_GT(p.accessesPerSec, 0.0) << p.policy;
        EXPECT_GT(p.misses, 0u) << p.policy;
        EXPECT_LE(p.p50CellMs, p.p95CellMs) << p.policy;
    }

    std::ostringstream os;
    writeHotpathJson(os, report);
    const std::string json = os.str();
    for (const char *needle :
         {"\"schema\": \"gllc-hotpath-v1\"", "\"config\"",
          "\"scale\"", "\"synthetic_accesses\"", "\"real_frames\"",
          "\"repeats\"", "\"policies\"",
          "\"policy\": \"NRU\"", "\"policy\": \"DRRIP\"",
          "\"total_accesses\"", "\"total_seconds\"",
          "\"accesses_per_sec\"", "\"p50_cell_ms\"",
          "\"p95_cell_ms\"", "\"misses\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}
