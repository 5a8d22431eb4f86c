/**
 * @file
 * BankedLlc's access body and the offline replay against an
 * independent reference LLC (tests/reference_llc.hh).
 *
 * Every comparison checks the per-access outcomes (hit, bypass,
 * writeback address) of BankedLlc::access(), then the LlcStats, the
 * insertion-RRPV histogram, the characterization and the DRAM-bound
 * trace of runTrace().  Each runs three ways: plain, with the
 * invariant audit on and with the decision log on, so both the
 * unchecked and the checked instantiation of the access body meet
 * the oracle.  Inputs: seeded random traces and the pinned synthetic
 * hot-path trace under every allPolicySpecs() entry, and frame 0 of
 * every paper application at scale 8 under a policy subset.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/offline_sim.hh"
#include "bench/hotpath.hh"
#include "cache/policy/belady.hh"
#include "common/audit.hh"
#include "common/decision_log.hh"
#include "common/rng.hh"
#include "reference_llc.hh"
#include "workload/app_profile.hh"
#include "workload/frame_renderer.hh"

using namespace gllc;

namespace
{

enum class Mode { Plain, Audited, Logged };

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Audited:
        return "audited";
      case Mode::Logged:
        return "logged";
      default:
        return "plain";
    }
}

/** Turns on the audit or the decision log for its lifetime. */
class ModeGuard
{
  public:
    explicit ModeGuard(Mode mode) : wasAudited_(auditActive())
    {
        if (mode == Mode::Audited) {
            setAuditActive(true);
            scope_.emplace();
        } else if (mode == Mode::Logged) {
            DecisionLog::setDepth(64);
            DecisionLog::local().clear();
        }
    }

    ~ModeGuard()
    {
        scope_.reset();
        setAuditActive(wasAudited_);
        DecisionLog::setDepth(0);
    }

    ModeGuard(const ModeGuard &) = delete;
    ModeGuard &operator=(const ModeGuard &) = delete;

  private:
    bool wasAudited_;
    std::optional<AuditScope> scope_;
};

void
expectStatsEqual(const LlcStats &a, const LlcStats &b,
                 const char *what)
{
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        SCOPED_TRACE(std::string(what) + " stream "
                     + streamName(static_cast<StreamType>(i)));
        EXPECT_EQ(a.stream[i].accesses, b.stream[i].accesses);
        EXPECT_EQ(a.stream[i].hits, b.stream[i].hits);
        EXPECT_EQ(a.stream[i].misses, b.stream[i].misses);
        EXPECT_EQ(a.stream[i].bypasses, b.stream[i].bypasses);
    }
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
}

void
expectFillsEqual(const FillHistogram &a, const FillHistogram &b,
                 const char *what)
{
    for (std::size_t s = 0; s < kNumPolicyStreams; ++s)
        for (unsigned r = 0; r < FillHistogram::kMaxRrpv; ++r)
            EXPECT_EQ(a.counts[s][r], b.counts[s][r])
                << what << " stream " << s << " rrpv " << r;
}

void
expectCharacterizationEqual(const Characterization &a,
                            const Characterization &b)
{
    EXPECT_EQ(a.interTexHits, b.interTexHits);
    EXPECT_EQ(a.intraTexHits, b.intraTexHits);
    EXPECT_EQ(a.rtProductions, b.rtProductions);
    EXPECT_EQ(a.rtConsumptions, b.rtConsumptions);
    for (unsigned k = 0; k < Characterization::kEpochs; ++k) {
        EXPECT_EQ(a.texEpochHits[k], b.texEpochHits[k]) << "E" << k;
        EXPECT_EQ(a.texReach[k], b.texReach[k]) << "E" << k;
        EXPECT_EQ(a.zReach[k], b.zReach[k]) << "E" << k;
    }
}

/** Index of the first differing entry, or the common length. */
template <typename T, typename Same>
std::size_t
firstMismatch(const std::vector<T> &a, const std::vector<T> &b,
              Same same)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!same(a[i], b[i]))
            return i;
    return n;
}

/** Compare BankedLlc and runTrace with the reference on one input. */
void
expectMatchesReference(const FrameTrace &trace, const PolicySpec &spec,
                       const LlcConfig &config, Mode mode)
{
    SCOPED_TRACE(spec.name + " on " + trace.name + ", "
                 + modeName(mode));
    const ReferenceRun ref = referenceReplay(trace, spec, config);

    const ModeGuard guard(mode);
    LlcConfig llc_config = config;
    llc_config.uncachedDisplay =
        config.uncachedDisplay || spec.uncachedDisplay;
    BankedLlc llc(llc_config, spec.factory);
    EXPECT_EQ(llc.checked(), mode != Mode::Plain || auditActive());

    std::vector<std::uint64_t> next_use;
    if (spec.needsOracle)
        next_use = buildNextUseOracle(trace.accesses);
    std::vector<LlcAccessResult> outcomes;
    outcomes.reserve(trace.accesses.size());
    for (std::size_t i = 0; i < trace.accesses.size(); ++i)
        outcomes.push_back(llc.access(
            trace.accesses[i], i,
            spec.needsOracle ? next_use[i] : kNever));

    const std::size_t bad = firstMismatch(
        outcomes, ref.outcomes,
        [](const LlcAccessResult &a, const LlcAccessResult &b) {
            return a.hit == b.hit && a.bypassed == b.bypassed
                && a.writeback == b.writeback
                && (!a.writeback || a.writebackAddr == b.writebackAddr);
        });
    EXPECT_EQ(bad, trace.accesses.size())
        << "first outcome mismatch at access " << bad;
    expectStatsEqual(llc.stats(), ref.stats, "access()");
    expectFillsEqual(llc.mergedFillHistogram(), ref.fills, "access()");

    RunOptions options;
    options.collectDramTrace = true;
    const RunResult run = runTrace(trace, spec, config, options);
    expectStatsEqual(run.stats, ref.stats, "runTrace");
    expectFillsEqual(run.fills, ref.fills, "runTrace");
    expectCharacterizationEqual(run.characterization,
                                ref.characterization);
    EXPECT_EQ(run.dramTrace.size(), ref.dramTrace.size());
    const std::size_t bad_dram = firstMismatch(
        run.dramTrace, ref.dramTrace,
        [](const MemAccess &a, const MemAccess &b) {
            return a.addr == b.addr && a.stream == b.stream
                && a.isWrite == b.isWrite && a.cycle == b.cycle;
        });
    EXPECT_EQ(bad_dram,
              std::min(run.dramTrace.size(), ref.dramTrace.size()))
        << "first DRAM trace mismatch at entry " << bad_dram;

    if (mode == Mode::Logged) {
        EXPECT_GT(DecisionLog::local().size(), 0u)
            << "the checked instantiation recorded nothing";
    }
}

/** Random multi-stream trace over every stream type. */
FrameTrace
randomTrace(std::uint64_t seed)
{
    Rng rng(seed);
    FrameTrace t;
    t.name = "random-" + std::to_string(seed);
    for (std::uint32_t i = 0; i < 20000; ++i) {
        // Half the accesses reuse a cache-sized hot region.
        const Addr block =
            rng.chance(0.5) ? rng.below(1024) : rng.below(8192);
        const auto stream =
            static_cast<StreamType>(rng.below(kNumStreams));
        t.accesses.emplace_back(block * kBlockBytes, stream,
                                rng.chance(0.4), i);
    }
    return t;
}

/** 64 KB, 8 ways, 4 banks: 32 sets per bank. */
LlcConfig
randomTraceLlc()
{
    LlcConfig config;
    config.capacityBytes = 64 * 1024;
    config.ways = 8;
    config.banks = 4;
    return config;
}

/** The hot-path benchmark's multi-bank test cache. */
LlcConfig
syntheticLlc()
{
    LlcConfig config;
    config.capacityBytes = 256 * 1024;
    config.ways = 16;
    config.banks = 4;
    return config;
}

void
randomTracesMatch(Mode mode)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const FrameTrace trace = randomTrace(seed);
        for (const PolicySpec &spec : allPolicySpecs())
            expectMatchesReference(trace, spec, randomTraceLlc(), mode);
    }
}

void
syntheticTraceMatches(Mode mode)
{
    const FrameTrace trace = syntheticHotpathTrace(20000, 42);
    for (const PolicySpec &spec : allPolicySpecs())
        expectMatchesReference(trace, spec, syntheticLlc(), mode);
}

void
realFramesMatch(Mode mode)
{
    RenderScale scale;
    scale.linear = 8;
    const LlcConfig config =
        scaledLlcConfig(8ull << 20, scale.pixelScale());
    for (const AppProfile &app : paperApps()) {
        const FrameTrace trace = renderFrame(app, 0, scale);
        for (const char *name :
             {"LRU", "NRU", "SRRIP", "DRRIP", "GSPC+UCD"})
            expectMatchesReference(trace, policySpec(name), config,
                                   mode);
    }
}

} // namespace

TEST(ReferenceLlc, RandomTracesPlain) { randomTracesMatch(Mode::Plain); }

TEST(ReferenceLlc, RandomTracesAudited)
{
    randomTracesMatch(Mode::Audited);
}

TEST(ReferenceLlc, RandomTracesLogged) { randomTracesMatch(Mode::Logged); }

TEST(ReferenceLlc, SyntheticTracePlain)
{
    syntheticTraceMatches(Mode::Plain);
}

TEST(ReferenceLlc, SyntheticTraceAudited)
{
    syntheticTraceMatches(Mode::Audited);
}

TEST(ReferenceLlc, SyntheticTraceLogged)
{
    syntheticTraceMatches(Mode::Logged);
}

TEST(ReferenceLlc, RealFramesPlain) { realFramesMatch(Mode::Plain); }

TEST(ReferenceLlc, RealFramesAudited) { realFramesMatch(Mode::Audited); }

TEST(ReferenceLlc, RealFramesLogged) { realFramesMatch(Mode::Logged); }

/**
 * The reference itself: a hand-checked sequence on a 1-bank, 2-way
 * LRU cache, so the oracle is not only ever compared with the code
 * it checks.
 */
TEST(ReferenceLlc, HandCheckedLruSequence)
{
    LlcConfig config;
    config.capacityBytes = 4 * kBlockBytes;  // 2 sets x 2 ways
    config.ways = 2;
    config.banks = 1;
    ReferenceLlc llc(config, policySpec("LRU"));
    const auto at = [](Addr block, bool write = false) {
        return MemAccess(block * kBlockBytes, StreamType::Other, write);
    };
    EXPECT_FALSE(llc.access(at(0, true), 0, kNever).hit);  // set 0
    EXPECT_FALSE(llc.access(at(2), 1, kNever).hit);        // set 0
    EXPECT_TRUE(llc.access(at(0), 2, kNever).hit);         // 2 is LRU
    const LlcAccessResult evict2 = llc.access(at(4), 3, kNever);
    EXPECT_FALSE(evict2.hit);
    EXPECT_FALSE(evict2.writeback);                        // 2 clean
    const LlcAccessResult evict0 = llc.access(at(6), 4, kNever);
    EXPECT_TRUE(evict0.writeback);                         // 0 dirty
    EXPECT_EQ(evict0.writebackAddr, 0u);
    EXPECT_EQ(llc.stats().evictions, 2u);
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

/** The reference characterizer on the RT-bit and epoch rules. */
TEST(ReferenceLlc, HandCheckedCharacterization)
{
    ReferenceCharacterizer ch;
    ch.fill(1, StreamType::RenderTarget);  // production
    ch.hit(1, StreamType::Texture);        // consumption, tex E0
    ch.hit(1, StreamType::Texture);        // E0 hit
    ch.fill(2, StreamType::Z);
    ch.hit(2, StreamType::Z);
    ch.evict(2);
    const Characterization &c = ch.result();
    EXPECT_EQ(c.rtProductions, 1u);
    EXPECT_EQ(c.rtConsumptions, 1u);
    EXPECT_EQ(c.interTexHits, 1u);
    EXPECT_EQ(c.intraTexHits, 1u);
    EXPECT_EQ(c.texEpochHits[0], 1u);
    EXPECT_EQ(c.texReach[0], 1u);
    EXPECT_EQ(c.texReach[1], 1u);
    EXPECT_EQ(c.zReach[0], 1u);
    EXPECT_EQ(c.zReach[1], 1u);
}
