/**
 * @file
 * Property-based tests over randomized traces.
 *
 * The central invariants:
 *  - Belady's optimal policy never misses more than any online
 *    policy on the same trace and cache;
 *  - every policy's misses are at least the cold-miss lower bound
 *    and at most the trace length;
 *  - accounting identities hold (hits + misses + bypasses =
 *    accesses);
 *  - replays are deterministic;
 *  - Belady and LRU are stack algorithms: at a fixed set count,
 *    more ways never means more misses.
 *
 * Each property runs as a parameterized sweep over (policy, seed).
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/offline_sim.hh"
#include "common/rng.hh"
#include "reference_llc.hh"

using namespace gllc;

namespace
{

/** Random multi-stream trace with hot/cold mixture. */
FrameTrace
randomTrace(std::uint64_t seed, std::size_t length = 20000)
{
    Rng rng(seed);
    FrameTrace t;
    t.name = "random-" + std::to_string(seed);
    const StreamType streams[] = {
        StreamType::Vertex, StreamType::Z, StreamType::RenderTarget,
        StreamType::Texture, StreamType::Display, StreamType::Other,
    };
    for (std::size_t i = 0; i < length; ++i) {
        Addr block;
        if (rng.chance(0.5)) {
            block = rng.below(256);          // hot set
        } else {
            block = 256 + rng.below(16384);  // cold sprawl
        }
        const StreamType s = streams[rng.below(6)];
        t.accesses.emplace_back(block * kBlockBytes, s,
                                rng.chance(0.4),
                                static_cast<std::uint32_t>(i));
    }
    return t;
}

LlcConfig
smallLlc()
{
    LlcConfig c;
    c.capacityBytes = 128 * 1024;  // 2048 blocks
    c.ways = 16;
    c.banks = 4;
    return c;
}

std::uint64_t
coldMisses(const FrameTrace &t)
{
    std::unordered_set<Addr> seen;
    for (const MemAccess &a : t.accesses)
        seen.insert(blockNumber(a.addr));
    return seen.size();
}

using PolicySeed = std::tuple<std::string, std::uint64_t>;

class PolicyProperty : public ::testing::TestWithParam<PolicySeed>
{
};

} // namespace

TEST_P(PolicyProperty, BeladyIsOptimal)
{
    const auto &[policy, seed] = GetParam();
    const FrameTrace t = randomTrace(seed);
    const auto online =
        runTrace(t, policySpec(policy), smallLlc());
    const auto opt = runTrace(t, policySpec("Belady"), smallLlc());
    EXPECT_LE(opt.stats.totalMisses(), online.stats.totalMisses())
        << policy << " beat Belady on seed " << seed;
}

TEST_P(PolicyProperty, MissesBoundedByColdAndLength)
{
    const auto &[policy, seed] = GetParam();
    const FrameTrace t = randomTrace(seed);
    const auto r = runTrace(t, policySpec(policy), smallLlc());
    EXPECT_GE(r.stats.totalMisses(), coldMisses(t));
    EXPECT_LE(r.stats.totalMisses(), t.accesses.size());
}

TEST_P(PolicyProperty, AccountingIdentity)
{
    const auto &[policy, seed] = GetParam();
    const FrameTrace t = randomTrace(seed);
    const auto r = runTrace(t, policySpec(policy), smallLlc());
    EXPECT_EQ(r.stats.totalAccesses(), t.accesses.size());
    std::uint64_t sum = 0;
    for (const auto &s : r.stats.stream)
        sum += s.hits + s.misses + s.bypasses;
    EXPECT_EQ(sum, t.accesses.size());
}

TEST_P(PolicyProperty, ReplayIsDeterministic)
{
    const auto &[policy, seed] = GetParam();
    const FrameTrace t = randomTrace(seed, 8000);
    const auto a = runTrace(t, policySpec(policy), smallLlc());
    const auto b = runTrace(t, policySpec(policy), smallLlc());
    EXPECT_EQ(a.stats.totalMisses(), b.stats.totalMisses());
    EXPECT_EQ(a.stats.totalHits(), b.stats.totalHits());
}

TEST_P(PolicyProperty, UcdNeverCachesDisplay)
{
    const auto &[policy, seed] = GetParam();
    const FrameTrace t = randomTrace(seed, 8000);
    const auto r =
        runTrace(t, policySpec(policy + "+UCD"), smallLlc());
    const auto &disp = r.stats.of(StreamType::Display);
    // Display may still hit blocks cached by other streams, but it
    // must never allocate.
    EXPECT_EQ(disp.misses, 0u);
    EXPECT_EQ(disp.accesses, disp.hits + disp.bypasses);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyProperty,
    ::testing::Combine(
        ::testing::Values("LRU", "NRU", "Random", "SRRIP", "DRRIP",
                          "DRRIP-4", "GS-DRRIP", "SHiP-mem", "DIP",
                          "UCP-stream", "peLIFO", "GSPZTC",
                          "GSPZTC+TSE", "GSPC"),
        ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<PolicySeed> &info) {
        std::string name = std::get<0>(info.param) + "_seed"
            + std::to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

namespace
{

class CapacityProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(CapacityProperty, WiderBeladyCacheNeverMissesMore)
{
    // At a fixed set count, growing the associativity grows each
    // set's private capacity; per-set OPT is optimal on the set's
    // subtrace, so misses are monotone non-increasing (the OPT
    // inclusion property).
    const FrameTrace t = randomTrace(GetParam());
    std::uint64_t last = ~0ull;
    for (const std::uint32_t ways : {16u, 32u, 64u, 128u}) {
        LlcConfig c;
        c.capacityBytes =
            static_cast<std::uint64_t>(ways) * 32 * kBlockBytes;
        c.ways = ways;  // 32 sets at every step
        c.banks = 1;
        const auto r = runTrace(t, policySpec("Belady"), c);
        EXPECT_LE(r.stats.totalMisses(), last);
        last = r.stats.totalMisses();
    }
}

TEST_P(CapacityProperty, WiderLruCacheNeverMissesMore)
{
    // LRU is a stack algorithm (Mattson et al., 1970): at a fixed
    // set count, a wider set always holds a superset of the blocks
    // the narrower one holds, so misses never increase with the
    // associativity.  Checked through the replay and through the
    // reference LLC's own LRU transcription.
    const FrameTrace t = randomTrace(GetParam());
    std::uint64_t last = ~0ull;
    std::uint64_t last_ref = ~0ull;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        LlcConfig c;
        c.capacityBytes =
            static_cast<std::uint64_t>(ways) * 32 * kBlockBytes;
        c.ways = ways;  // 32 sets at every step
        c.banks = 1;
        const std::uint64_t misses =
            runTrace(t, policySpec("LRU"), c).stats.totalMisses();
        const std::uint64_t ref_misses =
            referenceReplay(t, policySpec("LRU"), c)
                .stats.totalMisses();
        EXPECT_LE(misses, last) << ways << " ways";
        EXPECT_LE(ref_misses, last_ref) << ways << " ways";
        last = misses;
        last_ref = ref_misses;
    }
}

TEST_P(CapacityProperty, HugeCacheLeavesOnlyColdMisses)
{
    const FrameTrace t = randomTrace(GetParam());
    LlcConfig c;
    c.capacityBytes = 4 << 20;  // far beyond the working set
    c.ways = 16;
    c.banks = 1;
    for (const char *policy : {"LRU", "DRRIP", "GSPC", "Belady"}) {
        const auto r = runTrace(t, policySpec(policy), c);
        EXPECT_EQ(r.stats.totalMisses(), coldMisses(t)) << policy;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacityProperty,
                         ::testing::Values(11ull, 22ull, 33ull));
