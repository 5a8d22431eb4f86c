/**
 * @file
 * Unit tests for the DDR3 timing model, its differential test against
 * the division-based reference scheduler (tests/reference_dram.hh)
 * and the per-channel row-buffer conservation property.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/metrics.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "reference_dram.hh"

using namespace gllc;

namespace
{

std::vector<DramRequest>
reqs(std::initializer_list<Addr> blocks, std::uint64_t spacing = 0)
{
    std::vector<DramRequest> r;
    std::uint64_t t = 0;
    for (const Addr b : blocks) {
        r.push_back(DramRequest{b * kBlockBytes, t, false});
        t += spacing;
    }
    return r;
}

} // namespace

TEST(DramConfig, Presets)
{
    const DramConfig base = DramConfig::ddr3_1600();
    EXPECT_EQ(base.tCas, 15u);
    EXPECT_EQ(base.tRcd, 15u);
    EXPECT_EQ(base.tRp, 15u);
    EXPECT_DOUBLE_EQ(base.clockMhz, 800.0);
    EXPECT_EQ(base.channels, 2u);
    EXPECT_EQ(base.banksPerChannel, 8u);
    EXPECT_EQ(base.burstCycles(), 4u);

    const DramConfig fast = DramConfig::ddr3_1867();
    EXPECT_EQ(fast.tCas, 10u);
    EXPECT_DOUBLE_EQ(fast.clockMhz, 933.0);

    const DramConfig gddr = DramConfig::gddr5();
    EXPECT_EQ(gddr.channels, 4u);
    EXPECT_EQ(gddr.banksPerChannel, 16u);
    EXPECT_EQ(gddr.rowBytes, 2048u);
    // Double the DDR3-1600 peak bandwidth per cycle.
    EXPECT_DOUBLE_EQ(gddr.peakBytesPerCycle(), 64.0);
}

TEST(Dram, Gddr5HigherPeakThroughputOnParallelStreams)
{
    // Spread requests across channels/banks: GDDR5's 4 channels
    // finish a bandwidth-bound batch in fewer *nanoseconds* than
    // dual-channel DDR3 despite longer latencies.
    std::vector<DramRequest> r;
    for (Addr i = 0; i < 4000; ++i)
        r.push_back(DramRequest{i * kBlockBytes, 0, false});
    DramModel ddr3(DramConfig::ddr3_1600());
    DramModel gddr(DramConfig::gddr5());
    const double ddr3_ns =
        static_cast<double>(ddr3.simulate(r).finishCycle) / 0.8;
    const double gddr_ns =
        static_cast<double>(gddr.simulate(r).finishCycle) / 1.25;
    EXPECT_LT(gddr_ns, ddr3_ns);
}

TEST(DramMap, ChannelsInterleaveByBlock)
{
    const DramModel dram(DramConfig::ddr3_1600());
    EXPECT_EQ(dram.channelOf(0), 0u);
    EXPECT_EQ(dram.channelOf(64), 1u);
    EXPECT_EQ(dram.channelOf(128), 0u);
}

TEST(DramMap, RowHolds8KPerChannelStride)
{
    const DramModel dram(DramConfig::ddr3_1600());
    // Two blocks in the same channel within one row.
    EXPECT_EQ(dram.rowOf(0), dram.rowOf(128));
    EXPECT_EQ(dram.bankOf(0), dram.bankOf(128));
}

TEST(DramMap, BanksRotateAcrossRows)
{
    const DramModel dram(DramConfig::ddr3_1600());
    // One row spans rowBytes * channels of address space.
    const Addr next_row = 8192 * 2;
    EXPECT_NE(dram.bankOf(0), dram.bankOf(next_row));
}

TEST(Dram, SingleRequestLatency)
{
    DramModel dram(DramConfig::ddr3_1600());
    const DramStats s = dram.simulate(reqs({0}));
    // Cold bank: tRCD + tCAS + burst = 15 + 15 + 4.
    EXPECT_EQ(s.finishCycle, 34u);
    EXPECT_EQ(s.requests, 1u);
    EXPECT_EQ(s.rowMisses, 1u);
    EXPECT_EQ(s.totalLatency, 34u);
}

TEST(Dram, RowHitIsFasterThanRowMiss)
{
    DramModel dram(DramConfig::ddr3_1600());
    // Same row twice: second request is a row hit.
    const DramStats s = dram.simulate(reqs({0, 2}));
    EXPECT_EQ(s.rowHits, 1u);
    EXPECT_EQ(s.rowMisses, 1u);
    // Row hit pipelines: total far below two full activations.
    EXPECT_LT(s.finishCycle, 2u * 34u);
}

TEST(Dram, ConflictPaysPrecharge)
{
    const DramConfig config = DramConfig::ddr3_1600();
    DramModel dram(config);
    // Same channel + bank, different row: the second request must
    // precharge (tRP) then activate.
    const Addr blocks_per_row = config.rowBytes / kBlockBytes;
    const Addr conflict =
        blocks_per_row * config.channels * config.banksPerChannel;
    const DramStats s = dram.simulate(reqs({0, conflict}));
    EXPECT_EQ(s.rowMisses, 2u);
    // Request 2 queues behind the bank (ready at 19), pays
    // tRP + tRCD + tCAS and a burst: 19 + 15 + 15 + 15 + 4 = 68.
    EXPECT_EQ(s.finishCycle, 68u);
}

TEST(Dram, ChannelsWorkInParallel)
{
    DramModel dram(DramConfig::ddr3_1600());
    // Blocks 0 and 1 sit in different channels: both finish at the
    // single-request latency.
    const DramStats s = dram.simulate(reqs({0, 1}));
    EXPECT_EQ(s.finishCycle, 34u);
}

TEST(Dram, BusSerializesRowHitStream)
{
    DramModel dram(DramConfig::ddr3_1600());
    // Many row hits to one channel: throughput bounded by the burst
    // occupancy of the data bus (4 cycles each).
    std::vector<DramRequest> r;
    for (Addr i = 0; i < 64; ++i)
        r.push_back(DramRequest{i * 2 * kBlockBytes, 0, false});
    const DramStats s = dram.simulate(r);
    EXPECT_GE(s.finishCycle, 34u + 63u * 4u);
    EXPECT_EQ(s.busBusyCycles, 64u * 4u);
}

TEST(Dram, LateArrivalsShiftSchedule)
{
    DramModel dram(DramConfig::ddr3_1600());
    const DramStats s = dram.simulate(reqs({0, 2}, 1000));
    // Second request arrives at cycle 1000 and finds its row open.
    EXPECT_EQ(s.rowHits, 1u);
    EXPECT_EQ(s.finishCycle, 1000u + 15u + 4u);
}

TEST(Dram, ReadsAndWritesCounted)
{
    DramModel dram(DramConfig::ddr3_1600());
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{64, 0, true});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.reads, 1u);
    EXPECT_EQ(s.writes, 1u);
}

TEST(Dram, AverageLatencyComputed)
{
    DramModel dram(DramConfig::ddr3_1600());
    const DramStats s = dram.simulate(reqs({0}));
    EXPECT_DOUBLE_EQ(s.averageLatency(), 34.0);
    const DramStats empty = dram.simulate({});
    EXPECT_DOUBLE_EQ(empty.averageLatency(), 0.0);
}

TEST(Dram, FasterPartFinishesSooner)
{
    std::vector<DramRequest> r;
    for (Addr i = 0; i < 200; ++i)
        r.push_back(DramRequest{i * 577 * kBlockBytes, i, false});

    DramModel slow(DramConfig::ddr3_1600());
    DramModel fast(DramConfig::ddr3_1867());
    EXPECT_LT(fast.simulate(r).finishCycle,
              slow.simulate(r).finishCycle);
}

TEST(Dram, WriteToReadTurnaroundCharged)
{
    DramModel dram(DramConfig::ddr3_1600());
    std::vector<DramRequest> r;
    // Same channel (even blocks): write then read.
    r.push_back(DramRequest{0, 0, true});
    r.push_back(DramRequest{2 * kBlockBytes, 0, false});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.turnarounds, 1u);

    // Read then write pays nothing extra.
    std::vector<DramRequest> rw;
    rw.push_back(DramRequest{0, 0, false});
    rw.push_back(DramRequest{2 * kBlockBytes, 0, true});
    const DramStats s2 = dram.simulate(rw);
    EXPECT_EQ(s2.turnarounds, 0u);
}

TEST(Dram, RefreshStallsLongSchedules)
{
    DramConfig config = DramConfig::ddr3_1600();
    DramModel dram(config);
    // Two requests straddling a tREFI boundary on one channel.
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{2 * kBlockBytes, config.tRefi + 5, false});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.refreshes, 1u);
    // The refreshed channel closed its rows: the second request is a
    // row miss despite matching the open row.
    EXPECT_EQ(s.rowMisses, 2u);
}

TEST(Dram, RefreshDisabledWhenTRefiZero)
{
    DramConfig config = DramConfig::ddr3_1600();
    config.tRefi = 0;
    DramModel dram(config);
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{2 * kBlockBytes, 100000, false});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.refreshes, 0u);
    EXPECT_EQ(s.rowHits, 1u);
}

TEST(DramDeath, ArrivalsMustBeMonotone)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    DramModel dram(DramConfig::ddr3_1600());
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 10, false});
    r.push_back(DramRequest{64, 5, false});
    EXPECT_DEATH(dram.simulate(r), "");
#endif
}

// ---------------------------------------------------------------
// Differential oracle: DramModel against the division-based
// reference scheduler on random request streams.
// ---------------------------------------------------------------

namespace
{

/** The three presets plus refresh variants: off, and every few ops. */
std::vector<DramConfig>
oracleConfigs()
{
    std::vector<DramConfig> configs;
    for (const DramConfig &preset :
         {DramConfig::ddr3_1600(), DramConfig::ddr3_1867(),
          DramConfig::gddr5()}) {
        configs.push_back(preset);
        DramConfig off = preset;
        off.tRefi = 0;
        configs.push_back(off);
        DramConfig dense = preset;
        dense.tRefi = 97;
        dense.tRfc = 11;
        configs.push_back(dense);
    }
    return configs;
}

/**
 * Random stream mixing row-local runs (hits), scattered blocks
 * (conflicts), writes (turnarounds), simultaneous arrivals and idle
 * gaps that span several refresh windows.
 */
std::vector<DramRequest>
randomStream(Rng &rng, std::size_t n, std::uint64_t refi)
{
    std::vector<DramRequest> r;
    r.reserve(n);
    std::uint64_t t = 0;
    Addr hot = rng.below(1u << 20) * kBlockBytes;
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(8)) {
          case 0:
            // Idle gap of up to four whole refresh windows.
            t += rng.below(4 * std::max<std::uint64_t>(refi, 64) + 1);
            break;
          case 1:
          case 2:
            break;  // same-cycle arrival
          default:
            t += rng.below(24);
            break;
        }
        if (rng.below(4) == 0)
            hot = rng.below(1u << 24) * kBlockBytes;
        const Addr addr = rng.below(3) == 0
            ? rng.next() & ~Addr{kBlockBytes - 1}
            : hot + rng.below(256) * kBlockBytes;
        r.push_back(DramRequest{addr, t, rng.below(3) == 0});
    }
    return r;
}

void
expectSameStats(const DramStats &got, const DramStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.requests, want.requests) << what;
    EXPECT_EQ(got.reads, want.reads) << what;
    EXPECT_EQ(got.writes, want.writes) << what;
    EXPECT_EQ(got.rowHits, want.rowHits) << what;
    EXPECT_EQ(got.rowMisses, want.rowMisses) << what;
    EXPECT_EQ(got.rowConflicts, want.rowConflicts) << what;
    EXPECT_EQ(got.refreshes, want.refreshes) << what;
    EXPECT_EQ(got.turnarounds, want.turnarounds) << what;
    EXPECT_EQ(got.finishCycle, want.finishCycle) << what;
    EXPECT_EQ(got.totalLatency, want.totalLatency) << what;
    EXPECT_EQ(got.busBusyCycles, want.busBusyCycles) << what;
}

} // namespace

TEST(DramOracle, AddressMappingMatchesDivisionFormulas)
{
    std::vector<DramConfig> configs = oracleConfigs();
    DramConfig narrow = DramConfig::ddr3_1600();
    narrow.channels = 1;
    narrow.banksPerChannel = 1;
    narrow.rowBytes = kBlockBytes;
    configs.push_back(narrow);

    Rng rng(41);
    for (const DramConfig &c : configs) {
        const DramModel dram(c);
        for (int i = 0; i < 20000; ++i) {
            const Addr addr = i < 64 ? static_cast<Addr>(i) * kBlockBytes
                : i == 64          ? ~Addr{0}
                                   : rng.next();
            ASSERT_EQ(dram.channelOf(addr), referenceChannelOf(c, addr))
                << c.name << " addr " << addr;
            ASSERT_EQ(dram.bankOf(addr), referenceBankOf(c, addr))
                << c.name << " addr " << addr;
            ASSERT_EQ(dram.rowOf(addr), referenceRowOf(c, addr))
                << c.name << " addr " << addr;
        }
    }
}

TEST(DramOracle, RandomStreamsMatchTheReferenceOnEveryField)
{
    Rng rng(7);
    for (const DramConfig &c : oracleConfigs()) {
        DramModel dram(c);
        DramStats total;
        for (int trial = 0; trial < 20; ++trial) {
            const std::vector<DramRequest> r =
                randomStream(rng, 2000, c.tRefi);
            const DramStats want = referenceSimulate(c, r);
            const DramStats got = dram.simulate(r);
            expectSameStats(got, want,
                            c.name + " tRefi=" + std::to_string(c.tRefi)
                                + " trial " + std::to_string(trial));
            total.refreshes += want.refreshes;
            total.turnarounds += want.turnarounds;
            total.rowHits += want.rowHits;
            total.rowConflicts += want.rowConflicts;
        }
        // The streams reach every path they are meant to test.
        EXPECT_GT(total.turnarounds, 0u) << c.name;
        EXPECT_GT(total.rowHits, 0u) << c.name;
        EXPECT_GT(total.rowConflicts, 0u) << c.name;
        if (c.tRefi != 0)
            EXPECT_GT(total.refreshes, 0u) << c.name;
        else
            EXPECT_EQ(total.refreshes, 0u) << c.name;
    }
}

TEST(DramOracle, RefreshCrossingThatSkipsWindowsCountsOnce)
{
    // One crossing however many windows the idle gap skips: the
    // model must jump its next-window mark, not step through them.
    const DramConfig c = DramConfig::ddr3_1600();
    DramModel dram(c);
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{2 * kBlockBytes, 5 * c.tRefi + 3, false});
    r.push_back(DramRequest{4 * kBlockBytes, 5 * c.tRefi + 9, false});
    r.push_back(DramRequest{6 * kBlockBytes, 6 * c.tRefi, false});
    const DramStats s = dram.simulate(r);
    expectSameStats(s, referenceSimulate(c, r), "skipped windows");
    EXPECT_EQ(s.refreshes, 2u);
}

TEST(DramOracle, ArrivalsAtTheTopOfTheCycleRangeMatch)
{
    // Where (refresh_done + 1) * tRefi no longer fits in 64 bits, the
    // next-window mark saturates and the division decides.
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    for (const std::uint32_t refi : {1u, 7u, 6240u}) {
        DramConfig c = DramConfig::ddr3_1600();
        c.tRefi = refi;
        DramModel dram(c);
        std::vector<DramRequest> r;
        for (std::uint64_t k = 0; k < 6; ++k)
            r.push_back(DramRequest{k * 2 * kBlockBytes,
                                    kMax - 40 + 8 * (k / 2), k == 1});
        r.push_back(DramRequest{0, kMax, false});
        r.push_back(DramRequest{0, kMax, false});
        expectSameStats(dram.simulate(r), referenceSimulate(c, r),
                        "tRefi=" + std::to_string(refi));
    }
}

// ---------------------------------------------------------------
// Conservation: per channel, every request is a row hit or a row
// miss, and only a miss can be a conflict.
// ---------------------------------------------------------------

TEST(DramProperty, RowOutcomesConservePerChannelRequests)
{
    Rng rng(23);
    for (const DramConfig &c : oracleConfigs()) {
        MetricsRegistry::instance().reset();
        setMetricsActive(true);
        DramModel dram(c);
        DramStats total;
        for (int trial = 0; trial < 4; ++trial) {
            const DramStats s =
                dram.simulate(randomStream(rng, 3000, c.tRefi));
            total.requests += s.requests;
            total.rowHits += s.rowHits;
            total.rowMisses += s.rowMisses;
        }
        const MetricsSnapshot snap =
            MetricsRegistry::instance().snapshot();
        setMetricsActive(false);
        MetricsRegistry::instance().reset();

        std::uint64_t requests = 0;
        for (std::uint32_t ch = 0; ch < c.channels; ++ch) {
            const std::string p = "dram.ch" + std::to_string(ch) + ".";
            const std::uint64_t n = snap.counter(p + "requests");
            const std::uint64_t hits = snap.counter(p + "row_hits");
            const std::uint64_t misses = snap.counter(p + "row_misses");
            const std::uint64_t conflicts =
                snap.counter(p + "row_conflicts");
            EXPECT_GT(n, 0u) << c.name << " ch" << ch;
            EXPECT_EQ(hits + misses, n) << c.name << " ch" << ch;
            EXPECT_LE(conflicts, misses) << c.name << " ch" << ch;
            requests += n;
        }
        EXPECT_EQ(requests, total.requests) << c.name;
        EXPECT_EQ(snap.counter("dram.requests"), total.requests);
        EXPECT_EQ(snap.counter("dram.row_hits"), total.rowHits);
        EXPECT_EQ(snap.counter("dram.row_misses"), total.rowMisses);
    }
}
