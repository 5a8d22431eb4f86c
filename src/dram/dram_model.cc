#include "dram/dram_model.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

DramConfig
DramConfig::ddr3_1600()
{
    DramConfig c;
    c.name = "DDR3-1600 15-15-15";
    c.clockMhz = 800.0;
    c.tCas = c.tRcd = c.tRp = 15;
    return c;
}

DramConfig
DramConfig::ddr3_1867()
{
    DramConfig c;
    c.name = "DDR3-1867 10-10-10";
    c.clockMhz = 933.0;
    c.tCas = c.tRcd = c.tRp = 10;
    c.tWtr = 9;
    c.tRefi = 7277;  // 7.8 us at 933 MHz
    c.tRfc = 243;    // 260 ns at 933 MHz
    return c;
}

DramConfig
DramConfig::gddr5()
{
    DramConfig c;
    c.name = "GDDR5-5000";
    c.channels = 4;
    c.banksPerChannel = 16;
    c.clockMhz = 1250.0;
    c.tCas = 18;
    c.tRcd = 18;
    c.tRp = 18;
    c.rowBytes = 2048;
    c.tWtr = 12;
    c.tRefi = 9750;   // 7.8 us at 1250 MHz
    c.tRfc = 325;     // 260 ns at 1250 MHz
    return c;
}

DramModel::DramModel(const DramConfig &config)
    : config_(config)
{
    GLLC_ASSERT(config.channels > 0 && config.banksPerChannel > 0);
    GLLC_ASSERT(std::has_single_bit(config.channels));
    GLLC_ASSERT(std::has_single_bit(config.banksPerChannel));
    GLLC_ASSERT(std::has_single_bit(config.rowBytes / kBlockBytes));
    channelShift_ = static_cast<unsigned>(
        std::countr_zero(config.channels));
    rowShift_ = static_cast<unsigned>(
        std::countr_zero(config.rowBytes / kBlockBytes));
    bankShift_ = static_cast<unsigned>(
        std::countr_zero(config.banksPerChannel));
    GLLC_ASSERT(channelShift_ + rowShift_ + bankShift_ < 64);
}

std::uint32_t
DramModel::channelOf(Addr addr) const
{
    // Block-interleaved channels maximize delivered bandwidth on
    // streaming access patterns.
    return static_cast<std::uint32_t>(blockNumber(addr)
                                      & (config_.channels - 1));
}

std::uint32_t
DramModel::bankOf(Addr addr) const
{
    const std::uint64_t row_seq =
        blockNumber(addr) >> (channelShift_ + rowShift_);
    return static_cast<std::uint32_t>(row_seq
                                      & (config_.banksPerChannel - 1));
}

std::uint64_t
DramModel::rowOf(Addr addr) const
{
    return blockNumber(addr)
        >> (channelShift_ + rowShift_ + bankShift_);
}

DramStats
DramModel::simulate(const std::vector<DramRequest> &requests)
{
    struct BankState
    {
        std::uint64_t row = ~0ull;
        std::uint64_t ready = 0;
        bool open = false;
    };

    // dram.simulate fault site: keyed on the request-stream shape,
    // so the same batch fails at any thread count.
    if (faultsActive()
        && faultFires(FaultSite::DramSimulate,
                      mix64(requests.size())))
        throwInjectedFault(FaultSite::DramSimulate);

    const std::uint32_t nch = config_.channels;
    const std::uint32_t nbank = config_.banksPerChannel;

    std::vector<BankState> banks(
        static_cast<std::size_t>(nch) * nbank);
    std::vector<std::uint64_t> bus_free(nch, 0);
    std::vector<std::uint8_t> last_was_write(nch, 0);
    std::vector<std::uint64_t> refresh_done(nch, 0);
    // First cycle of the next refresh window per channel, so the
    // common no-crossing case is one compare and no division.
    std::vector<std::uint64_t> next_refresh(nch, config_.tRefi);

    const std::uint64_t ch_mask = nch - 1;
    const std::uint64_t bank_mask = nbank - 1;
    const unsigned bank_shift = channelShift_ + rowShift_;
    const unsigned row_shift = bank_shift + bankShift_;

    // Per-channel stats + per-(channel, bank) request counts (the
    // bank-level-parallelism view), kept only while metrics are on.
    const bool metrics = metricsActive();
    std::vector<DramStats> channel_stats(metrics ? nch : 0);
    std::vector<std::uint64_t> bank_requests(
        metrics ? static_cast<std::size_t>(nch) * nbank : 0, 0);

    DramStats stats;
    std::uint64_t last_arrival = 0;

    for (const DramRequest &req : requests) {
        GLLC_ASSERT(req.arrival >= last_arrival);
        last_arrival = req.arrival;

        // channelOf / bankOf / rowOf, inlined.
        const std::uint64_t block = blockNumber(req.addr);
        const auto ch = static_cast<std::uint32_t>(block & ch_mask);
        const auto bk =
            static_cast<std::uint32_t>((block >> bank_shift) & bank_mask);
        const std::uint64_t row = block >> row_shift;
        BankState &bank = banks[static_cast<std::size_t>(ch) * nbank
                                + bk];

        std::uint64_t start = std::max(req.arrival, bank.ready);

        // All-bank refresh: when the schedule crosses a tREFI
        // boundary (start / tRefi > refresh_done) the channel stalls
        // for tRFC and every row closes.
        if (config_.tRefi != 0 && start >= next_refresh[ch]) {
            const std::uint64_t window = start / config_.tRefi;
            if (window > refresh_done[ch]) {
                refresh_done[ch] = window;
                ++stats.refreshes;
                start += config_.tRfc;
                for (std::uint32_t b = 0; b < nbank; ++b) {
                    banks[static_cast<std::size_t>(ch) * nbank + b]
                        .open = false;
                }
            }
            // (refresh_done + 1) * tRefi, saturated: at the top of
            // the range the division above stays the exact test.
            if (__builtin_mul_overflow(refresh_done[ch] + 1,
                                       std::uint64_t{config_.tRefi},
                                       &next_refresh[ch]))
                next_refresh[ch] =
                    std::numeric_limits<std::uint64_t>::max();
        }

        // Row misses pay precharge + activate before the CAS; row
        // hits pipeline CAS-to-CAS at the burst rate, so the bank is
        // only occupied for the burst.
        std::uint64_t cas_ready = start;
        if (bank.open && bank.row == row) {
            ++stats.rowHits;
            if (metrics)
                ++channel_stats[ch].rowHits;
        } else {
            ++stats.rowMisses;
            if (bank.open)
                ++stats.rowConflicts;
            if (metrics) {
                ++channel_stats[ch].rowMisses;
                if (bank.open)
                    ++channel_stats[ch].rowConflicts;
            }
            cas_ready += (bank.open ? config_.tRp : 0) + config_.tRcd;
            bank.open = true;
            bank.row = row;
        }

        const std::uint64_t data_ready = cas_ready + config_.tCas;
        std::uint64_t bus_earliest = bus_free[ch];
        if (!req.isWrite && last_was_write[ch]) {
            // Write-to-read turnaround on the shared data bus.
            bus_earliest += config_.tWtr;
            ++stats.turnarounds;
        }
        last_was_write[ch] = req.isWrite;
        const std::uint64_t bus_start =
            std::max(data_ready, bus_earliest);
        const std::uint64_t completion =
            bus_start + config_.burstCycles();

        bus_free[ch] = completion;
        // The bank can accept the next CAS one burst after this one;
        // the data return (tCAS) overlaps with it.
        bank.ready = cas_ready + config_.burstCycles();
        stats.busBusyCycles += config_.burstCycles();

        ++stats.requests;
        if (req.isWrite)
            ++stats.writes;
        else
            ++stats.reads;
        stats.finishCycle = std::max(stats.finishCycle, completion);
        stats.totalLatency += completion - req.arrival;

        if (metrics) {
            DramStats &cs = channel_stats[ch];
            ++cs.requests;
            if (req.isWrite)
                ++cs.writes;
            else
                ++cs.reads;
            ++bank_requests[static_cast<std::size_t>(ch) * nbank + bk];
        }
    }

    if (metrics)
        flushMetrics(stats, channel_stats, bank_requests);

    return stats;
}

void
DramModel::flushMetrics(
    const DramStats &stats,
    const std::vector<DramStats> &channel_stats,
    const std::vector<std::uint64_t> &bank_requests) const
{
    auto &reg = MetricsRegistry::instance();

    auto flushOne = [&reg](const std::string &p, const DramStats &s) {
        if (s.requests)
            reg.addCounter(p + "requests", s.requests);
        if (s.reads)
            reg.addCounter(p + "reads", s.reads);
        if (s.writes)
            reg.addCounter(p + "writes", s.writes);
        if (s.rowHits)
            reg.addCounter(p + "row_hits", s.rowHits);
        if (s.rowMisses)
            reg.addCounter(p + "row_misses", s.rowMisses);
        if (s.rowConflicts)
            reg.addCounter(p + "row_conflicts", s.rowConflicts);
    };

    flushOne("dram.", stats);
    if (stats.refreshes)
        reg.addCounter("dram.refreshes", stats.refreshes);
    if (stats.turnarounds)
        reg.addCounter("dram.turnarounds", stats.turnarounds);
    if (stats.busBusyCycles)
        reg.addCounter("dram.bus_busy_cycles", stats.busBusyCycles);
    reg.maxGauge("dram.max_finish_cycle",
                 static_cast<double>(stats.finishCycle));

    const std::uint32_t nbank = config_.banksPerChannel;
    for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
        const std::string p = "dram.ch" + std::to_string(ch) + ".";
        flushOne(p, channel_stats[ch]);
        // Bank-level parallelism: request distribution over banks.
        const std::string bname = p + "bank_requests";
        for (std::uint32_t b = 0; b < nbank; ++b) {
            const std::uint64_t n =
                bank_requests[static_cast<std::size_t>(ch) * nbank + b];
            if (n)
                reg.recordValue(bname, static_cast<std::int64_t>(b),
                                n);
        }
    }
}

} // namespace gllc
