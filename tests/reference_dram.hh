/**
 * @file
 * Test oracle: the original division-based DRAM scheduler.
 *
 * This is DramModel::simulate as it stood before the address mapping
 * became shifts and masks and the refresh check a per-channel
 * next-window compare, kept apart from the model: metrics and fault
 * sites are dropped, and the mapping divides by the channel count,
 * the blocks per row and the banks per channel.  Every request pays
 * a division per refresh check.  It is slow and obviously right,
 * which is what an oracle should be.
 */

#ifndef GLLC_TESTS_REFERENCE_DRAM_HH
#define GLLC_TESTS_REFERENCE_DRAM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/dram_model.hh"

namespace gllc
{

inline std::uint32_t
referenceChannelOf(const DramConfig &c, Addr addr)
{
    return static_cast<std::uint32_t>(blockNumber(addr) % c.channels);
}

inline std::uint32_t
referenceBankOf(const DramConfig &c, Addr addr)
{
    const std::uint64_t blocks_per_row = c.rowBytes / kBlockBytes;
    const std::uint64_t row_seq =
        (blockNumber(addr) / c.channels) / blocks_per_row;
    return static_cast<std::uint32_t>(row_seq % c.banksPerChannel);
}

inline std::uint64_t
referenceRowOf(const DramConfig &c, Addr addr)
{
    const std::uint64_t blocks_per_row = c.rowBytes / kBlockBytes;
    return (blockNumber(addr) / c.channels) / blocks_per_row
        / c.banksPerChannel;
}

/** Service @p requests (sorted by arrival) from a reset state. */
inline DramStats
referenceSimulate(const DramConfig &c,
                  const std::vector<DramRequest> &requests)
{
    struct BankState
    {
        std::uint64_t row = ~0ull;
        std::uint64_t ready = 0;
        bool open = false;
    };

    const std::uint32_t nch = c.channels;
    const std::uint32_t nbank = c.banksPerChannel;
    std::vector<BankState> banks(static_cast<std::size_t>(nch) * nbank);
    std::vector<std::uint64_t> bus_free(nch, 0);
    std::vector<bool> last_was_write(nch, false);
    std::vector<std::uint64_t> refresh_done(nch, 0);

    DramStats stats;
    for (const DramRequest &req : requests) {
        const std::uint32_t ch = referenceChannelOf(c, req.addr);
        const std::uint32_t bk = referenceBankOf(c, req.addr);
        const std::uint64_t row = referenceRowOf(c, req.addr);
        BankState &bank = banks[static_cast<std::size_t>(ch) * nbank
                                + bk];

        std::uint64_t start = std::max(req.arrival, bank.ready);
        if (c.tRefi != 0) {
            const std::uint64_t window = start / c.tRefi;
            if (window > refresh_done[ch]) {
                refresh_done[ch] = window;
                ++stats.refreshes;
                start += c.tRfc;
                for (std::uint32_t b = 0; b < nbank; ++b)
                    banks[static_cast<std::size_t>(ch) * nbank + b]
                        .open = false;
            }
        }

        std::uint64_t cas_ready = start;
        if (bank.open && bank.row == row) {
            ++stats.rowHits;
        } else {
            ++stats.rowMisses;
            if (bank.open)
                ++stats.rowConflicts;
            cas_ready += (bank.open ? c.tRp : 0) + c.tRcd;
            bank.open = true;
            bank.row = row;
        }

        const std::uint64_t data_ready = cas_ready + c.tCas;
        std::uint64_t bus_earliest = bus_free[ch];
        if (!req.isWrite && last_was_write[ch]) {
            bus_earliest += c.tWtr;
            ++stats.turnarounds;
        }
        last_was_write[ch] = req.isWrite;
        const std::uint64_t bus_start =
            std::max(data_ready, bus_earliest);
        const std::uint64_t completion = bus_start + c.burstCycles();

        bus_free[ch] = completion;
        bank.ready = cas_ready + c.burstCycles();
        stats.busBusyCycles += c.burstCycles();

        ++stats.requests;
        if (req.isWrite)
            ++stats.writes;
        else
            ++stats.reads;
        stats.finishCycle = std::max(stats.finishCycle, completion);
        stats.totalLatency += completion - req.arrival;
    }
    return stats;
}

} // namespace gllc

#endif // GLLC_TESTS_REFERENCE_DRAM_HH
