/**
 * @file
 * DDR3 channel/bank timing model.
 *
 * Section 4: "We model a dual channel DDR3-1600 memory system.  The
 * DRAM part is 8-way banked with a burst length of eight and
 * 15-15-15 (tCAS-tRCD-tRP) latency parameters."  The sensitivity
 * study (Figure 17) additionally uses DDR3-1867 10-10-10.
 *
 * The model services LLC misses and writebacks in arrival order per
 * channel, tracking per-bank row buffers and the shared data bus, so
 * both the latency seen by individual requests and the total busy
 * time (the bandwidth bound on a memory-bound frame) fall out.
 */

#ifndef GLLC_DRAM_DRAM_MODEL_HH
#define GLLC_DRAM_DRAM_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace gllc
{

/** Timing/geometry parameters of the DRAM system. */
struct DramConfig
{
    std::string name = "DDR3-1600 15-15-15";

    std::uint32_t channels = 2;
    std::uint32_t banksPerChannel = 8;

    /** Memory clock in MHz (data rate is 2x). */
    double clockMhz = 800.0;

    /** Transfers per burst; 8 x 8 B = one 64 B block. */
    std::uint32_t burstLength = 8;

    std::uint32_t tCas = 15;
    std::uint32_t tRcd = 15;
    std::uint32_t tRp = 15;

    /** Row-buffer (page) size per bank. */
    std::uint32_t rowBytes = 8192;

    /**
     * Write-to-read turnaround penalty on a channel's data bus
     * (tWTR-like): charged when a read follows a write.
     */
    std::uint32_t tWtr = 8;

    /** Refresh interval (0 disables refresh modelling). */
    std::uint32_t tRefi = 6240;  ///< 7.8 us at 800 MHz

    /** All-bank refresh occupancy. */
    std::uint32_t tRfc = 208;    ///< 260 ns at 800 MHz

    /** Dual-channel DDR3-1600 15-15-15 (the baseline). */
    static DramConfig ddr3_1600();

    /** Dual-channel DDR3-1867 10-10-10 (Figure 17 upper panel). */
    static DramConfig ddr3_1867();

    /**
     * GDDR5-class memory (extension): four 64-bit channels at a
     * 1250 MHz command clock — the discrete-GPU memory system the
     * paper's Section 4 contrasts with the LLC's efficiency.
     */
    static DramConfig gddr5();

    /** Bus cycles one burst occupies the data bus. */
    std::uint32_t burstCycles() const { return burstLength / 2; }

    /** Peak bandwidth in bytes per memory-clock cycle (all channels). */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(channels) * 16.0;  // 8 B x 2/cycle
    }
};

/** One request presented to the DRAM system. */
struct DramRequest
{
    Addr addr = 0;
    /** Arrival time in DRAM clock cycles. */
    std::uint64_t arrival = 0;
    bool isWrite = false;
};

/** Aggregate results of servicing a request sequence. */
struct DramStats
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    /**
     * Row misses that found a different row open (paid precharge +
     * activate); the remaining misses only paid the activate.
     */
    std::uint64_t rowConflicts = 0;

    /** Refresh windows the schedule crossed. */
    std::uint64_t refreshes = 0;

    /** Write-to-read bus turnarounds charged. */
    std::uint64_t turnarounds = 0;

    /** Cycle the last request completed. */
    std::uint64_t finishCycle = 0;

    /** Sum over requests of (completion - arrival). */
    std::uint64_t totalLatency = 0;

    /** Data-bus busy cycles summed over channels. */
    std::uint64_t busBusyCycles = 0;

    double
    averageLatency() const
    {
        return requests == 0
            ? 0.0
            : static_cast<double>(totalLatency)
                / static_cast<double>(requests);
    }
};

/** The DDR3 timing model. */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /**
     * Service @p requests, which must be sorted by arrival time.
     * The model is reset before servicing.
     */
    DramStats simulate(const std::vector<DramRequest> &requests);

    const DramConfig &config() const { return config_; }

    /// @name Address mapping (exposed for tests)
    /// Block-interleaved channels, then rowBytes of consecutive
    /// per-channel blocks per row, rows rotating across banks.  Every
    /// factor is a power of two, so the mapping is shifts and masks.
    /// @{
    std::uint32_t channelOf(Addr addr) const;
    std::uint32_t bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;
    /// @}

  private:
    /**
     * Flush aggregate and per-channel counters plus the per-channel
     * bank-request distribution into the metrics registry under
     * "dram."; called at the end of simulate() when metricsActive().
     */
    void flushMetrics(
        const DramStats &stats,
        const std::vector<DramStats> &channel_stats,
        const std::vector<std::uint64_t> &bank_requests) const;

    DramConfig config_;

    /// log2 of channels, of blocks per row and of banks per channel.
    unsigned channelShift_ = 0;
    unsigned rowShift_ = 0;
    unsigned bankShift_ = 0;
};

} // namespace gllc

#endif // GLLC_DRAM_DRAM_MODEL_HH
