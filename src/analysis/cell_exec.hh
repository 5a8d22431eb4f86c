/**
 * @file
 * The body of one sweep cell and the fault boundary around it,
 * shared by the in-process engine (analysis/sweep) and gllcd's
 * worker subprocesses (service/worker), so a cell means the same
 * thing wherever it runs:
 *
 *  - guarded(): the exception boundary of one cell attempt;
 *  - withRetries(): the one retry rule (attempt; on failure report,
 *    back off exponentially and retry until the budget is spent),
 *    for in-process cell bodies and gllcd's worker round trips alike;
 *  - injectCellFaults(): the cell.delay / cell.throw sites, drawn
 *    with faultKey() from the cell's logical coordinates, so
 *    GLLC_FAULT fails the same cells at any thread count and in
 *    any process;
 *  - runCell(): the replay itself (audit-scoped runTrace) plus, for
 *    full-GPU cells, the DDR3 and frame-time models.
 */

#ifndef GLLC_ANALYSIS_CELL_EXEC_HH
#define GLLC_ANALYSIS_CELL_EXEC_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "analysis/cell_key.hh"
#include "analysis/offline_sim.hh"
#include "gpu/gpu_config.hh"
#include "gpu/timing_model.hh"

namespace gllc
{

/** Stall injected by the cell.delay fault site (watchdog fodder). */
constexpr unsigned kInjectedDelayMs = 100;

/**
 * Results of one (frame, policy) cell.  The DRAM trace of a GPU cell
 * is consumed by the timing model on the executing thread and never
 * retained, so result.dramTrace is always empty here.
 */
struct SweepCell
{
    /** Logical coordinates: (app, frame, policy). */
    CellKey key;

    RunResult result;

    /** Frame time and fps; set only by full-GPU sweeps. */
    FrameTiming timing;

    /** Attempts the cell took (1 = first try; >1 = retries won). */
    unsigned attempts = 1;
};

/**
 * Run @p fn under the exception boundary of one cell attempt:
 * returns "" on success, else a description of what was thrown.
 * Nothing may propagate into a ThreadPool (or out of a worker's
 * request loop), where it would take every completed cell down
 * with it.
 */
template <typename F>
std::string
guarded(F &&fn)
{
    try {
        fn();
        return {};
    } catch (const std::exception &e) {
        return e.what()[0] != '\0' ? e.what() : "unnamed exception";
    } catch (...) {
        return "non-standard exception";
    }
}

/** How a retried operation ended. */
struct RetryOutcome
{
    /** "" on success, else the last attempt's error. */
    std::string error;

    /** Attempts made (1 = first try). */
    unsigned attempts = 0;
};

/**
 * The one retry rule: call @p attempt(n) for n = 1, 2, ... until it
 * returns "" or @p max_attempts attempts have failed.  After a
 * failed attempt n that is not the last, @p on_retry(n, error) runs
 * and the caller sleeps backoff_ms << (n - 1) ms.
 */
RetryOutcome
withRetries(unsigned max_attempts, unsigned backoff_ms,
            const std::function<std::string(unsigned)> &attempt,
            const std::function<void(unsigned, const std::string &)>
                &on_retry);

/**
 * Fault-injection key of attempt @p attempt of cell @p key.  It
 * hashes logical coordinates (never an execution index), so the set
 * of injected failures is identical at any thread count or worker
 * sharding, and a later attempt draws independently, which makes
 * retry-then-succeed paths reproducible.
 */
std::uint64_t faultKey(const CellKey &key, unsigned attempt);

/** Fire the cell.delay and cell.throw sites for one attempt. */
void injectCellFaults(const CellKey &key, unsigned attempt);

/**
 * Replay @p trace under @p policy into cell.result, naming the cell
 * in any audit report.  With @p gpu non-null the replay collects its
 * DRAM trace, runs timeFrame() on it into cell.timing and drops it:
 * bit-identical to simulateFrame() when @p llc is the GPU's scaled
 * geometry.
 */
void runCell(SweepCell &cell, const FrameTrace &trace,
             const PolicySpec &policy, const LlcConfig &llc,
             const GpuConfig *gpu);

} // namespace gllc

#endif // GLLC_ANALYSIS_CELL_EXEC_HH
