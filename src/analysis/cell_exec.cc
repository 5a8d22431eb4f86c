#include "analysis/cell_exec.hh"

#include <chrono>
#include <thread>

#include "common/audit.hh"
#include "common/fault.hh"
#include "common/hash.hh"

namespace gllc
{

namespace
{

/** Exponential backoff before re-attempt @p attempt (1-based). */
void
backoffSleep(unsigned first_delay_ms, unsigned attempt)
{
    if (first_delay_ms == 0)
        return;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<std::uint64_t>(first_delay_ms)
        << (attempt - 1)));
}

} // namespace

RetryOutcome
withRetries(unsigned max_attempts, unsigned backoff_ms,
            const std::function<std::string(unsigned)> &attempt,
            const std::function<void(unsigned, const std::string &)>
                &on_retry)
{
    RetryOutcome out;
    for (unsigned n = 1; n <= max_attempts; ++n) {
        out.attempts = n;
        out.error = attempt(n);
        if (out.error.empty() || n == max_attempts)
            break;
        on_retry(n, out.error);
        backoffSleep(backoff_ms, n);
    }
    return out;
}

std::uint64_t
faultKey(const CellKey &key, unsigned attempt)
{
    return fnv1a64(key.policy, fnv1a64(key.app))
        ^ mix64((static_cast<std::uint64_t>(key.frameIndex) << 8)
                | attempt);
}

void
injectCellFaults(const CellKey &key, unsigned attempt)
{
    if (!faultsActive())
        return;
    const std::uint64_t fault_key = faultKey(key, attempt);
    if (faultFires(FaultSite::CellDelay, fault_key))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kInjectedDelayMs));
    if (faultFires(FaultSite::CellThrow, fault_key))
        throwInjectedFault(FaultSite::CellThrow);
}

void
runCell(SweepCell &cell, const FrameTrace &trace,
        const PolicySpec &policy, const LlcConfig &llc,
        const GpuConfig *gpu)
{
    RunOptions options;
    options.collectDramTrace = gpu != nullptr;
    if (auditActive()) {
        // Name the cell in any audit report, so a violation in a
        // concurrent sweep aborts with its exact coordinates.
        AuditScope scope;
        auditContext().app = cell.key.app;
        auditContext().frame = cell.key.frameIndex;
        cell.result = runTrace(trace, policy, llc, options);
    } else {
        cell.result = runTrace(trace, policy, llc, options);
    }
    if (gpu == nullptr)
        return;
    cell.timing = timeFrame(trace.work, cell.result.stats,
                            cell.result.dramTrace, *gpu);
    cell.result.dramTrace.clear();
    cell.result.dramTrace.shrink_to_fit();
}

} // namespace gllc
