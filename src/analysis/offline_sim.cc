#include "analysis/offline_sim.hh"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "cache/policy/belady.hh"
#include "common/audit.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

namespace
{

/**
 * Accesses per inner-loop chunk.  Fault-site and collection
 * bookkeeping happen at chunk boundaries; the inner loop is pure
 * access servicing.
 */
constexpr std::size_t kReplayChunk = 4096;

/**
 * The replay loop.  All per-replay mode flags are template
 * parameters, so each instantiation's inner loop carries no
 * disabled-feature branches and calls the Characterizer hooks
 * directly.
 *
 * @tparam kUcd      uncached-displayable-color bypass configured
 * @tparam kChecked  BankedLlc::checked(): audit or decision log live
 * @tparam kOracle   policy consumes Belady next-use indices
 * @tparam kDram     collect the DRAM-bound access trace
 */
template <bool kUcd, bool kChecked, bool kOracle, bool kDram>
void
replay(BankedLlc &llc, const FrameTrace &trace,
       const std::vector<std::uint64_t> &oracle,
       Characterizer &characterizer, std::size_t stop_at,
       RunResult &result)
{
    characterizer.bindFrames(llc.geometry().totalBlocks());
    const MemAccess *accesses = trace.accesses.data();
    const std::size_t limit =
        std::min(stop_at, trace.accesses.size());
    for (std::size_t begin = 0; begin < limit;
         begin += kReplayChunk) {
        const std::size_t end =
            std::min(begin + kReplayChunk, limit);
        for (std::size_t i = begin; i < end; ++i) {
            const MemAccess &a = accesses[i];
            const std::uint64_t next_use =
                kOracle ? oracle[i] : kNever;
            const LlcAccessResult r = llc.accessAs<kUcd, kChecked>(
                a, i, next_use, characterizer);
            if (kDram) {
                if (!r.hit) {
                    // Fill read or bypassed access goes to DRAM.
                    // Write allocations without fetch (store misses)
                    // still appear as writes.
                    result.dramTrace.emplace_back(a.addr, a.stream,
                                                  a.isWrite,
                                                  a.cycle);
                }
                if (r.writeback) {
                    result.dramTrace.emplace_back(r.writebackAddr,
                                                  StreamType::Other,
                                                  true, a.cycle);
                }
            }
        }
    }
    if (stop_at < trace.accesses.size())
        throwInjectedFault(FaultSite::SimAccess);
}

/**
 * Call @p f with one std::integral_constant<bool, ...> argument per
 * runtime flag, turning the flags into template arguments.
 */
template <typename F>
void
withFlags(F &&f)
{
    f();
}

template <typename F, typename... Flags>
void
withFlags(F &&f, bool flag, Flags... rest)
{
    const auto bind = [&](auto constant) {
        withFlags([&](auto... tail) { f(constant, tail...); },
                  rest...);
    };
    if (flag)
        bind(std::true_type{});
    else
        bind(std::false_type{});
}

} // namespace

RunResult
runTrace(const FrameTrace &trace, const PolicySpec &spec,
         const LlcConfig &llc_config, const RunOptions &options)
{
    // Name the policy in any audit report from this replay.
    std::optional<AuditScope> audit_scope;
    if (auditActive()) {
        audit_scope.emplace();
        auditContext().policy = spec.name;
    }
    LlcConfig config = llc_config;
    if (spec.uncachedDisplay)
        config.uncachedDisplay = true;

    BankedLlc llc(config, spec.factory);

    Characterizer characterizer;

    std::vector<std::uint64_t> oracle;
    if (spec.needsOracle)
        oracle = buildNextUseOracle(trace.accesses);

    // sim.access fault site: one keyed draw per replay decides
    // whether this replay dies, the payload picks where in the
    // access stream it does — exercising the sweep's recovery from
    // partially-built simulator state at any depth.  Sampled once,
    // before the loop: the replay stops at the precomputed injection
    // index, having serviced every access before it.
    std::size_t inject_at = trace.accesses.size();
    if (faultsActive()
        && faultFires(FaultSite::SimAccess,
                      fnv1a64(spec.name,
                              mix64(trace.accesses.size())))) {
        if (trace.accesses.empty())
            throwInjectedFault(FaultSite::SimAccess);
        inject_at = static_cast<std::size_t>(
            faultPayload(FaultSite::SimAccess)
            % trace.accesses.size());
    }

    RunResult result;
    if (options.collectDramTrace) {
        // At most two entries per access (a fill and a writeback).
        // The paper's 52 frames need 0.67-1.22 (scale 4 at 4-16 MB,
        // scale 8 at 4-8 MB), so this is one allocation, not a
        // doubling chain.
        const std::size_t n = trace.accesses.size();
        result.dramTrace.reserve(n + n / 4);
    }
    withFlags(
        [&](auto ucd, auto checked, auto use_oracle, auto dram) {
            replay<decltype(ucd)::value, decltype(checked)::value,
                   decltype(use_oracle)::value, decltype(dram)::value>(
                llc, trace, oracle, characterizer, inject_at, result);
        },
        config.uncachedDisplay, llc.checked(), spec.needsOracle,
        options.collectDramTrace);

    result.stats = llc.stats();
    result.characterization = characterizer.result();
    result.fills = llc.mergedFillHistogram();

    if (metricsActive()) {
        // Flush once per replay: aggregate LLC view plus a per-policy
        // view.  Both prefixes see identical deltas, and counters sum
        // commutatively, so the snapshot is deterministic regardless
        // of replay order or thread count.
        llc.flushMetrics("llc.");
        llc.flushMetrics("policy." + spec.name + ".");
        MetricsRegistry::instance().addCounter("sim.replays");
    }
    return result;
}

LlcConfig
scaledLlcConfig(std::uint64_t full_capacity_bytes,
                std::uint32_t pixel_scale)
{
    LlcConfig config;
    config.capacityBytes =
        std::max<std::uint64_t>(full_capacity_bytes / pixel_scale,
                                64 * 1024);
    config.ways = 16;
    config.banks = 4;
    return config;
}

} // namespace gllc
