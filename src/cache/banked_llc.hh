/**
 * @file
 * Banked non-inclusive/non-exclusive LLC model.
 *
 * Models the paper's shared GPU LLC (Section 4): 64 B blocks, block-
 * interleaved banks, write-allocate, fill-on-miss, per-stream
 * statistics.  Replacement is delegated to one ReplacementPolicy
 * instance per bank.  An optional bypass predicate implements the
 * "uncached displayable color" (UCD) configurations: bypassed
 * accesses still probe the tag store (for coherence with blocks a
 * different stream may have cached) but never allocate.
 *
 * Hot path (DESIGN.md section 9).  The tag store is structure-of-
 * arrays: one contiguous Addr array per bank (kInvalidTag marks an
 * empty frame) plus a parallel dirty byte array, so the tag probe is
 * a tight scan over 8-byte lanes with no flag loads.  There is one
 * access body, accessAs<kUcd, kChecked, Observer>(), specialized at
 * compile time over the UCD switch, the checked facilities and the
 * concrete observer type.  kChecked is not a setting: it is
 * checked() (decision logging or the invariant audit is live), and
 * only that instantiation sets the audit context, audits the set and
 * records decisions.  The unchecked instantiation pays no per-access
 * branch for any of them.
 */

#ifndef GLLC_CACHE_BANKED_LLC_HH
#define GLLC_CACHE_BANKED_LLC_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/geometry.hh"
#include "cache/replacement.hh"
#include "common/audit.hh"
#include "common/decision_log.hh"
#include "common/logging.hh"

namespace gllc
{

/** Per-stream and aggregate LLC statistics. */
struct LlcStats
{
    struct PerStream
    {
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;    ///< misses that allocated
        std::uint64_t bypasses = 0;  ///< misses that did not allocate
    };

    std::array<PerStream, kNumStreams> stream{};
    std::uint64_t writebacks = 0;  ///< dirty evictions toward DRAM
    std::uint64_t evictions = 0;

    const PerStream &
    of(StreamType s) const
    {
        return stream[static_cast<std::size_t>(s)];
    }

    std::uint64_t totalAccesses() const;
    std::uint64_t totalHits() const;

    /** All accesses that went to DRAM (misses + bypasses). */
    std::uint64_t totalMisses() const;

    /** Hit rate of one stream (0 when it had no accesses). */
    double hitRate(StreamType s) const;

    /** Accumulate another frame's statistics. */
    void merge(const LlcStats &other);
};

/**
 * The observer shape, and the observer that observes nothing: the
 * empty inline bodies vanish at compile time.  The access body calls
 * an observer's hooks directly (no virtual dispatch) and passes each
 * event's global frame index (bank-major, then set, then way), so
 * stateful observers keep per-resident-block metadata in a flat
 * frame-indexed array.  onEvictAt always precedes the onMissAt that
 * refills the same frame.
 */
struct NullLlcObserver
{
    void onHitAt(const MemAccess &, std::size_t) {}
    void onMissAt(const MemAccess &, std::size_t) {}
    void onBypass(const MemAccess &) {}
    void onEvictAt(Addr, std::size_t) {}
};

/** Result of one LLC access, for the timing model. */
struct LlcAccessResult
{
    bool hit = false;
    bool bypassed = false;

    /** A dirty block was written back to DRAM. */
    bool writeback = false;

    /** Block-aligned address of the written-back block. */
    Addr writebackAddr = 0;
};

/** Configuration for a BankedLlc instance. */
struct LlcConfig
{
    std::uint64_t capacityBytes = 8ull << 20;
    std::uint32_t ways = 16;
    std::uint32_t banks = 4;

    /**
     * Display-stream accesses never allocate (the paper's UCD
     * configurations).  Expressed as a flag, not a predicate, so the
     * hot path can specialize on it at compile time.
     */
    bool uncachedDisplay = false;
};

/** The banked LLC. */
class BankedLlc
{
  public:
    BankedLlc(const LlcConfig &config, const PolicyFactory &factory);

    /**
     * Service one access, observing nothing.
     * @param access the load/store
     * @param index global trace position (Belady bookkeeping)
     * @param next_use trace index of the next access to this block,
     *        or kNever; only meaningful under oracle policies
     */
    LlcAccessResult
    access(const MemAccess &access, std::uint64_t index = 0,
           std::uint64_t next_use = kNever)
    {
        NullLlcObserver none;
        return this->access(access, index, next_use, none);
    }

    /**
     * Service one access, reporting its events to @p observer (an
     * object with NullLlcObserver's hooks).  Resolves the UCD and
     * checked flags at run time, per access; replay loops resolve
     * them once and call accessAs<>() directly.
     */
    template <typename Observer>
    LlcAccessResult
    access(const MemAccess &access, std::uint64_t index,
           std::uint64_t next_use, Observer &observer)
    {
        if (checked()) {
            return config_.uncachedDisplay
                ? accessAs<true, true>(access, index, next_use,
                                       observer)
                : accessAs<false, true>(access, index, next_use,
                                        observer);
        }
        return config_.uncachedDisplay
            ? accessAs<true, false>(access, index, next_use, observer)
            : accessAs<false, false>(access, index, next_use,
                                     observer);
    }

    /**
     * True when accesses must run the checked instantiation: the
     * decision log (sampled at construction) or the invariant audit
     * is live.  Sample it once per replay.
     */
    bool checked() const { return logDecisions_ || auditActive(); }

    /**
     * The access body.  @p kUcd bakes in the uncached-displayable-
     * color test and must match the configuration; @p kChecked must
     * equal checked() and adds the audit context, the per-set audit
     * and decision logging; @p Observer's hooks are called directly.
     */
    template <bool kUcd, bool kChecked, typename Observer>
    LlcAccessResult
    accessAs(const MemAccess &access, std::uint64_t index,
             std::uint64_t next_use, Observer &observer)
    {
        LlcAccessResult result;
        const CacheGeometry::Placement where =
            geom_.placementOf(access.addr);
        Bank &bank = banks_[where.bank];
        const std::uint32_t ways = geom_.ways();
        const std::size_t base =
            static_cast<std::size_t>(where.set) * ways;
        Addr *tags = bank.tags.data() + base;

        // Global frame index of way 0 of this set, for the observer's
        // frame-indexed metadata (bank-major, then set, then way).
        const std::size_t frame_base =
            static_cast<std::size_t>(where.bank)
                * geom_.setsPerBank() * ways
            + base;

        auto &sstats =
            bank.stats.stream[static_cast<std::size_t>(access.stream)];
        ++sstats.accesses;

        std::uint32_t way = 0;
        while (way < ways && tags[way] != where.tag)
            ++way;
        if constexpr (kChecked)
            beginChecked(access, index, where, way);

        const AccessInfo info{&access, index, next_use};
        if (way != ways) {
            // Hit (bypassed streams can still hit blocks another
            // stream allocated; the data is resident either way).
            ++sstats.hits;
            result.hit = true;
            bank.dirty[base + way] |=
                static_cast<std::uint8_t>(access.isWrite);
            bank.policy->onHit(where.set, way, info);
            observer.onHitAt(access, frame_base + way);
            if constexpr (kChecked)
                endChecked(access, index, where, way,
                           DecisionOutcome::Hit);
            return result;
        }

        if ((kUcd && access.stream == StreamType::Display)
            || (bank.policyMayBypass
                && bank.policy->shouldBypass(where.set, info))) {
            ++sstats.bypasses;
            result.bypassed = true;
            observer.onBypass(access);
            if constexpr (kChecked)
                endChecked(access, index, where, ways,
                           DecisionOutcome::Bypass);
            return result;
        }

        // Miss: always fill (Section 2: "A miss in the LLC always
        // fills the requested block into the LLC").
        ++sstats.misses;

        std::uint32_t fill_way;
        if (bank.liveWays[where.set] < ways) {
            // Invalid frame available: fill the lowest one.
            fill_way = 0;
            while (tags[fill_way] != kInvalidTag)
                ++fill_way;
            if constexpr (kChecked)
                GLLC_ASSERT(fill_way < ways);
            ++bank.liveWays[where.set];
        } else {
            fill_way = bank.policy->selectVictim(where.set);
            GLLC_ASSERT(fill_way < ways);
            GLLC_ASSERT(tags[fill_way] != kInvalidTag);
            ++bank.stats.evictions;
            if (bank.dirty[base + fill_way] != 0) {
                ++bank.stats.writebacks;
                result.writeback = true;
                result.writebackAddr = tags[fill_way] << kBlockShift;
            }
            bank.policy->onEvict(where.set, fill_way);
            observer.onEvictAt(tags[fill_way] << kBlockShift,
                               frame_base + fill_way);
        }

        observer.onMissAt(access, frame_base + fill_way);

        tags[fill_way] = where.tag;
        bank.dirty[base + fill_way] =
            static_cast<std::uint8_t>(access.isWrite);
        bank.policy->onFill(where.set, fill_way, info);
        if constexpr (kChecked)
            endChecked(access, index, where, fill_way,
                       DecisionOutcome::Fill);
        return result;
    }

    /** Probe only: true when the block is resident. No side effects. */
    bool isResident(Addr addr) const;

    /** Aggregate statistics, merged over the per-bank counters. */
    LlcStats stats() const;

    const CacheGeometry &geometry() const { return geom_; }

    /** Per-bank statistics (the access path's single accumulator). */
    const LlcStats &bankStats(std::uint32_t bank) const;

    /**
     * Publish this cache's counters into the MetricsRegistry under
     * @p prefix: aggregate and per-bank per-stream hit/miss/bypass
     * counters, per-bank insertion-RRPV histograms, and whatever each
     * bank's policy reports through ReplacementPolicy::flushMetrics.
     * Called once per replay; no-op when metrics are inactive.
     */
    void flushMetrics(const std::string &prefix) const;

    /** Merged insertion-RRPV histogram across banks, if available. */
    FillHistogram mergedFillHistogram() const;

    /** Per-bank policy access (tests and characterization). */
    ReplacementPolicy &bankPolicy(std::uint32_t bank);

    /**
     * Audit one set of one bank: no duplicate tags, every valid tag
     * maps back to this (bank, set) under the geometry, the per-set
     * occupancy count matches the tag store, and the bank's policy
     * invariants hold.  No-op unless auditActive().
     */
    void auditSet(std::uint32_t bank, std::uint32_t set) const;

    /** Audit every set of every bank (tests, end-of-replay checks). */
    void auditAll() const;

    /**
     * Test-only: overwrite one tag-store entry, bypassing the access
     * path, so the audit layer's occupancy checks can be exercised.
     */
    void debugCorruptEntry(std::uint32_t bank, std::uint32_t set,
                           std::uint32_t way, Addr tag, bool valid);

  private:
    /** Tag value of an empty frame (no real block number is ~0). */
    static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);

    /**
     * One bank's state, structure-of-arrays: the tag probe touches
     * only the contiguous tags array; dirty bytes are touched once
     * per hit-on-write / eviction; liveWays lets the miss path skip
     * the invalid-frame scan entirely once a set is full.
     */
    struct Bank
    {
        std::vector<Addr> tags;            ///< kInvalidTag = empty
        std::vector<std::uint8_t> dirty;   ///< one byte per frame
        std::vector<std::uint16_t> liveWays;  ///< valid frames per set
        std::unique_ptr<ReplacementPolicy> policy;

        /**
         * ReplacementPolicy::mayBypass(), sampled at construction so
         * the miss path skips the shouldBypass() virtual call for
         * the (common) policies that never bypass.
         */
        bool policyMayBypass = false;

        /**
         * Per-bank counters.  The access path increments these and
         * nothing else; stats() merges them on demand, so enabling
         * metrics adds no per-access work.
         */
        LlcStats stats;
    };

    /**
     * Checked-instantiation prologue, after the tag probe found
     * @p way (ways() on a miss): names the access in the audit
     * context before any policy hook can audit.
     */
    void beginChecked(const MemAccess &access, std::uint64_t index,
                      const CacheGeometry::Placement &where,
                      std::uint32_t way) const;

    /**
     * Checked-instantiation epilogue: records the decision (way is
     * ways() for a bypass) when logging and audits the touched set.
     */
    void endChecked(const MemAccess &access, std::uint64_t index,
                    const CacheGeometry::Placement &where,
                    std::uint32_t way, DecisionOutcome outcome) const;

    /** Find the way holding addr in the set, or ways() if absent. */
    std::uint32_t findWay(const Bank &bank, std::uint32_t set,
                          Addr tag) const;

    CacheGeometry geom_;
    LlcConfig config_;
    std::vector<Bank> banks_;

    /**
     * Decision-log switch, sampled once at construction so the
     * access path pays one branch, not an atomic load, per access.
     */
    bool logDecisions_ = false;
};

} // namespace gllc

#endif // GLLC_CACHE_BANKED_LLC_HH
