/**
 * @file
 * Test oracle: a naive banked LLC that shares no code with BankedLlc.
 *
 * One vector of ways per (bank, set); each way holds its block
 * number, a valid bit and a dirty bit.  Addresses are split by
 * division and modulo (bank = block % banks, set = (block / banks) %
 * setsPerBank), a miss fills the lowest invalid way, and the UCD
 * display bypass and the policy's own shouldBypass() are consulted
 * on every miss, with no mayBypass() shortcut.  LRU, NRU and SRRIP
 * are transcribed here from their definitions; every other policy is
 * driven as a fresh instance of the real ReplacementPolicy, so the
 * oracle checks the cache around the policy, not the policy.  Belady
 * gets this file's own next-use computation.
 *
 * The reference characterizer keys block metadata by block number in
 * a std::map and transcribes the RT-bit and epoch rules of the
 * paper's Figures 6, 7 and 9.  Both are slow and obviously right,
 * which is what an oracle should be.
 */

#ifndef GLLC_TESTS_REFERENCE_LLC_HH
#define GLLC_TESTS_REFERENCE_LLC_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "analysis/characterizer.hh"
#include "analysis/policy_table.hh"
#include "cache/banked_llc.hh"
#include "trace/frame_trace.hh"

namespace gllc
{

/** The policy stream of a trace stream (Section 3's four classes). */
inline PolicyStream
referencePolicyStream(StreamType s)
{
    if (s == StreamType::Z)
        return PolicyStream::Z;
    if (s == StreamType::Texture)
        return PolicyStream::Texture;
    if (s == StreamType::RenderTarget || s == StreamType::Display)
        return PolicyStream::RenderTarget;
    return PolicyStream::Rest;
}

/**
 * Next use of each access's block, or kNever: every block's access
 * positions in trace order, each pointing at the one after it.
 */
inline std::vector<std::uint64_t>
referenceNextUse(const std::vector<MemAccess> &trace)
{
    std::map<Addr, std::vector<std::uint64_t>> positions;
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        positions[trace[i].addr / kBlockBytes].push_back(i);
    std::vector<std::uint64_t> next(trace.size(), kNever);
    for (const auto &[block, at] : positions)
        for (std::size_t k = 0; k + 1 < at.size(); ++k)
            next[at[k]] = at[k + 1];
    return next;
}

/** Figures 6, 7 and 9 over a block-number-keyed map. */
class ReferenceCharacterizer
{
  public:
    /** A non-bypassed miss installed @p block for @p stream. */
    void
    fill(Addr block, StreamType stream)
    {
        Block &b = blocks_[block];
        b = Block{};
        switch (referencePolicyStream(stream)) {
          case PolicyStream::Texture:
            startLifetime(b, Lifetime::Texture);
            break;
          case PolicyStream::Z:
            startLifetime(b, Lifetime::Z);
            break;
          case PolicyStream::RenderTarget:
            // Figure 6: every render-target fill sets the RT bit.
            b.rtBit = true;
            ++result_.rtProductions;
            break;
          default:
            break;
        }
    }

    /** @p stream hit the resident @p block. */
    void
    hit(Addr block, StreamType stream)
    {
        Block &b = blocks_.at(block);
        const PolicyStream ps = referencePolicyStream(stream);
        if (ps == PolicyStream::Texture) {
            if (b.rtBit) {
                // Figure 6: the sampler consumed a render target.
                // The consumption opens a texture lifetime in E0.
                ++result_.interTexHits;
                ++result_.rtConsumptions;
                b.rtBit = false;
                startLifetime(b, Lifetime::Texture);
                return;
            }
            if (b.lifetime != Lifetime::Texture)
                startLifetime(b, Lifetime::Texture);
            // Figure 7: the hit closes epoch E_k and opens E_k+1.
            const unsigned k = b.epoch;
            ++result_.texEpochHits[std::min(k, kLastEpoch)];
            ++result_.intraTexHits;
            if (k + 1 <= kLastEpoch)
                ++result_.texReach[k + 1];
            b.epoch = std::min(k + 1, 255u);
        } else if (ps == PolicyStream::RenderTarget) {
            // A blend hit: a fresh production unless the RT bit is
            // still set; the block stops being a texture/Z block.
            if (!b.rtBit) {
                b.rtBit = true;
                ++result_.rtProductions;
            }
            b.lifetime = Lifetime::None;
            b.epoch = 0;
        } else if (ps == PolicyStream::Z) {
            // Figure 9: Z epochs, counted like texture epochs.
            if (b.lifetime != Lifetime::Z)
                startLifetime(b, Lifetime::Z);
            const unsigned k = b.epoch;
            if (k + 1 <= kLastEpoch)
                ++result_.zReach[k + 1];
            b.epoch = std::min(k + 1, 255u);
        }
    }

    /** @p block left the cache; its lifetime ends. */
    void evict(Addr block) { blocks_.erase(block); }

    const Characterization &result() const { return result_; }

  private:
    static constexpr unsigned kLastEpoch =
        Characterization::kEpochs - 1;

    enum class Lifetime { None, Texture, Z };

    struct Block
    {
        Lifetime lifetime = Lifetime::None;
        bool rtBit = false;
        unsigned epoch = 0;
    };

    void
    startLifetime(Block &b, Lifetime kind)
    {
        b.lifetime = kind;
        b.epoch = 0;
        if (kind == Lifetime::Texture)
            ++result_.texReach[0];
        else
            ++result_.zReach[0];
    }

    std::map<Addr, Block> blocks_;
    Characterization result_;
};

/** The naive LLC. */
class ReferenceLlc
{
  public:
    /**
     * @param config capacity, ways and banks; uncachedDisplay (or
     *        the spec's +UCD) makes the display stream bypass
     * @param spec the policy: LRU, NRU and SRRIP (and their +UCD
     *        forms) use this file's transcriptions, every other
     *        policy a fresh real instance per bank
     */
    ReferenceLlc(const LlcConfig &config, const PolicySpec &spec)
        : ways_(config.ways), banks_(config.banks),
          sets_(static_cast<std::uint32_t>(
              config.capacityBytes / kBlockBytes / config.ways
              / config.banks)),
          ucd_(config.uncachedDisplay || spec.uncachedDisplay)
    {
        if (spec.baseName == "LRU")
            kind_ = Kind::Lru;
        else if (spec.baseName == "NRU")
            kind_ = Kind::Nru;
        else if (spec.baseName == "SRRIP")
            kind_ = Kind::Srrip;
        table_.resize(static_cast<std::size_t>(banks_) * sets_);
        for (Set &s : table_) {
            s.ways.resize(ways_);
            s.rrpv.assign(ways_, kMaxRrpv);
            s.referenced.assign(ways_, false);
        }
        if (kind_ == Kind::Real) {
            for (std::uint32_t b = 0; b < banks_; ++b) {
                policies_.push_back(spec.factory());
                policies_.back()->configure(sets_, ways_);
            }
        }
    }

    /** Service one access; the result mirrors LlcAccessResult. */
    LlcAccessResult
    access(const MemAccess &a, std::uint64_t index,
           std::uint64_t next_use)
    {
        LlcAccessResult r;
        const Addr block = a.addr / kBlockBytes;
        const std::uint32_t bank =
            static_cast<std::uint32_t>(block % banks_);
        const std::uint32_t set =
            static_cast<std::uint32_t>((block / banks_) % sets_);
        Set &s = table_[static_cast<std::size_t>(bank) * sets_ + set];
        LlcStats::PerStream &ps =
            stats_.stream[static_cast<std::size_t>(a.stream)];
        ++ps.accesses;
        const AccessInfo info{&a, index, next_use};

        for (std::uint32_t w = 0; w < ways_; ++w) {
            Way &way = s.ways[w];
            if (way.valid && way.block == block) {
                ++ps.hits;
                r.hit = true;
                way.dirty = way.dirty || a.isWrite;
                policyHit(bank, set, s, w, info);
                characterizer.hit(block, a.stream);
                return r;
            }
        }

        if ((ucd_ && a.stream == StreamType::Display)
            || (kind_ == Kind::Real
                && policies_[bank]->shouldBypass(set, info))) {
            ++ps.bypasses;
            r.bypassed = true;
            return r;
        }

        ++ps.misses;
        std::uint32_t w = 0;
        while (w < ways_ && s.ways[w].valid)
            ++w;
        if (w == ways_) {
            w = policyVictim(bank, set, s);
            Way &victim = s.ways[w];
            ++stats_.evictions;
            if (victim.dirty) {
                ++stats_.writebacks;
                r.writeback = true;
                r.writebackAddr = victim.block * kBlockBytes;
            }
            if (kind_ == Kind::Real)
                policies_[bank]->onEvict(set, w);
            characterizer.evict(victim.block);
        }
        s.ways[w] = Way{block, true, a.isWrite};
        policyFill(bank, set, s, w, info);
        characterizer.fill(block, a.stream);
        return r;
    }

    const LlcStats &stats() const { return stats_; }

    /** Insertion-RRPV histogram (empty for LRU and NRU). */
    FillHistogram
    fills() const
    {
        FillHistogram merged = fills_;
        for (const auto &p : policies_)
            if (const FillHistogram *h = p->fillHistogram())
                merged.merge(*h);
        return merged;
    }

    /** Fed by this cache's hits, fills and evictions. */
    ReferenceCharacterizer characterizer;

  private:
    enum class Kind { Lru, Nru, Srrip, Real };

    /** SRRIP with 2-bit RRPVs, as policySpec("SRRIP") builds it. */
    static constexpr unsigned kMaxRrpv = 3;

    struct Way
    {
        Addr block = 0;
        bool valid = false;
        bool dirty = false;
    };

    struct Set
    {
        std::vector<Way> ways;
        std::list<std::uint32_t> recency;  ///< LRU: most recent first
        std::vector<bool> referenced;      ///< NRU reference bits
        std::vector<unsigned> rrpv;        ///< SRRIP prediction values
    };

    void
    touchLru(Set &s, std::uint32_t w)
    {
        s.recency.remove(w);
        s.recency.push_front(w);
    }

    void
    policyHit(std::uint32_t bank, std::uint32_t set, Set &s,
              std::uint32_t w, const AccessInfo &info)
    {
        switch (kind_) {
          case Kind::Lru:
            touchLru(s, w);
            break;
          case Kind::Nru:
            s.referenced[w] = true;
            break;
          case Kind::Srrip:
            s.rrpv[w] = 0;  // hit promotion: near-immediate reuse
            break;
          case Kind::Real:
            policies_[bank]->onHit(set, w, info);
            break;
        }
    }

    void
    policyFill(std::uint32_t bank, std::uint32_t set, Set &s,
               std::uint32_t w, const AccessInfo &info)
    {
        switch (kind_) {
          case Kind::Lru:
            touchLru(s, w);
            break;
          case Kind::Nru:
            s.referenced[w] = true;
            break;
          case Kind::Srrip:
            // Insert at "long" re-reference interval, 2^n - 2.
            s.rrpv[w] = kMaxRrpv - 1;
            fills_.record(referencePolicyStream(info.access->stream),
                          kMaxRrpv - 1);
            break;
          case Kind::Real:
            policies_[bank]->onFill(set, w, info);
            break;
        }
    }

    /** Victim of a full set. */
    std::uint32_t
    policyVictim(std::uint32_t bank, std::uint32_t set, Set &s)
    {
        switch (kind_) {
          case Kind::Lru:
            return s.recency.back();
          case Kind::Nru:
            // First unreferenced way; when every way is referenced,
            // clear all bits and take way 0.
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (!s.referenced[w])
                    return w;
            std::fill(s.referenced.begin(), s.referenced.end(), false);
            return 0;
          case Kind::Srrip:
            // First way at the maximum RRPV, aging every way by one
            // until some way gets there.
            while (true) {
                for (std::uint32_t w = 0; w < ways_; ++w)
                    if (s.rrpv[w] == kMaxRrpv)
                        return w;
                for (unsigned &v : s.rrpv)
                    ++v;
            }
          case Kind::Real:
            break;
        }
        return policies_[bank]->selectVictim(set);
    }

    std::uint32_t ways_;
    std::uint32_t banks_;
    std::uint32_t sets_;
    bool ucd_;
    Kind kind_ = Kind::Real;
    std::vector<Set> table_;  ///< bank-major, then set
    std::vector<std::unique_ptr<ReplacementPolicy>> policies_;
    LlcStats stats_;
    FillHistogram fills_;
};

/** What one reference replay of a trace produces. */
struct ReferenceRun
{
    std::vector<LlcAccessResult> outcomes;  ///< one per access
    LlcStats stats;
    FillHistogram fills;
    Characterization characterization;

    /**
     * DRAM-bound traffic in trace order: the access itself when it
     * did not hit (fill read or bypass), then the dirty victim.
     */
    std::vector<MemAccess> dramTrace;
};

/** Replay @p trace through a fresh ReferenceLlc. */
inline ReferenceRun
referenceReplay(const FrameTrace &trace, const PolicySpec &spec,
                const LlcConfig &config)
{
    ReferenceLlc llc(config, spec);
    std::vector<std::uint64_t> next_use(trace.accesses.size(), kNever);
    if (spec.needsOracle)
        next_use = referenceNextUse(trace.accesses);

    ReferenceRun run;
    run.outcomes.reserve(trace.accesses.size());
    for (std::uint64_t i = 0; i < trace.accesses.size(); ++i) {
        const MemAccess &a = trace.accesses[i];
        const LlcAccessResult r = llc.access(a, i, next_use[i]);
        run.outcomes.push_back(r);
        if (!r.hit)
            run.dramTrace.push_back(
                MemAccess(a.addr, a.stream, a.isWrite, a.cycle));
        if (r.writeback)
            run.dramTrace.push_back(MemAccess(
                r.writebackAddr, StreamType::Other, true, a.cycle));
    }
    run.stats = llc.stats();
    run.fills = llc.fills();
    run.characterization = llc.characterizer.result();
    return run;
}

} // namespace gllc

#endif // GLLC_TESTS_REFERENCE_LLC_HH
