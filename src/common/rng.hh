/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic choices in the library (workload generation, BIP
 * throttling, page scattering) flow through Rng so that every
 * experiment is reproducible from a seed.  The generator is
 * xoroshiro128++, which is fast, has a 2^128-1 period and passes the
 * usual statistical batteries; quality far beyond what trace
 * generation needs.
 */

#ifndef GLLC_COMMON_RNG_HH
#define GLLC_COMMON_RNG_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace gllc
{

/** xoroshiro128++ deterministic random number generator. */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        s0 = splitmix(x);
        s1 = splitmix(x);
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t a = s0, b0 = s1;
        const std::uint64_t result = rotl(a + b0, 17) + a;
        const std::uint64_t b = b0 ^ a;
        s0 = rotl(a, 49) ^ b ^ (b << 21);
        s1 = rotl(b, 28);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        GLLC_ASSERT(bound != 0);
        // Lemire multiply-shift; bias is negligible for the bounds
        // used here (< 2^40).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        GLLC_ASSERT(lo <= hi);
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Approximately normal variate (Irwin-Hall sum of 4 uniforms),
     * mean 0, stddev 1.  Good enough for jittering scene parameters.
     */
    double
    gaussian()
    {
        double s = 0.0;
        for (int i = 0; i < 4; ++i)
            s += uniform();
        // Sum of 4 U(0,1): mean 2, variance 4/12 -> stddev 1/sqrt(3).
        return (s - 2.0) / 0.5773502691896258;
    }

    /** Fork an independent generator for a named sub-task. */
    Rng
    fork(std::uint64_t salt)  // gllc-lint: allow(process-spawn)
    {
        return Rng(next() ^ (salt * 0xbf58476d1ce4e5b9ULL));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t s0;
    std::uint64_t s1;
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Used to pick which texture a draw call binds: a few popular
 * textures take most of the draws, matching how game assets are
 * reused across a frame.
 */
class ZipfSampler
{
  public:
    /** @param n population size; @param theta skew (0 = uniform). */
    ZipfSampler(std::uint32_t n, double theta)
        : n_(n)
    {
        GLLC_ASSERT(n > 0);
        cdf_.resize(n);
        double sum = 0.0;
        for (std::uint32_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf_[i] = sum;
        }
        for (std::uint32_t i = 0; i < n; ++i)
            cdf_[i] /= sum;
    }

    /** Draw one sample in [0, n). */
    std::uint32_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        std::uint32_t lo = 0, hi = n_ - 1;
        while (lo < hi) {
            const std::uint32_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::uint32_t population() const { return n_; }

  private:
    std::uint32_t n_;
    /** Cumulative probability table for inverse-transform sampling. */
    std::vector<double> cdf_;
};

} // namespace gllc

#endif // GLLC_COMMON_RNG_HH
