/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * We use SplitMix64: tiny, fast, full-period, and — unlike std::mt19937 —
 * guaranteed to produce the same stream on every platform, which keeps
 * simulation results reproducible across compilers.
 *
 * Two idioms live here:
 *
 *  - Rng: a seeded mutable stream. Sanctioned only for state that is
 *    owned by exactly one sequential consumer (a kernel's per-node
 *    ThreadCtx, a standalone bench driver). A stream whose draws
 *    interleave across nodes makes the consumption order part of the
 *    result — the exact coupling that breaks shard-count invariance.
 *
 *  - counterHash(): a *pure* function of (seed, stream coordinates...,
 *    counter). This is the shared-state-free replacement: every call
 *    site derives its own independent stream from stable model
 *    coordinates (node ids, sequence numbers), so any shard can evaluate
 *    any draw at any time and the result is still bit-identical for
 *    every simThreads value. Oblivious routing's per-(src, dst, seq,
 *    hop) coin flips and guard fault injection (sim/guard/fault.cc) both
 *    use it. The ltp-no-shared-rng lint (tools/ltp-tidy/) enforces the
 *    boundary.
 */

#ifndef LTP_SIM_RNG_HH
#define LTP_SIM_RNG_HH

#include <cstdint>

namespace ltp
{

/** The SplitMix64 output mix as a pure function (no mutable state). */
constexpr std::uint64_t
splitMix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Counter-based RNG: one uniform 64-bit draw as a pure hash of a seed
 * and the stream coordinates that identify the draw (site ids, sequence
 * numbers, hop positions, ...). No shared state, no consumption order —
 * the draw for a given coordinate tuple is the same no matter which
 * shard evaluates it, or when.
 */
template <typename... Rest>
constexpr std::uint64_t
counterHash(std::uint64_t head, Rest... rest)
{
    if constexpr (sizeof...(rest) == 0)
        return splitMix64(head);
    else
        return splitMix64(head ^ counterHash(std::uint64_t(rest)...));
}

/** SplitMix64 deterministic PRNG. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed)
    {
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = splitMix64(state_);
        state_ += 0x9e3779b97f4a7c15ull;
        return z;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state_;
};

} // namespace ltp

#endif // LTP_SIM_RNG_HH
