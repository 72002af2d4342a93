/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * All stochastic behaviour in btbsim (workload generation, branch bias
 * draws, replacement tie-breaking) flows through this generator so that a
 * given seed reproduces a bit-identical simulation.
 */

#ifndef BTBSIM_COMMON_RNG_H
#define BTBSIM_COMMON_RNG_H

#include <cstdint>

namespace btbsim {

/**
 * xoshiro256** 1.0 by Blackman and Vigna (public domain), seeded through
 * splitmix64. Small, fast, and high quality for simulation purposes.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p);

    /**
     * Geometric-ish draw: number of successes before failure with
     * continuation probability @p p, clamped to @p max.
     */
    unsigned nextGeometric(double p, unsigned max);

    /** Fork an independent stream (used to decorrelate sub-generators). */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

} // namespace btbsim

#endif // BTBSIM_COMMON_RNG_H
