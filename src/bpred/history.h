/**
 * @file
 * Global branch history register with folded-segment hashing.
 */

#ifndef BTBSIM_BPRED_HISTORY_H
#define BTBSIM_BPRED_HISTORY_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace btbsim {

/**
 * A shift register of branch outcomes up to 256 bits long, supporting the
 * folded-segment hashes geometric-history predictors index with.
 */
class GlobalHistory
{
  public:
    static constexpr unsigned kBits = 256;

    /** Shift in one outcome (bit 0 becomes the most recent). */
    void shift(bool taken);

    /** Clear all history. */
    void reset();

    /**
     * XOR-fold the most recent @p length bits down to @p out_bits bits.
     * length == 0 yields 0 (bias-table indexing); lengths above kBits
     * fold all kBits.
     */
    std::uint64_t fold(unsigned length, unsigned out_bits) const;

    /**
     * out[i] = fold(lengths[i], out_bits) for i < n, from one walk of the
     * history. @p lengths must be non-decreasing: then each shorter fold
     * takes the same chunks as the longest one up to its own length.
     */
    void foldPrefixes(const unsigned *lengths, std::size_t n,
                      unsigned out_bits, std::uint64_t *out) const;

    /** Raw low @p n bits of history (n <= 64). */
    std::uint64_t low(unsigned n) const;

  private:
    std::array<std::uint64_t, kBits / 64> words_{};
};

/** Path history: hashed PCs of recent taken branches. */
class PathHistory
{
  public:
    void
    shift(Addr pc)
    {
        value_ = (value_ << 3) ^ (pc >> 2);
    }

    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_BPRED_HISTORY_H
