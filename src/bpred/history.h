/**
 * @file
 * Global branch history register with folded-segment hashing.
 */

#ifndef BTBSIM_BPRED_HISTORY_H
#define BTBSIM_BPRED_HISTORY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace btbsim {

/**
 * The fold walk for a fixed list of history lengths and one output width,
 * built once: GlobalHistory::fold(plan, out) sets out[i] to the fold of
 * the most recent lengths[i] bits down to out_bits bits.
 *
 * A fold XORs the history in chunks of at most out_bits bits that never
 * straddle a 64-bit word, rotating the accumulator left by one within
 * out_bits after each chunk. Length 0 folds to 0 (bias-table indexing);
 * lengths above GlobalHistory::kBits fold all kBits. The lengths must be
 * non-decreasing: then each shorter fold takes the same chunks as the
 * longest one up to its own length, where it takes a short last chunk,
 * and one walk emits them all.
 */
class FoldPlan
{
  public:
    /** An empty plan: folds nothing. */
    FoldPlan() = default;

    FoldPlan(const std::vector<unsigned> &lengths, unsigned out_bits);

  private:
    friend class GlobalHistory;

    static constexpr std::uint16_t kNoOut = 0xffff;

    /** One chunk: v = rotate(acc ^ ((history word >> shift) & mask)).
     *  v goes to out[out] unless out is kNoOut, and becomes the running
     *  fold when keep (else it is a shorter length's short last chunk). */
    struct Step
    {
        std::uint64_t mask;
        std::uint8_t word;
        std::uint8_t shift;
        bool keep;
        std::uint16_t out;
    };

    std::vector<Step> steps_;
    std::uint64_t out_mask_ = 0;
    unsigned rotate_right_ = 0; ///< out_bits - 1 (0 when out_bits is 0).
};

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

    /** Run @p plan: out[i] = the fold of the plan's i-th length. */
    void fold(const FoldPlan &plan, std::uint64_t *out) const;

    /** The fold of the most recent @p length bits down to @p out_bits
     *  bits (a one-length plan, built per call). */
    std::uint64_t fold(unsigned length, unsigned out_bits) const;

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
