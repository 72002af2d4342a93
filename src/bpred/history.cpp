#include "bpred/history.h"

#include <algorithm>
#include <cassert>

namespace btbsim {

void
GlobalHistory::shift(bool taken)
{
    for (std::size_t i = words_.size() - 1; i > 0; --i)
        words_[i] = (words_[i] << 1) | (words_[i - 1] >> 63);
    words_[0] = (words_[0] << 1) | static_cast<std::uint64_t>(taken);
}

void
GlobalHistory::reset()
{
    words_.fill(0);
}

std::uint64_t
GlobalHistory::fold(unsigned length, unsigned out_bits) const
{
    std::uint64_t out;
    foldPrefixes(&length, 1, out_bits, &out);
    return out;
}

void
GlobalHistory::foldPrefixes(const unsigned *lengths, std::size_t n,
                            unsigned out_bits, std::uint64_t *out) const
{
    assert(std::is_sorted(lengths, lengths + n));
    if (out_bits == 0) {
        std::fill(out, out + n, 0);
        return;
    }
    auto mask = [](unsigned bits) {
        return bits == 64 ? ~0ull : (1ull << bits) - 1;
    };
    const std::uint64_t out_mask = mask(out_bits);
    // Rotate the accumulator by one within out_bits to spread segments.
    auto rotate = [&](std::uint64_t acc) {
        return ((acc << 1) | (acc >> (out_bits - 1))) & out_mask;
    };
    auto length = [&](std::size_t i) { return std::min(lengths[i], kBits); };

    std::size_t k = 0; // First length whose fold is not yet emitted.
    std::uint64_t acc = 0;
    unsigned consumed = 0;
    for (;;) {
        for (; k < n && length(k) == consumed; ++k)
            out[k] = acc;
        if (k == n)
            return;
        const unsigned word = consumed / 64;
        const unsigned bit = consumed % 64;
        const unsigned chunk =
            std::min({64u - bit, length(n - 1) - consumed, out_bits});
        const std::uint64_t bits = words_[word] >> bit;
        // A length ending inside this chunk takes a short last chunk.
        for (; k < n && length(k) < consumed + chunk; ++k)
            out[k] = rotate(acc ^ (bits & mask(length(k) - consumed)));
        acc = rotate(acc ^ (bits & mask(chunk)));
        consumed += chunk;
    }
}

std::uint64_t
GlobalHistory::low(unsigned n) const
{
    if (n == 0)
        return 0;
    if (n >= 64)
        return words_[0];
    return words_[0] & ((1ull << n) - 1);
}

} // namespace btbsim
