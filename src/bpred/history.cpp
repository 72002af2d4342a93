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

FoldPlan::FoldPlan(const std::vector<unsigned> &lengths, unsigned out_bits)
    : out_mask_(out_bits >= 64 ? ~0ull : (1ull << out_bits) - 1),
      rotate_right_(out_bits ? out_bits - 1 : 0)
{
    assert(std::is_sorted(lengths.begin(), lengths.end()));
    assert(lengths.size() < kNoOut && out_bits <= 64);
    auto mask = [](unsigned bits) {
        return bits == 64 ? ~0ull : (1ull << bits) - 1;
    };
    auto length = [&](std::size_t i) {
        return out_bits ? std::min(lengths[i], GlobalHistory::kBits) : 0;
    };
    const std::size_t n = lengths.size();
    std::size_t k = 0; // First length whose fold is not yet emitted.
    // Length 0 folds to rotate(0 ^ 0) = 0.
    for (; k < n && length(k) == 0; ++k)
        steps_.push_back({0, 0, 0, false, static_cast<std::uint16_t>(k)});
    for (unsigned consumed = 0; k < n;) {
        const unsigned chunk =
            std::min({64u - consumed % 64, length(n - 1) - consumed, out_bits});
        const auto word = static_cast<std::uint8_t>(consumed / 64);
        const auto shift = static_cast<std::uint8_t>(consumed % 64);
        // A length ending inside this chunk takes a short last chunk; of
        // the lengths ending with it, the last rides on the chunk itself.
        for (; k < n && length(k) <= consumed + chunk; ++k) {
            if (length(k) == consumed + chunk &&
                (k + 1 == n || length(k + 1) != length(k)))
                break;
            steps_.push_back({mask(length(k) - consumed), word, shift, false,
                              static_cast<std::uint16_t>(k)});
        }
        const bool ends = k < n && length(k) == consumed + chunk;
        steps_.push_back({mask(chunk), word, shift, true,
                          ends ? static_cast<std::uint16_t>(k++) : kNoOut});
        consumed += chunk;
    }
}

void
GlobalHistory::fold(const FoldPlan &plan, std::uint64_t *out) const
{
    std::uint64_t acc = 0;
    for (const FoldPlan::Step &s : plan.steps_) {
        std::uint64_t v = acc ^ ((words_[s.word] >> s.shift) & s.mask);
        v = ((v << 1) | (v >> plan.rotate_right_)) & plan.out_mask_;
        if (s.out != FoldPlan::kNoOut)
            out[s.out] = v;
        if (s.keep)
            acc = v;
    }
}

std::uint64_t
GlobalHistory::fold(unsigned length, unsigned out_bits) const
{
    std::uint64_t out;
    fold(FoldPlan({length}, out_bits), &out);
    return out;
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
