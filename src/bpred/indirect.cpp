#include "bpred/indirect.h"

namespace btbsim {

IndirectPredictor::IndirectPredictor(unsigned entries)
    : table_(entries, 0), index_bits_(log2i(entries)),
      fold_plan_({4}, index_bits_)
{}

Addr
IndirectPredictor::predictAndTrain(Addr pc, const GlobalHistory &history,
                                   Addr actual)
{
    const std::uint64_t mask = (1ull << index_bits_) - 1;
    std::uint64_t folded;
    history.fold(fold_plan_, &folded);
    const std::uint64_t idx = ((pc >> 2) ^ folded) & mask;

    const Addr predicted = table_[idx];
    ++lookups_;
    if (predicted != actual)
        ++mispredicts_;
    table_[idx] = actual;
    return predicted;
}

} // namespace btbsim
