#include "bpred/perceptron.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace btbsim {

HashedPerceptron::HashedPerceptron(const PerceptronConfig &config)
    : cfg_(config)
{
    auto reject = [](const char *field, unsigned got, const char *rule) {
        throw std::invalid_argument("PerceptronConfig::" +
                                    std::string(field) + " = " +
                                    std::to_string(got) + ": " + rule);
    };
    if (cfg_.num_tables < 2)
        reject("num_tables", cfg_.num_tables,
               "need at least 2 (a bias table plus one history table)");
    if (!isPow2(cfg_.entries_per_table))
        reject("entries_per_table", cfg_.entries_per_table,
               "must be a power of two");
    if (cfg_.max_history < 3 || cfg_.max_history > GlobalHistory::kBits)
        reject("max_history", cfg_.max_history,
               "must lie in [3, 256]: the geometric lengths start at 3 "
               "and the history holds 256 bits");

    // Geometric history lengths from 0 to max_history: table 0 is the
    // PC-indexed bias table, the rest follow a geometric progression.
    std::vector<unsigned> hist_lengths(cfg_.num_tables);
    hist_lengths[0] = 0;
    const double ratio = std::pow(
        static_cast<double>(cfg_.max_history) / 3.0,
        1.0 / static_cast<double>(cfg_.num_tables - 2));
    double len = 3.0;
    for (unsigned t = 1; t < cfg_.num_tables; ++t) {
        hist_lengths[t] = static_cast<unsigned>(len + 0.5);
        len *= ratio;
    }
    hist_lengths.back() = cfg_.max_history;

    weights_.assign(std::size_t{cfg_.num_tables} * cfg_.entries_per_table,
                    SignedSatCounter<8>{});

    index_bits_ = log2i(cfg_.entries_per_table);
    // The lengths never decrease, as a fold plan requires.
    fold_plan_ = FoldPlan(hist_lengths, index_bits_);
    index_mask_ = (1ull << index_bits_) - 1;
    table_hash_.resize(cfg_.num_tables);
    for (unsigned t = 0; t < cfg_.num_tables; ++t)
        table_hash_[t] = std::uint64_t{t} * 0x9e3779b97f4a7c15ull >> 48;

    theta_ = static_cast<int>(2.14 * cfg_.num_tables + 20.58);
}

int
HashedPerceptron::sum(Addr pc, std::vector<std::uint64_t> &indices) const
{
    // One history walk folds every table's length.
    indices.resize(cfg_.num_tables);
    history_.fold(fold_plan_, indices.data());
    const std::uint64_t pc_hash = (pc >> 2) ^ ((pc >> 2) >> index_bits_);
    int s = 0;
    const SignedSatCounter<8> *w = weights_.data();
    for (unsigned t = 0; t < cfg_.num_tables; ++t) {
        indices[t] = (pc_hash ^ table_hash_[t] ^ indices[t]) & index_mask_;
        s += w[std::size_t{t} * cfg_.entries_per_table + indices[t]].value();
    }
    return s;
}

bool
HashedPerceptron::predict(Addr pc) const
{
    std::vector<std::uint64_t> indices;
    return sum(pc, indices) >= 0;
}

bool
HashedPerceptron::predictAndTrain(Addr pc, bool taken)
{
    const int s = sum(pc, scratch_);
    const bool pred = s >= 0;

    ++lookups_;
    if (pred != taken)
        ++mispredicts_;

    // Train on mispredict or low confidence.
    if (pred != taken || std::abs(s) <= theta_) {
        for (unsigned t = 0; t < cfg_.num_tables; ++t)
            weights_[std::size_t{t} * cfg_.entries_per_table + scratch_[t]]
                .add(taken ? 1 : -1);

        // Adaptive threshold (Seznec-style): grow on mispredicts, shrink
        // when training only because of low confidence.
        if (pred != taken) {
            if (++tc_ >= 32) {
                tc_ = 0;
                ++theta_;
            }
        } else {
            if (--tc_ <= -32) {
                tc_ = 0;
                if (theta_ > 4)
                    --theta_;
            }
        }
    }

    history_.shift(taken);
    return pred;
}

} // namespace btbsim
