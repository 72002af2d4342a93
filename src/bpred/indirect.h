/**
 * @file
 * gshare-like indirect target predictor (4K entries per Table 1).
 */

#ifndef BTBSIM_BPRED_INDIRECT_H
#define BTBSIM_BPRED_INDIRECT_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "bpred/history.h"

namespace btbsim {

/**
 * Tagless target array indexed by PC xor folded global history, as in
 * ChampSim's baseline indirect predictor. Predicts targets for non-return
 * indirect branches; returns use the RAS instead.
 */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(unsigned entries = 4096);

    /**
     * Predict the target of the indirect branch at @p pc given the current
     * @p history, then train with the @p actual target.
     * @return the predicted target (0 if the entry was empty).
     */
    Addr predictAndTrain(Addr pc, const GlobalHistory &history, Addr actual);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

  private:
    std::vector<Addr> table_;
    unsigned index_bits_;
    FoldPlan fold_plan_; ///< The 4 most recent outcomes, index_bits_ wide.
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_BPRED_INDIRECT_H
