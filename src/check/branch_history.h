/**
 * @file
 * Organization-independent training oracle for the differential checker.
 *
 * Every (type, target) pair an organization was ever asked to store for
 * a branch PC — each demand update of a taken branch — is recorded here
 * in an unbounded map. Whatever slots an organization later exposes
 * must come from this set: a value outside it was fabricated (corrupted
 * offset arithmetic, a wrong-key write, a stale pointer), which no
 * amount of legitimate capacity pressure can produce.
 *
 * Two strengths of value check exist:
 *  - contains(): the exposed pair matches SOME recorded pair. Valid for
 *    every organization — block-structured storage (B-/MB-BTB, hetero)
 *    legitimately keeps redundant copies that go stale when the branch
 *    retrains through a different dynamic block.
 *  - latest(): the exposed pair matches the MOST RECENT recorded pair.
 *    Valid for the I-BTB and R-BTB, whose updates write through to
 *    every live copy of the single entry tracking the branch, so a
 *    stale exposure is impossible by construction.
 */

#ifndef BTBSIM_CHECK_BRANCH_HISTORY_H
#define BTBSIM_CHECK_BRANCH_HISTORY_H

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "trace/instruction.h"

namespace btbsim::check {

class BranchHistory
{
  public:
    using Value = std::pair<BranchClass, Addr>;

    /** Record that @p pc was trained with @p type/@p target. */
    void
    train(Addr pc, BranchClass type, Addr target)
    {
        PcHistory &h = map_[pc];
        h.latest = {type, target};
        for (const Value &v : h.values)
            if (v.first == type && v.second == target)
                return;
        h.values.emplace_back(type, target);
    }

    /** Was @p pc ever trained at all? */
    bool knows(Addr pc) const { return map_.contains(pc); }

    /** Does (type, target) match any value ever trained for @p pc? */
    bool
    contains(Addr pc, BranchClass type, Addr target) const
    {
        const auto it = map_.find(pc);
        if (it == map_.end())
            return false;
        for (const Value &v : it->second.values)
            if (v.first == type && v.second == target)
                return true;
        return false;
    }

    /** Most recent value trained for @p pc, or nullptr if never trained. */
    const Value *
    latest(Addr pc) const
    {
        const auto it = map_.find(pc);
        return it == map_.end() ? nullptr : &it->second.latest;
    }

    std::size_t trackedPcs() const { return map_.size(); }

  private:
    struct PcHistory
    {
        std::vector<Value> values; ///< Deduplicated, insertion order.
        Value latest{BranchClass::kNone, 0};
    };

    std::unordered_map<Addr, PcHistory> map_;
};

} // namespace btbsim::check

#endif // BTBSIM_CHECK_BRANCH_HISTORY_H
