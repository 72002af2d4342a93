/** @file Shared helpers for BTB organization tests. */

#ifndef BTBSIM_TESTS_BTB_TEST_UTIL_H
#define BTBSIM_TESTS_BTB_TEST_UTIL_H

#include "core/btb_org.h"
#include "trace/instruction.h"

namespace btbsim::test {

/** Build a branch instruction record. */
inline Instruction
branchAt(Addr pc, BranchClass cls, Addr target, bool taken = true)
{
    Instruction in;
    in.pc = pc;
    in.cls = InstClass::kBranch;
    in.branch = cls;
    in.taken = taken;
    in.next_pc = taken ? target : pc + kInstBytes;
    return in;
}

/** Walk an access from @p pc, returning the view at each probe until the
 *  window ends or @p max probes were made. */
inline std::vector<StepView>
walk(BtbOrg &org, Addr pc, unsigned max = 64)
{
    std::vector<StepView> views;
    PredictionBundle b;
    org.beginAccess(pc, b);
    Addr cur = pc;
    for (unsigned i = 0; i < max; ++i) {
        StepView v = b.probe(cur);
        if (v.kind == StepView::Kind::kEndOfWindow)
            break;
        views.push_back(v);
        cur += kInstBytes;
    }
    return views;
}

/** The view for a single pc within a fresh access starting at @p start. */
inline StepView
viewAt(BtbOrg &org, Addr start, Addr pc)
{
    PredictionBundle b;
    org.beginAccess(start, b);
    StepView v;
    for (Addr cur = start; cur <= pc; cur += kInstBytes) {
        v = b.probe(cur);
        if (v.kind == StepView::Kind::kEndOfWindow)
            break;
    }
    return v;
}

} // namespace btbsim::test

#endif // BTBSIM_TESTS_BTB_TEST_UTIL_H
