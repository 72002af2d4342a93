#include "frontend/pcgen.h"

#include <cassert>

namespace btbsim {

PcGen::PcGen(BtbOrg &org, BPredUnit &bpred, TraceSource &trace, Ftq &ftq)
    : org_(&org), bpred_(&bpred), trace_(&trace), ftq_(&ftq)
{
    advance();
    next_fetch_pc_ = pending_->pc;
}

void
PcGen::runCycle(Cycle now)
{
    if (waiting_resteer_ || now < ready_cycle_)
        return;
    if (!ftq_->canAccept(next_fetch_pc_, redirect_pending_))
        return; // Backpressure: the FTQ is full.

    const bool bypass = ftq_->empty();
    PredictionBundle bundle;
    org_->beginAccess(next_fetch_pc_, bundle);
    ++stats.accesses;
    deferred_updates_.clear();

    unsigned bubbles = 0;
    bool force_new_entry = redirect_pending_;
    redirect_pending_ = false;

    for (int guard = 0; guard < 256; ++guard) {
        assert(pending_->pc == next_fetch_pc_ &&
               "frontend cursor diverged from trace");

        const StepView v = bundle.probe(pending_->pc);
        if (v.kind == StepView::Kind::kEndOfWindow)
            break; // Next access continues sequentially, no bubble.

        if (!ftq_->canAccept(pending_->pc, force_new_entry))
            break; // FTQ filled mid-bundle; resume here next cycle.

        // This instruction is consumed into the bundle: its FTQ slot is
        // its one stored copy, and the trace cursor moves on.
        DynInst &d = *ftq_->push(*pending_, ++seq_, now, bypass,
                                 force_new_entry);
        const Instruction &in = d.in;
        force_new_entry = false;
        ++stats.fetch_pcs;
        advance();
        next_fetch_pc_ = in.next_pc;
        // A resteer also stalls PC generation until the pipeline
        // resolves the flagged branch.
        auto resteer = [&](Resteer r) {
            d.resteer = r;
            waiting_resteer_ = true;
            redirect_pending_ = true;
        };

        const bool tracked = v.kind == StepView::Kind::kBranch;
        const bool is_branch = in.isBranch();

        // Direction predictor: queried (and trained, immediate update) for
        // every actual conditional branch in program order.
        bool dir_pred = false;
        if (in.branch == BranchClass::kCondDirect) {
            dir_pred = bpred_->predictDirection(in.pc, in.taken);
            ++stats.cond_branches;
            if (dir_pred != in.taken)
                ++stats.cond_mispredicts;
        }
        // Indirect target predictor: trained on every non-return indirect.
        Addr ipred_target = 0;
        if (isIndirect(in.branch) && in.branch != BranchClass::kReturn)
            ipred_target = bpred_->predictIndirect(in.pc, in.next_pc);

        bool predicted_taken = false;
        Addr predicted_target = 0;
        bool ras_popped = false;
        if (tracked && is_branch) {
            predicted_taken =
                (v.type == BranchClass::kCondDirect) ? dir_pred : true;
            if (predicted_taken) {
                switch (v.type) {
                  case BranchClass::kReturn:
                    predicted_target = bpred_->popReturn();
                    ras_popped = true;
                    break;
                  case BranchClass::kIndirectJump:
                  case BranchClass::kIndirectCall:
                    predicted_target = v.follow ? v.target
                        : (ipred_target ? ipred_target : v.target);
                    break;
                  default:
                    predicted_target = v.target;
                    break;
                }
            }
        }

        // Architectural RAS maintenance along the correct path.
        if (isCall(in.branch))
            bpred_->pushCall(in.pc);
        if (in.branch == BranchClass::kReturn && !ras_popped) {
            // Untracked (or mispredicted-NT) return: popped once the
            // decoder identifies it.
            predicted_target = predicted_target ? predicted_target
                                                : bpred_->popReturn();
        }

        if (is_branch) {
            ++stats.branches;
            if (in.taken) {
                ++stats.taken_branches;
                if (tracked) {
                    if (v.level >= 2)
                        ++stats.taken_l2_hits;
                    else
                        ++stats.taken_l1_hits;
                }
            }
        }

        const bool ends_access_nt =
            tracked && v.end_on_not_taken && !predicted_taken && !in.taken;

        if (tracked && !is_branch) {
            // Stale entry over a non-branch: the decoder flags a misfetch
            // if the stale slot would have redirected fetch.
            if (isAlwaysTaken(v.type)) {
                ++stats.misfetches;
                deferred_updates_.emplace_back(in, true);
                resteer(Resteer::kDecode);
                break;
            }
            // Stale conditional slot: treated as not taken; harmless.
        }

        bool end_bundle = false;
        bool chained = false;

        if (!is_branch || (!predicted_taken && !in.taken)) {
            // Plain instruction or correctly-not-taken branch.
            if (is_branch)
                deferred_updates_.emplace_back(in, false);
            end_bundle = ends_access_nt;
        } else if (predicted_taken && in.taken &&
                   predicted_target == in.next_pc) {
            // Correct taken prediction.
            deferred_updates_.emplace_back(in, false);
            if (v.follow && bundle.chain(*org_, in.pc, in.next_pc)) {
                chained = true; // Same access continues at the target.
            } else {
                end_bundle = true;
                bubbles += org_->takenPenalty(v.level);
                if (isIndirect(v.type) && v.type != BranchClass::kReturn)
                    bubbles += 1; // Extra bubble for non-return indirects.
            }
        } else {
            // Divergence. Classify the resteer (Fig. 3).
            deferred_updates_.emplace_back(in, true);
            Resteer r = Resteer::kExec;
            if (predicted_taken && in.taken) {
                // Wrong target from the BTB.
                r = isDirect(v.type) ? Resteer::kDecode : Resteer::kExec;
            } else if (!predicted_taken && in.taken) {
                switch (in.branch) {
                  case BranchClass::kUncondDirect:
                  case BranchClass::kDirectCall:
                    r = Resteer::kDecode; // Decoder computes the target.
                    break;
                  case BranchClass::kReturn:
                    // The decoder identifies the return and uses the RAS;
                    // a wrong RAS target escalates to Execute.
                    r = (predicted_target == in.next_pc) ? Resteer::kDecode
                                                         : Resteer::kExec;
                    break;
                  default:
                    r = Resteer::kExec; // Conditionals and indirects.
                    break;
                }
            } else {
                // Predicted taken, actually not taken: conditional
                // misprediction resolved at Execute.
                r = Resteer::kExec;
            }
            if (r == Resteer::kDecode) {
                ++stats.misfetches;
            } else {
                ++stats.mispredicts;
                if (in.branch == BranchClass::kCondDirect) {
                    ++(tracked ? stats.misp_cond : stats.misp_btbmiss);
                } else if (in.branch == BranchClass::kReturn) {
                    ++stats.misp_return;
                } else {
                    ++stats.misp_indirect;
                }
            }
            resteer(r);
            break;
        }

        if (chained) {
            force_new_entry = true; // New fetch block at the taken target.
            continue;
        }
        if (end_bundle) {
            // A not-taken end (MB-BTB pulled slot) restarts sequentially.
            redirect_pending_ = in.taken;
            break;
        }
    }

    stats.taken_bubbles += bubbles;
    ready_cycle_ = now + 1 + bubbles;

    // Apply the BTB updates after the access so the walk never observes
    // entries mutating underneath it.
    for (const auto &[br, resteer] : deferred_updates_)
        org_->update(br, resteer);
    deferred_updates_.clear();
}

} // namespace btbsim
