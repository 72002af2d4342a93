#include "backend/backend.h"

#include <algorithm>

namespace btbsim {

Backend::Backend(const BackendConfig &cfg, MemHier &mem)
    : cfg_(cfg), mem_(&mem)
{}

bool
Backend::canAllocate() const
{
    return rob_.size() < cfg_.rob_size && iq_occupancy_ < cfg_.iq_size &&
           loads_in_flight_ < cfg_.lq_size &&
           stores_in_flight_ < cfg_.sq_size;
}

void
Backend::allocate(DynInst &&inst, Cycle now)
{
    inst.alloc_cycle = now;

    // Rename: resolve sources to producing sequence numbers.
    inst.dep1 = inst.in.src1 ? last_writer_[inst.in.src1] : 0;
    inst.dep2 = inst.in.src2 ? last_writer_[inst.in.src2] : 0;
    if (inst.in.dst)
        last_writer_[inst.in.dst] = inst.seq;

    if (inst.in.isLoad())
        ++loads_in_flight_;
    if (inst.in.isStore())
        ++stores_in_flight_;
    ++iq_occupancy_;

    // Producer entries resolve through stable deque references; capture
    // them before the move below. A stale pointer (producer committed or
    // renamed before this window) is guarded by the seq check against
    // last_committed_seq_, never dereferenced.
    RobEntry *s1 = inst.in.src1 ? last_writer_entry_[inst.in.src1] : nullptr;
    RobEntry *s2 = inst.in.src2 ? last_writer_entry_[inst.in.src2] : nullptr;

    if (cfg_.ideal) {
        // Pure-dataflow scheduling: with unit latencies and unlimited
        // ports, completion is computable at allocation because all
        // producers allocated (and thus scheduled) earlier.
        Cycle c = now + 1;
        auto chase = [&](std::uint64_t seq, const RobEntry *src) {
            if (seq != 0 && seq > last_committed_seq_)
                c = std::max(c, src->inst.complete_cycle + 1);
        };
        chase(inst.dep1, s1);
        chase(inst.dep2, s2);
        inst.issue_cycle = now;
        inst.complete_cycle = c;
        if (inst.resteer == Resteer::kExec) {
            has_pending_resteer_ = true;
            pending_resteer_complete_ = c;
        }
        rob_.push_back(RobEntry{std::move(inst), true});
        if (rob_.back().inst.in.dst)
            last_writer_entry_[rob_.back().inst.in.dst] = &rob_.back();
        --iq_occupancy_;
        return;
    }

    rob_.push_back(RobEntry{std::move(inst), false});
    RobEntry &e = rob_.back();
    e.dep1_src = s1;
    e.dep2_src = s2;
    if (e.inst.in.dst)
        last_writer_entry_[e.inst.in.dst] = &e;

    if (unissued_tail_)
        unissued_tail_->next_unissued = &e;
    else
        unissued_head_ = &e;
    unissued_tail_ = &e;

    // A new chain entry voids the issue-stage sleep proof.
    issue_sleep_until_ = 0;
}

bool
Backend::depReady(std::uint64_t seq, const RobEntry *src, Cycle now) const
{
    if (seq == 0 || seq <= last_committed_seq_)
        return true;
    if (!src)
        return true; // Producer predates the measured window.
    if (!src->issued)
        return false;
    return src->inst.complete_cycle <= now;
}

unsigned
Backend::execLatency(const DynInst &d, Cycle now)
{
    if (cfg_.ideal)
        return 1;
    switch (d.in.cls) {
      case InstClass::kAlu:
      case InstClass::kBranch:
        return 1;
      case InstClass::kMul:
        return 3;
      case InstClass::kFp:
        return 3;
      case InstClass::kDiv:
        return 12;
      case InstClass::kStore:
        return 1;
      case InstClass::kLoad: {
        const Cycle done = mem_->load(d.in.pc, d.in.mem_addr, now);
        return static_cast<unsigned>(done > now ? done - now : 1);
      }
    }
    return 1;
}

void
Backend::runCycle(Cycle now)
{
    // ---- Issue ----------------------------------------------------------
    // Walk the un-issued chain (the ROB-order subsequence the old
    // full-ROB scan visited after skipping issued entries); issue unlinks
    // in place, so long-lived issued entries cost nothing per cycle.
    unsigned issued = 0, loads = 0, stores = 0, misc = 0;
    unsigned window_scanned = 0;
    // Whole-stage sleep: when the previous walk proved that no entry can
    // become issuable before issue_sleep_until_ (and nothing was
    // allocated since — allocate() resets the bound), the walk is a
    // provable no-op and is skipped outright.
    if (!cfg_.ideal && issue_sleep_until_ > now)
        goto commit_stage;
    {
    constexpr Cycle kNoWake = ~Cycle{0};
    Cycle min_wake = kNoWake;

    RobEntry *prev = nullptr;
    for (RobEntry *e = cfg_.ideal ? nullptr : unissued_head_; e;) {
        if (issued >= cfg_.issue_width) {
            // Unvisited tail: no bound on it, re-walk next cycle.
            min_wake = now + 1;
            break;
        }
        // Only the IQ window of oldest un-issued instructions is
        // eligible (canAllocate() bounds total un-issued to iq_size, so
        // this break is a safety net rather than a reachable limit).
        if (++window_scanned > cfg_.iq_size) {
            min_wake = now + 1;
            break;
        }
        DynInst &d = e->inst;
        RobEntry *next = e->next_unissued;
        if (d.alloc_cycle >= now) {
            // Allocated this cycle; earliest issue is next cycle.
            min_wake = std::min(min_wake, now + 1);
            prev = e;
            e = next;
            continue;
        }

        if (e->stall_until <= now &&
            (!depReady(d.dep1, e->dep1_src, now) ||
             !depReady(d.dep2, e->dep2_src, now))) {
            // Bound the next possible wake-up. An issued producer has a
            // fixed completion cycle. An un-issued producer sits earlier
            // in the chain (rename order), so it cannot issue at `now`
            // after this visit: it cannot issue before now+1, and with
            // >= 1 cycle latencies its consumer cannot be ready before
            // now+2 (or the producer's own bound + 1, whichever is
            // later).
            auto wake = [&](std::uint64_t seq, const RobEntry *src) {
                if (seq == 0 || seq <= last_committed_seq_ || !src)
                    return Cycle{0}; // This dep is ready; other one binds.
                if (!src->issued)
                    return std::max(now + 2, src->stall_until + 1);
                return src->inst.complete_cycle <= now
                           ? Cycle{0}
                           : src->inst.complete_cycle;
            };
            e->stall_until = std::max(wake(d.dep1, e->dep1_src),
                                      wake(d.dep2, e->dep2_src));
        }

        if (e->stall_until > now) {
            // Known-unready until e->stall_until: skip the producer
            // re-check (and the port logic) entirely.
            min_wake = std::min(min_wake, e->stall_until);
            prev = e;
            e = next;
            continue;
        }

        if (d.in.isLoad()) {
            if (loads >= cfg_.load_ports) {
                // Ready but port-capped: eligible again next cycle.
                min_wake = std::min(min_wake, now + 1);
                prev = e;
                e = next;
                continue;
            }
        } else if (d.in.isStore()) {
            if (stores >= cfg_.store_ports) {
                min_wake = std::min(min_wake, now + 1);
                prev = e;
                e = next;
                continue;
            }
        } else if (misc >= cfg_.misc_ports) {
            min_wake = std::min(min_wake, now + 1);
            prev = e;
            e = next;
            continue;
        }

        d.issue_cycle = now;
        d.complete_cycle = now + execLatency(d, now);
        e->issued = true;
        --iq_occupancy_;
        ++issued;
        if (d.in.isLoad())
            ++loads;
        else if (d.in.isStore())
            ++stores;
        else
            ++misc;

        if (d.resteer == Resteer::kExec) {
            has_pending_resteer_ = true;
            pending_resteer_complete_ = d.complete_cycle;
        }

        if (prev)
            prev->next_unissued = next;
        else
            unissued_head_ = next;
        if (e == unissued_tail_)
            unissued_tail_ = prev;
        e = next;
    }
    // kNoWake (nothing pending at all) sleeps until the next allocation
    // (allocate() clears the bound).
    issue_sleep_until_ = min_wake;
    }

  commit_stage:
    // ---- Commit ---------------------------------------------------------
    unsigned commits = 0;
    while (!rob_.empty() && commits < cfg_.commit_width) {
        RobEntry &head = rob_.front();
        if (!head.issued || head.inst.complete_cycle > now)
            break;
        if (head.inst.in.isStore()) {
            mem_->store(head.inst.in.mem_addr, now);
            --stores_in_flight_;
        }
        if (head.inst.in.isLoad())
            --loads_in_flight_;
        last_committed_seq_ = head.inst.seq;
        rob_.pop_front();
        ++committed_;
        ++commits;
    }
}

Cycle
Backend::takeExecResteer(Cycle now)
{
    if (has_pending_resteer_ && pending_resteer_complete_ <= now) {
        has_pending_resteer_ = false;
        return pending_resteer_complete_;
    }
    return 0;
}

} // namespace btbsim
