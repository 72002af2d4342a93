#include "backend/backend.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace btbsim {

namespace {

/** @return @p cfg, or throw std::invalid_argument naming the first
 *  backend.<field> the backend cannot model. */
const BackendConfig &
validated(const BackendConfig &cfg)
{
    auto reject = [](const char *field, unsigned got, const char *rule) {
        throw std::invalid_argument("backend." + std::string(field) +
                                    " = " + std::to_string(got) + ": " +
                                    rule);
    };
    const std::pair<const char *, unsigned> sizes[] = {
        {"rob_size", cfg.rob_size},         {"iq_size", cfg.iq_size},
        {"lq_size", cfg.lq_size},           {"sq_size", cfg.sq_size},
        {"commit_width", cfg.commit_width}, {"issue_width", cfg.issue_width},
    };
    for (const auto &[field, v] : sizes)
        if (v == 0)
            reject(field, v, "must be >= 1");
    if (!cfg.ideal) {
        const std::pair<const char *, unsigned> ports[] = {
            {"misc_ports", cfg.misc_ports},
            {"load_ports", cfg.load_ports},
            {"store_ports", cfg.store_ports},
        };
        for (const auto &[field, v] : ports)
            if (v == 0)
                reject(field, v, "must be >= 1 on the non-ideal backend");
    }
    if (cfg.rob_size > Backend::kMaxRobSize)
        reject("rob_size", cfg.rob_size,
               "must be <= 16384, the most ROB slots a 16-bit wake-list "
               "link can address");
    return cfg;
}

} // namespace

Backend::Backend(const BackendConfig &cfg, MemHier &mem)
    : cfg_(validated(cfg)), mem_(&mem),
      rob_(std::bit_ceil(std::size_t{cfg_.rob_size})),
      rob_mask_(rob_.size() - 1), ready_((rob_.size() + 63) / 64, 0)
{
    wheel_.fill(kNil);
}

bool
Backend::canAllocate() const
{
    return robOccupancy() < cfg_.rob_size && iq_occupancy_ < cfg_.iq_size &&
           loads_in_flight_ < cfg_.lq_size &&
           stores_in_flight_ < cfg_.sq_size;
}

void
Backend::allocate(const DynInst &inst, Cycle now)
{
    // The ROB ring finds every in-flight producer at its seq's slot; a
    // gap in the seqs or an overfull ring would break that silently.
    if (inst.seq != last_allocated_seq_ + 1 || robOccupancy() == rob_.size())
        throw std::logic_error(
            "Backend::allocate: seq " + std::to_string(inst.seq) +
            " after seq " + std::to_string(last_allocated_seq_) + " with " +
            std::to_string(robOccupancy()) + " of " +
            std::to_string(rob_.size()) +
            " ROB slots used; seqs must be contiguous and a slot free");
    last_allocated_seq_ = inst.seq;
    const Instruction &in = inst.in;

    // Rename: resolve sources to producing sequence numbers.
    const std::uint64_t deps[2] = {in.src1 ? last_writer_[in.src1] : 0,
                                   in.src2 ? last_writer_[in.src2] : 0};
    if (in.dst)
        last_writer_[in.dst] = inst.seq;

    if (in.isLoad())
        ++loads_in_flight_;
    if (in.isStore())
        ++stores_in_flight_;

    // Overwrite the reused slot field by field rather than assigning a
    // fresh RobEntry; next_waiter and next_due are written when linked.
    const std::size_t s = inst.seq & rob_mask_;
    RobEntry &e = rob_[s];
    e.pc = in.pc;
    e.mem_addr = in.mem_addr;
    e.cls = in.cls;
    e.resteer = inst.resteer;
    e.issued = cfg_.ideal;

    if (cfg_.ideal) {
        // Pure-dataflow scheduling: with unit latencies and unlimited
        // ports, completion is computable at allocation because all
        // producers allocated (and thus scheduled) earlier.
        Cycle c = now + 1;
        for (const std::uint64_t dep : deps)
            if (dep > last_committed_seq_)
                c = std::max(c, slot(dep).complete_cycle + 1);
        e.complete_cycle = c;
        if (inst.resteer == Resteer::kExec) {
            has_pending_resteer_ = true;
            pending_resteer_complete_ = c;
        }
        return;
    }

    ++iq_occupancy_;
    // Wait on each producer that has not issued; an issued one already
    // pins its completion cycle. A committed one has completed.
    e.ready_at = now + 1;
    e.pending = 0;
    e.waiters = kNil;
    for (unsigned op = 0; op < 2; ++op) {
        const std::uint64_t dep = deps[op];
        if (dep <= last_committed_seq_ || (op == 1 && dep == deps[0]))
            continue;
        RobEntry &p = rob_[dep & rob_mask_];
        if (p.issued) {
            e.ready_at = std::max(e.ready_at, p.complete_cycle);
            continue;
        }
        e.next_waiter[op] = p.waiters;
        p.waiters = static_cast<Link>(s << 1 | op);
        ++e.pending;
    }
    if (e.pending == 0)
        schedule(s);
}

void
Backend::schedule(std::size_t s)
{
    RobEntry &e = rob_[s];
    Link &bucket = wheel_[e.ready_at & (kWheelCycles - 1)];
    e.next_due = bucket;
    bucket = static_cast<Link>(s);
}

void
Backend::drainWheel(Cycle now)
{
    // Cpu runs every cycle; a caller that skips cycles gets the skipped
    // buckets drained here (at most one full turn).
    Cycle c = std::max(wheel_now_ + 1,
                       now >= kWheelCycles ? now - kWheelCycles + 1 : 0);
    for (; c <= now; ++c) {
        for (Link *l = &wheel_[c & (kWheelCycles - 1)]; *l != kNil;) {
            RobEntry &e = rob_[*l];
            if (e.ready_at > now) {
                l = &e.next_due; // Due on a later turn.
                continue;
            }
            ready_[*l >> 6] |= std::uint64_t{1} << (*l & 63);
            ++ready_count_;
            *l = e.next_due;
        }
    }
    wheel_now_ = std::max(wheel_now_, now);
}

void
Backend::wake(const RobEntry &producer)
{
    for (Link l = producer.waiters; l != kNil;) {
        RobEntry &c = rob_[l >> 1];
        const Link next = c.next_waiter[l & 1];
        c.ready_at = std::max(c.ready_at, producer.complete_cycle);
        if (--c.pending == 0)
            schedule(l >> 1);
        l = next;
    }
}

unsigned
Backend::execLatency(const RobEntry &e, Cycle now)
{
    switch (e.cls) {
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
        const Cycle done = mem_->load(e.pc, e.mem_addr, now);
        return static_cast<unsigned>(done > now ? done - now : 1);
      }
    }
    return 1;
}

void
Backend::issue(Cycle now)
{
    // Visit the ready bits in seq order: from the ROB head's slot to the
    // end of the ring, then from slot 0 back up to the head.
    unsigned issued = 0, loads = 0, stores = 0, misc = 0;
    const std::size_t words = ready_.size();
    const std::size_t head = (last_committed_seq_ + 1) & rob_mask_;
    const std::uint64_t head_high = ~std::uint64_t{0} << (head & 63);
    std::size_t w = head >> 6;
    std::uint64_t bits = ready_[w] & head_high;
    unsigned left = ready_count_;
    for (std::size_t i = 0; left > 0;) {
        while (bits) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            --left;
            RobEntry &e = rob_[w * 64 + b];
            unsigned &used = e.isLoad()    ? loads
                             : e.isStore() ? stores
                                           : misc;
            const unsigned cap = e.isLoad()    ? cfg_.load_ports
                                 : e.isStore() ? cfg_.store_ports
                                               : cfg_.misc_ports;
            if (used >= cap)
                continue; // Port-capped: stays ready for next cycle.
            ++used;

            e.complete_cycle = now + execLatency(e, now);
            e.issued = true;
            ready_[w] &= ~(std::uint64_t{1} << b);
            --ready_count_;
            --iq_occupancy_;
            if (e.resteer == Resteer::kExec) {
                has_pending_resteer_ = true;
                pending_resteer_complete_ = e.complete_cycle;
            }
            wake(e);
            if (++issued == cfg_.issue_width)
                return;
        }
        if (++i > words)
            break;
        w = (w + 1) & (words - 1);
        bits = i == words ? ready_[w] & ~head_high : ready_[w];
    }
}

void
Backend::runCycle(Cycle now)
{
    drainWheel(now);
    if (ready_count_ > 0)
        issue(now);

    // ---- Commit ---------------------------------------------------------
    unsigned commits = 0;
    while (robOccupancy() > 0 && commits < cfg_.commit_width) {
        const RobEntry &head = slot(last_committed_seq_ + 1);
        if (!head.issued || head.complete_cycle > now)
            break;
        if (head.isStore()) {
            mem_->store(head.mem_addr, now);
            --stores_in_flight_;
        }
        if (head.isLoad())
            --loads_in_flight_;
        ++last_committed_seq_;
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
