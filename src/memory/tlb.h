/**
 * @file
 * TLB model: one level of page-translation cache. The Table 1 hierarchy
 * (ITLB / DTLB backed by a shared L2 TLB) is wired up in MemHier.
 */

#ifndef BTBSIM_MEMORY_TLB_H
#define BTBSIM_MEMORY_TLB_H

#include "common/types.h"
#include "core/soa_table.h"

namespace btbsim {

inline constexpr Addr kPageBytes = 4096;

/** One TLB level. A miss costs the next level's access(), or a fixed
 *  page-walk latency at the last level (@p next null). */
class Tlb
{
  public:
    Tlb(unsigned sets, unsigned ways, unsigned latency, Tlb *next,
        unsigned walk_latency = 0)
        : tags_(sets, ways, log2i(kPageBytes)), next_(next),
          latency_(latency), walk_latency_(walk_latency)
    {}

    /** @return translation latency in cycles (hit: @c latency). */
    unsigned
    access(Addr addr)
    {
        const Addr page = alignDown(addr, kPageBytes);
        ++accesses_;
        auto set = tags_.set(page);
        const int w = set.probe(page);
        if (w >= 0) {
            set.touch(static_cast<unsigned>(w));
            return latency_;
        }
        ++misses_;
        const unsigned extra = next_ ? next_->access(addr) : walk_latency_;
        set.fill(static_cast<unsigned>(set.victim()), page);
        return latency_ + extra;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Empty {};
    SoaSetTable<Empty> tags_;
    Tlb *next_;
    unsigned latency_;
    unsigned walk_latency_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_MEMORY_TLB_H
