/**
 * @file
 * Two-level TLB model (ITLB / DTLB backed by a shared L2 TLB).
 */

#ifndef BTBSIM_MEMORY_TLB_H
#define BTBSIM_MEMORY_TLB_H

#include "common/types.h"
#include "core/soa_table.h"

namespace btbsim {

inline constexpr Addr kPageBytes = 4096;

/** Shared second-level TLB; misses cost a fixed page-walk latency. */
class L2Tlb
{
  public:
    L2Tlb(unsigned sets = 128, unsigned ways = 12, unsigned latency = 8,
          unsigned walk_latency = 40)
        : tags_(sets, ways, log2i(kPageBytes)), latency_(latency),
          walk_latency_(walk_latency)
    {}

    /** @return extra cycles beyond the L1 TLB latency. */
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
        set.fill(static_cast<unsigned>(set.victim()), page);
        return latency_ + walk_latency_;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Empty {};
    SoaSetTable<Empty> tags_;
    unsigned latency_;
    unsigned walk_latency_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/** First-level TLB (ITLB or DTLB). */
class Tlb
{
  public:
    Tlb(L2Tlb &l2, unsigned sets = 32, unsigned ways = 4,
        unsigned latency = 1)
        : l2_(&l2), tags_(sets, ways, log2i(kPageBytes)), latency_(latency)
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
        const unsigned extra = l2_->access(addr);
        set.fill(static_cast<unsigned>(set.victim()), page);
        return latency_ + extra;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Empty {};
    L2Tlb *l2_;
    SoaSetTable<Empty> tags_;
    unsigned latency_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_MEMORY_TLB_H
