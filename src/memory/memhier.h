/**
 * @file
 * The full memory hierarchy of Table 1, wired together.
 */

#ifndef BTBSIM_MEMORY_MEMHIER_H
#define BTBSIM_MEMORY_MEMHIER_H

#include <memory>
#include <stdexcept>
#include <string>

#include "memory/cache.h"
#include "memory/prefetcher.h"
#include "memory/tlb.h"

namespace btbsim {

/** Memory system configuration (Table 1 defaults). */
struct MemConfig
{
    CacheConfig l1i{"L1I", 64, 8, 3, 16, false};
    CacheConfig l1d{"L1D", 64, 12, 5, 16, false};
    CacheConfig l2{"L2", 1024, 8, 15, 32, true}; ///< Next-line prefetcher.
    CacheConfig llc{"LLC", 2048, 16, 35, 64, false};
    unsigned dram_latency = 120;
    unsigned icache_interleaves = 8; ///< 1..32 (a 32-bit mask per cycle).

    bool operator==(const MemConfig &) const = default;
};

/**
 * Instruction and data paths sharing an L2/LLC/DRAM backend, with the
 * IP-stride prefetcher on the data side (Table 1).
 */
class MemHier
{
  public:
    /** Throws std::invalid_argument naming the field when
     *  icache_interleaves is outside 1..32 or a cache level's geometry
     *  or MSHR count is impossible (see Cache). */
    explicit MemHier(const MemConfig &cfg = {})
        : cfg_(cfg), dram_(4, cfg.dram_latency),
          llc_(cfg.llc, nullptr, &dram_), l2_(cfg.l2, &llc_, nullptr),
          l1i_(cfg.l1i, &l2_, nullptr), l1d_(cfg.l1d, &l2_, nullptr),
          // Table 1 TLBs: 32-set 4-way L1s (1 cycle) over a shared
          // 128-set 12-way L2 (8 cycles, 40-cycle page walk).
          l2tlb_(128, 12, 8, nullptr, 40), itlb_(32, 4, 1, &l2tlb_),
          dtlb_(32, 4, 1, &l2tlb_)
    {
        if (cfg.icache_interleaves < 1 || cfg.icache_interleaves > 32)
            throw std::invalid_argument(
                "mem.icache_interleaves = " +
                std::to_string(cfg.icache_interleaves) +
                ": must be in 1..32 (Cpu::deliver tracks the interleaves "
                "used in a cycle as a 32-bit mask)");
    }

    /** Instruction fetch of the line containing @p pc. Includes ITLB. */
    Cycle
    fetchLine(Addr pc, Cycle now)
    {
        const unsigned tlb_lat = itlb_.access(pc);
        return l1i_.access(pc, now + (tlb_lat - 1));
    }

    /** Data load at @p addr from load @p pc. Includes DTLB + prefetcher. */
    Cycle
    load(Addr pc, Addr addr, Cycle now)
    {
        const unsigned tlb_lat = dtlb_.access(addr);
        const Cycle done = l1d_.access(addr, now + (tlb_lat - 1));
        stride_pf_.observe(pc, addr, now, l1d_);
        return done;
    }

    /** Data store at @p addr (allocate-on-write; latency not consumed). */
    void
    store(Addr addr, Cycle now)
    {
        dtlb_.access(addr);
        l1d_.access(addr, now);
    }

    /** I-cache set interleave of the line containing @p pc. */
    unsigned
    icacheInterleave(Addr pc) const
    {
        return static_cast<unsigned>((pc / kLineBytes) %
                                     cfg_.icache_interleaves);
    }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &llc() { return llc_; }
    const Cache &l1i() const { return l1i_; }
    Dram &dram() { return dram_; }
    Tlb &itlb() { return itlb_; }

  private:
    MemConfig cfg_;
    Dram dram_;
    Cache llc_;
    Cache l2_;
    Cache l1i_;
    Cache l1d_;
    Tlb l2tlb_;
    Tlb itlb_;
    Tlb dtlb_;
    IpStridePrefetcher stride_pf_;
};

} // namespace btbsim

#endif // BTBSIM_MEMORY_MEMHIER_H
