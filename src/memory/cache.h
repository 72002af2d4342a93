/**
 * @file
 * Latency-propagating set-associative cache model with MSHRs.
 *
 * The model is functional-with-latency: an access returns the absolute
 * cycle at which the line's data is available to the requester. Lines in
 * flight are represented by tags whose ready cycle lies in the future, so
 * secondary misses merge naturally (MSHR behaviour). Hit latencies are
 * cumulative load-to-use values as given in Table 1.
 */

#ifndef BTBSIM_MEMORY_CACHE_H
#define BTBSIM_MEMORY_CACHE_H

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/soa_table.h"

namespace btbsim {

/** Fixed-latency, channel-limited DRAM model (Table 1: quad channel). */
class Dram
{
  public:
    explicit Dram(unsigned channels = 4, unsigned latency = 120,
                  unsigned occupancy = 8)
        : latency_(latency), occupancy_(occupancy), channel_free_(channels, 0)
    {}

    /** Access starting at @p now; returns the absolute completion cycle. */
    Cycle
    access(Addr line, Cycle now)
    {
        auto &ch = channel_free_[(line >> 6) % channel_free_.size()];
        const Cycle start = std::max(now, ch);
        ch = start + occupancy_;
        ++accesses_;
        return start + latency_;
    }

    std::uint64_t accesses() const { return accesses_; }

  private:
    unsigned latency_;
    unsigned occupancy_;
    std::vector<Cycle> channel_free_;
    std::uint64_t accesses_ = 0;
};

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    unsigned sets = 64;
    unsigned ways = 8;
    unsigned latency = 3;   ///< Cumulative load-to-use on hit.
    unsigned mshrs = 16;
    bool next_line_prefetch = false;

    bool operator==(const CacheConfig &) const = default;
};

/** Event counters of one cache level, exported under its name. Each key
 *  appears once its event has fired (see exportCounters). */
struct CacheCounters
{
    std::uint64_t prefetches = 0;
    std::uint64_t mshr_merges = 0;      ///< Hits on a line still in flight.
    std::uint64_t mshr_full_stalls = 0; ///< Misses that waited for an MSHR.

    static constexpr bool kExportZero = false;
    static constexpr CounterName<CacheCounters> kNames[] = {
        {"prefetches", &CacheCounters::prefetches},
        {"mshr_merges", &CacheCounters::mshr_merges},
        {"mshr_full_stalls", &CacheCounters::mshr_full_stalls},
    };
};

/**
 * One cache level. Misses forward to @c next or, at the last level, to
 * DRAM. Fills are inclusive along the path back.
 */
class Cache
{
  public:
    /** Throws std::invalid_argument naming <name>.<field> of @p cfg when
     *  sets is 0, ways is outside 1..32 or mshrs is 0. */
    Cache(const CacheConfig &cfg, Cache *next, Dram *dram);

    /**
     * Demand access to the 64B line containing @p addr, issued at @p now.
     * @return absolute cycle at which data is available.
     */
    Cycle access(Addr addr, Cycle now) { return accessLine(lineOf(addr), now, false); }

    /** Prefetch into this level (no latency returned to a consumer). */
    void prefetch(Addr addr, Cycle now) { accessLine(lineOf(addr), now, true); }

    /** True if the line is present (possibly still in flight). */
    bool contains(Addr addr) const { return peekFind(tags_, lineOf(addr)) != nullptr; }

    const CacheConfig &config() const { return cfg_; }

    std::uint64_t demandAccesses() const { return demand_accesses_; }
    std::uint64_t demandMisses() const { return demand_misses_; }

    CacheCounters counters;

  private:
    struct Line
    {
        Cycle ready = 0;
    };

    static Addr lineOf(Addr addr) { return alignDown(addr, kLineBytes); }

    Cycle accessLine(Addr line, Cycle now, bool is_prefetch);
    void chargeEarliestMshr(Cycle busy_until);

    CacheConfig cfg_;
    Cache *next_;
    Dram *dram_;
    SoaSetTable<Line> tags_;
    /// Free cycle of each MSHR, as a min-heap: [0] is the earliest. The
    /// MSHRs are interchangeable and a miss only ever takes the earliest
    /// one, so their order carries no timing.
    std::vector<Cycle> mshr_free_;

    std::uint64_t demand_accesses_ = 0;
    std::uint64_t demand_misses_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_MEMORY_CACHE_H
