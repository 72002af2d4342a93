#include "memory/cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace btbsim {

namespace {

/** @return @p cfg, or throw std::invalid_argument naming the first
 *  <name>.<field> the cache cannot model. */
const CacheConfig &
validated(const CacheConfig &cfg)
{
    auto reject = [&cfg](const char *field, unsigned got, const char *rule) {
        throw std::invalid_argument(cfg.name + "." + field + " = " +
                                    std::to_string(got) + ": " + rule);
    };
    if (cfg.sets < 1)
        reject("sets", cfg.sets, "must be >= 1");
    if (cfg.ways < 1 || cfg.ways > 32)
        reject("ways", cfg.ways,
               "must be in 1..32 (the per-set valid mask is 32 bits)");
    if (cfg.mshrs < 1)
        reject("mshrs", cfg.mshrs,
               "must be >= 1: every miss holds an MSHR until its fill");
    return cfg;
}

} // namespace

Cache::Cache(const CacheConfig &cfg, Cache *next, Dram *dram)
    : cfg_(validated(cfg)), next_(next), dram_(dram),
      tags_(cfg.sets, cfg.ways, log2i(kLineBytes)),
      mshr_free_(cfg.mshrs, 0)
{}

Cycle
Cache::accessLine(Addr line, Cycle now, bool is_prefetch)
{
    if (!is_prefetch) {
        ++demand_accesses_;
    } else {
        ++counters.prefetches;
    }

    // One probe serves both outcomes: the set handle carries the hit way
    // on a hit and the victim choice on a miss. Nothing between the
    // probe and the fill re-enters this cache (the recursion below goes
    // to the *next* level), so the set state cannot change in between.
    auto set = tags_.set(line);
    const int w = set.probe(line);
    if (w >= 0) {
        // Hit, possibly on a line still in flight (MSHR merge).
        set.touch(static_cast<unsigned>(w));
        Line &l = set.entry(static_cast<unsigned>(w));
        const Cycle available = std::max(now + cfg_.latency, l.ready);
        if (l.ready > now)
            ++counters.mshr_merges;
        return available;
    }

    if (!is_prefetch)
        ++demand_misses_;

    const Cycle earliest = mshr_free_[0];
    if (earliest > now)
        ++counters.mshr_full_stalls;
    const Cycle start = std::max(now, earliest);
    Cycle done;
    if (next_) {
        done = next_->accessLine(line, start, is_prefetch);
    } else {
        done = dram_->access(line, start);
    }

    Line &l = set.fill(static_cast<unsigned>(set.victim()), line);
    l.ready = done;

    // Charge the MSHR until the fill returns (the heap top read above is
    // still the earliest: only other cache objects ran in between).
    chargeEarliestMshr(done);

    if (cfg_.next_line_prefetch && !is_prefetch)
        accessLine(line + kLineBytes, now, true);

    return done;
}

void
Cache::chargeEarliestMshr(Cycle busy_until)
{
    // Replace the heap top (the MSHR this miss took), Floyd-style: walk
    // the hole down to a leaf along the earlier child, one compare per
    // level, then sift busy_until back up. A fill usually outlasts every
    // other MSHR, so it rarely moves up, and the walk down has no
    // data-dependent branch.
    Cycle *heap = mshr_free_.data();
    const std::size_t n = mshr_free_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n)
            child += heap[child + 1] < heap[child];
        heap[hole] = heap[child];
        hole = child;
    }
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (heap[parent] <= busy_until)
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = busy_until;
}

} // namespace btbsim
