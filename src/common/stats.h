/**
 * @file
 * Statistics primitives: the per-component counter export and the
 * geometric-mean helpers the paper's figures use.
 */

#ifndef BTBSIM_COMMON_STATS_H
#define BTBSIM_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace btbsim {

/**
 * Geometric mean over the strictly positive entries of @p values;
 * non-positive entries are skipped (log is undefined for them) so a
 * single zero IPC cannot poison a whole reported table. Returns 0 when
 * no positive entry exists.
 */
double geomean(const std::vector<double> &values);

/** Minimum / maximum helpers that tolerate empty input (returning 0). */
double vecMin(const std::vector<double> &values);
double vecMax(const std::vector<double> &values);

/** One entry of a counter struct's name table: exported key suffix and
 *  the member it reads. */
template <typename T>
struct CounterName
{
    const char *name;
    std::uint64_t T::*field;
};

/**
 * Write every counter of @p c into @p out as "prefix.name" -> value.
 *
 * This is the one counter mechanism: a component keeps its event counts
 * as plain std::uint64_t members of a struct T (a hot-path bump is one
 * add) and names them once in a static table,
 *
 *   static constexpr bool kExportZero = ...;
 *   static constexpr CounterName<T> kNames[] = {{"accesses", &T::accesses}, ...};
 *
 * Key-set rule, fixed per table by kExportZero: a table that sets it
 * exports every key, zeros included (PcGenStats: every pcgen.* key is
 * always present); a table that clears it exports a key only once its
 * counter has fired (BtbCounters, CacheCounters: an organization lists
 * only the events it can produce). Scalars the Cpu reads off a structure
 * (demand_*, dram.accesses, backend.committed, ftq.capacity) always
 * appear. The key set feeds the golden digests and the frozen benchmark
 * reference digests, so changing a rule changes both.
 */
template <typename T>
void
exportCounters(std::map<std::string, double> &out, const std::string &prefix,
               const T &c)
{
    for (const CounterName<T> &n : T::kNames) {
        const std::uint64_t v = c.*n.field;
        if (v != 0 || T::kExportZero)
            out[prefix + "." + n.name] = static_cast<double>(v);
    }
}

} // namespace btbsim

#endif // BTBSIM_COMMON_STATS_H
