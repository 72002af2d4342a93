/**
 * @file
 * Structure-of-arrays set-associative table with true-LRU replacement —
 * the probe-path successor to the AoS SetAssocTable. Shared by the BTB
 * organizations, caches and TLBs.
 *
 * Layout: one packed tag word per way (8B lanes, per-set stride padded
 * to a multiple of 4 so a set's tags span whole vectors — 8 ways = one
 * 64B cache line), a per-set 32-bit validity mask, and a parallel
 * LRU-stamp array. Payloads live in their own dense array so a probe
 * never drags entry bytes through the cache.
 *
 * A probe is a branchless word-compare over the whole set
 * (eqMaskScalar). Probing never touches LRU — recency is advanced only
 * by the explicit touch()/fill() mutators on SetView, so lookup side
 * effects are in the caller's hands.
 *
 * Replacement contract (bit-compatible with the old table): victim() is
 * the lowest-index invalid way if any, else the way with the strictly
 * smallest LRU stamp (stamps are unique per table, so order is total);
 * fill() counts an eviction when it overwrites a valid way holding a
 * different key and resets the payload to Entry{}.
 */

#ifndef BTBSIM_CORE_SOA_TABLE_H
#define BTBSIM_CORE_SOA_TABLE_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace btbsim {

// Leftovers of the retired probe-kernel selection: btbbench/main.cpp
// still prints simdKindName(resolveSimd()). Delete with btbbench's next
// revision.
enum class SimdKind : std::uint8_t { kScalar };
inline SimdKind resolveSimd() { return SimdKind::kScalar; }
inline const char *simdKindName(SimdKind) { return "scalar"; }

/** Portable tag compare: bit w set iff tags[w] == key. */
inline std::uint32_t
eqMaskScalar(const std::uint64_t *tags, unsigned lanes, std::uint64_t key)
{
    std::uint32_t m = 0;
    for (unsigned w = 0; w < lanes; ++w)
        m |= static_cast<std::uint32_t>(tags[w] == key) << w;
    return m;
}

/**
 * SoA set-associative container keyed by address. @p Entry must be
 * default constructible. At most 32 ways (validity is one 32-bit word).
 *
 * All per-set operations go through the SetView / ConstSetView handles:
 *
 *   auto set = table.set(key);          // index computed once
 *   int w = set.probe(key);             // -1 on miss; no LRU effect
 *   if (w >= 0) { set.touch(w); use(set.entry(w)); }
 *   else        { Entry &e = set.fill(set.victim(), key); ... }
 *
 * @tparam Entry payload type.
 */
template <typename Entry>
class SoaSetTable
{
  public:
    /**
     * @param sets Number of sets (any positive value; non-power-of-two
     *             is handled with modulo indexing).
     * @param ways Associativity (1..32).
     * @param index_shift Right shift applied to the key before set
     *                    selection (e.g., 6 for 64B-granular keys).
     */
    SoaSetTable(unsigned sets, unsigned ways, unsigned index_shift)
        : sets_(sets), ways_(ways), shift_(index_shift),
          stride_((ways + 3u) & ~3u),
          full_mask_(ways >= 32 ? ~std::uint32_t{0}
                                : (std::uint32_t{1} << ways) - 1),
          pow2_sets_(std::has_single_bit(sets)),
          tags_(static_cast<std::size_t>(sets) * stride_, 0),
          lru_(static_cast<std::size_t>(sets) * stride_, 0),
          valid_(sets, 0), entries_(static_cast<std::size_t>(sets) * ways)
    {
        assert(sets >= 1 && ways >= 1 && ways <= 32);
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::size_t
    capacity() const
    {
        return static_cast<std::size_t>(sets_) * ways_;
    }

    /** Set index @p key maps to (external residency modeling). */
    std::size_t
    setIndex(Addr key) const
    {
        const Addr s = key >> shift_;
        return pow2_sets_ ? static_cast<std::size_t>(s & (sets_ - 1))
                          : static_cast<std::size_t>(s % sets_);
    }

    class ConstSetView;

    /** Mutable handle on one set; cheap to copy, never outlives the
     *  table. Way indices are 0..ways()-1. */
    class SetView
    {
      public:
        unsigned ways() const { return t_->ways_; }
        std::size_t index() const { return set_; }

        /** Way holding @p key, or -1. Never advances LRU. */
        int
        probe(Addr key) const
        {
            return t_->probeSet(set_, key);
        }

        bool
        valid(unsigned w) const
        {
            return (t_->valid_[set_] >> w) & 1u;
        }
        Addr key(unsigned w) const { return tags()[w]; }
        /** LRU stamp; larger = more recently used (0 = never). */
        std::uint64_t stamp(unsigned w) const { return lru()[w]; }

        Entry &
        entry(unsigned w)
        {
            return t_->entries_[set_ * t_->ways_ + w];
        }
        const Entry &
        entry(unsigned w) const
        {
            return t_->entries_[set_ * t_->ways_ + w];
        }

        /** Mark way @p w most recently used. */
        void
        touch(unsigned w)
        {
            lru()[w] = ++t_->tick_;
        }

        /** Replacement choice: lowest-index invalid way, else LRU way.
         *  Pure selection — no state changes. */
        int
        victim() const
        {
            const std::uint32_t inv = ~t_->valid_[set_] & t_->full_mask_;
            if (inv)
                return std::countr_zero(inv);
            const std::uint64_t *l = lru();
            unsigned best = 0;
            for (unsigned w = 1; w < t_->ways_; ++w)
                if (l[w] < l[best])
                    best = w;
            return static_cast<int>(best);
        }

        /**
         * Install @p key in way @p w: counts an eviction when a valid
         * different-key entry is overwritten, stamps recency, and
         * returns the payload reset to Entry{}.
         */
        Entry &
        fill(unsigned w, Addr key)
        {
            std::uint32_t &vm = t_->valid_[set_];
            std::uint64_t &tag = tags()[w];
            if (((vm >> w) & 1u) && tag != key)
                ++t_->evictions_;
            vm |= std::uint32_t{1} << w;
            tag = key;
            lru()[w] = ++t_->tick_;
            Entry &e = entry(w);
            e = Entry{};
            return e;
        }

        /** Drop way @p w (tag/stamp bytes are retained but dead). */
        void
        invalidate(unsigned w)
        {
            t_->valid_[set_] &= ~(std::uint32_t{1} << w);
        }

      private:
        friend class SoaSetTable;
        friend class ConstSetView;
        SetView(SoaSetTable *t, std::size_t set) : t_(t), set_(set) {}

        std::uint64_t *tags() const
        {
            return t_->tags_.data() + set_ * t_->stride_;
        }
        std::uint64_t *lru() const
        {
            return t_->lru_.data() + set_ * t_->stride_;
        }

        SoaSetTable *t_;
        std::size_t set_;
    };

    /** Read-only set handle (residency/occupancy modeling, shadows). */
    class ConstSetView
    {
      public:
        unsigned ways() const { return t_->ways_; }
        std::size_t index() const { return set_; }

        /** Way holding @p key, or -1. Never advances LRU. */
        int
        probe(Addr key) const
        {
            return t_->probeSet(set_, key);
        }

        bool
        valid(unsigned w) const
        {
            return (t_->valid_[set_] >> w) & 1u;
        }
        Addr
        key(unsigned w) const
        {
            return t_->tags_[set_ * t_->stride_ + w];
        }
        std::uint64_t
        stamp(unsigned w) const
        {
            return t_->lru_[set_ * t_->stride_ + w];
        }
        const Entry &
        entry(unsigned w) const
        {
            return t_->entries_[set_ * t_->ways_ + w];
        }

      private:
        friend class SoaSetTable;
        ConstSetView(const SoaSetTable *t, std::size_t set)
            : t_(t), set_(set)
        {}

        const SoaSetTable *t_;
        std::size_t set_;
    };

    SetView set(Addr key) { return SetView(this, setIndex(key)); }
    SetView setAt(std::size_t index) { return SetView(this, index); }
    ConstSetView
    set(Addr key) const
    {
        return ConstSetView(this, setIndex(key));
    }
    ConstSetView
    setAt(std::size_t index) const
    {
        return ConstSetView(this, index);
    }

    /** Invalidate everything (tags/stamps retained but dead). */
    void
    clear()
    {
        for (std::uint32_t &v : valid_)
            v = 0;
    }

    /** Visit every valid entry in set-major, way order:
     *  f(key, const Entry&). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t s = 0; s < sets_; ++s) {
            std::uint32_t vm = valid_[s];
            const std::uint64_t *tags = tags_.data() + s * stride_;
            const Entry *ent = entries_.data() + s * ways_;
            while (vm) {
                const unsigned w =
                    static_cast<unsigned>(std::countr_zero(vm));
                vm &= vm - 1;
                f(static_cast<Addr>(tags[w]), ent[w]);
            }
        }
    }

    std::uint64_t evictions() const { return evictions_; }

  private:
    friend class SetView;
    friend class ConstSetView;

    /** Shared probe core. */
    int
    probeSet(std::size_t set, Addr key) const
    {
        const std::uint32_t m =
            eqMaskScalar(tags_.data() + set * stride_, stride_, key) &
            valid_[set];
        return m ? std::countr_zero(m) : -1;
    }

    unsigned sets_;
    unsigned ways_;
    unsigned shift_;
    unsigned stride_; ///< Tag/LRU lanes per set (ways rounded up to 4).
    std::uint32_t full_mask_; ///< Low ways_ bits set.
    bool pow2_sets_;
    std::vector<std::uint64_t> tags_; ///< Padding lanes masked by valid_.
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint32_t> valid_;
    std::vector<Entry> entries_;
    std::uint64_t evictions_ = 0;
};

// ---- Whole-table compositions of the SetView primitives -------------------
//
// The LRU effect is spelled out in the name: touchingFind advances
// recency, peekFind never does, fillEntry installs (resident way wins,
// else the victim) and hands back a payload reset to Entry{}.

/** Probe + touch: the resident entry for @p key or nullptr. */
template <typename Entry>
Entry *
touchingFind(SoaSetTable<Entry> &t, Addr key)
{
    auto set = t.set(key);
    const int w = set.probe(key);
    if (w < 0)
        return nullptr;
    set.touch(static_cast<unsigned>(w));
    return &set.entry(static_cast<unsigned>(w));
}

/** Probe without any LRU effect. */
template <typename Entry>
const Entry *
peekFind(const SoaSetTable<Entry> &t, Addr key)
{
    auto set = t.set(key);
    const int w = set.probe(key);
    return w < 0 ? nullptr : &set.entry(static_cast<unsigned>(w));
}

/** Insert-or-reset: the resident way wins, else the victim way; the
 *  payload comes back reset to Entry{}. */
template <typename Entry>
Entry &
fillEntry(SoaSetTable<Entry> &t, Addr key)
{
    auto set = t.set(key);
    int w = set.probe(key);
    if (w < 0)
        w = set.victim();
    return set.fill(static_cast<unsigned>(w), key);
}

/** Drop @p key if resident (tag/stamp bytes are retained but dead). */
template <typename Entry>
void
eraseKey(SoaSetTable<Entry> &t, Addr key)
{
    auto set = t.set(key);
    const int w = set.probe(key);
    if (w >= 0)
        set.invalidate(static_cast<unsigned>(w));
}

} // namespace btbsim

#endif // BTBSIM_CORE_SOA_TABLE_H
