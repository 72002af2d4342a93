#include "core/ibtb.h"

#include "check/fault.h"

namespace btbsim {

namespace {

/**
 * Overlay mirroring the L1 residency effects of this access's deferred
 * lookups (commitProbed): recency touches and L2-to-L1 fills, including
 * the evictions those fills cause. The walk probes slots strictly in
 * window order, so any probed slot's deferred lookup runs after exactly
 * the deferred lookups of the slots filled before it — mirroring every
 * filled slot's effect in fill order therefore predicts each lookup's
 * level and residency exactly, even when several window PCs collide in
 * one L1 set (l1.sets < width, e.g. the 1-cycle taken-penalty limit
 * study's 1-entry L1).
 *
 * Sets materialize lazily: until a fill targets a set, residency answers
 * come straight from the real table and recency touches are only queued,
 * so geometries whose windows never collide (every stock one) pay a few
 * appends per access and no copies.
 */
template <typename Table>
class ShadowL1
{
  public:
    explicit ShadowL1(const Table &t) : t_(t) {}

    /** Would the deferred lookup for @p key still hit L1? */
    bool
    resident(Addr key)
    {
        if (const Set *s = findSet(t_.setIndex(key)))
            return s->find(key) != nullptr;
        return t_.set(key).probe(key) >= 0;
    }

    /** Mirror the find() recency touch of an L1-hit lookup. */
    void
    touch(Addr key)
    {
        if (Set *s = findSet(t_.setIndex(key))) {
            if (ShadowWay *w = s->find(key))
                w->lru = ++s->tick;
        } else {
            assert(n_queued_ < kMaxSlots);
            queued_[n_queued_++] = key;
        }
    }

    /** Mirror the L1 fill (and its eviction) of an L2-hit lookup. */
    void
    promote(Addr key)
    {
        Set &s = materialize(t_.setIndex(key));
        // Same victim choice as SoaSetTable: the key's own way, else the
        // first invalid way, else the least-recent way.
        ShadowWay *victim = nullptr;
        for (unsigned i = 0; i < s.n_ways; ++i) {
            ShadowWay &w = s.ways[i];
            if (w.valid && w.key == key) {
                victim = &w;
                break;
            }
            if (!w.valid) {
                if (!victim || victim->valid)
                    victim = &w;
            } else if (!victim || (victim->valid && w.lru < victim->lru)) {
                victim = &w;
            }
        }
        victim->valid = true;
        victim->key = key;
        victim->lru = ++s.tick;
    }

  private:
    static constexpr unsigned kMaxSlots = PredictionBundle::kMaxSlots;
    static constexpr unsigned kMaxWays = 32;

    struct ShadowWay
    {
        Addr key;
        std::uint64_t lru;
        bool valid;
    };

    struct Set
    {
        std::size_t index;
        unsigned n_ways;
        std::uint64_t tick;
        ShadowWay ways[kMaxWays];

        ShadowWay *
        find(Addr key)
        {
            for (unsigned i = 0; i < n_ways; ++i)
                if (ways[i].valid && ways[i].key == key)
                    return &ways[i];
            return nullptr;
        }
        const ShadowWay *
        find(Addr key) const
        {
            return const_cast<Set *>(this)->find(key);
        }
    };

    Set *
    findSet(std::size_t index)
    {
        for (unsigned i = 0; i < n_sets_; ++i)
            if (sets_[i].index == index)
                return &sets_[i];
        return nullptr;
    }

    Set &
    materialize(std::size_t index)
    {
        if (Set *s = findSet(index))
            return *s;
        assert(n_sets_ < kMaxSlots && t_.ways() <= kMaxWays);
        Set &s = sets_[n_sets_++];
        s.index = index;
        s.n_ways = t_.ways();
        s.tick = 0;
        const auto src = t_.setAt(index);
        for (unsigned i = 0; i < s.n_ways; ++i) {
            s.ways[i] = {src.key(i), src.stamp(i), src.valid(i)};
            if (src.valid(i) && src.stamp(i) > s.tick)
                s.tick = src.stamp(i);
        }
        // Apply the touches queued before this set materialized, in order.
        for (unsigned i = 0; i < n_queued_; ++i)
            if (t_.setIndex(queued_[i]) == index)
                if (ShadowWay *w = s.find(queued_[i]))
                    w->lru = ++s.tick;
        return s;
    }

    const Table &t_;
    unsigned n_sets_ = 0;
    unsigned n_queued_ = 0;
    Set sets_[kMaxSlots]; ///< Uninitialized until materialized.
    Addr queued_[kMaxSlots];
};

} // namespace

InstructionBtb::InstructionBtb(const BtbConfig &cfg)
    : cfg_(cfg), table_(cfg, log2i(kInstBytes))
{}

/**
 * Fill @p b with a window of @p count banked probes starting at @p start,
 * using side-effect-free peeks. The recency touches and L2-to-L1 fills
 * the per-PC lookup() protocol performed at probe time are replayed for
 * the slots the walk actually probes — at chainAccess()/endAccess() time,
 * still before any update() of the access (commitProbed). A lookup miss
 * has no side effects, so sequential PCs need no replay. A ShadowL1
 * overlay mirrors the deferred lookups' L1 residency changes so the
 * peeked levels match the replayed lookups exactly for any geometry.
 */
void
InstructionBtb::fillWindow(Addr start, unsigned count, PredictionBundle &b)
{
    b.addSegment(start, start + Addr{count} * kInstBytes);
    const unsigned seg = b.n_segments - 1;
    const bool two_level = !table_.ideal();
    ShadowL1 shadow(table_.l1());
    for (unsigned i = 0; i < count; ++i) {
        const Addr pc = start + Addr{i} * kInstBytes;
        int level = 1;
        const Entry *e = nullptr;
        if (!two_level) {
            e = peekFind(table_.l1(), pc);
        } else if (shadow.resident(pc)) {
            e = peekFind(table_.l1(), pc);
            shadow.touch(pc);
        } else if ((e = peekFind(table_.l2(), pc)) != nullptr) {
            level = 2;
            shadow.promote(pc);
        }
        if (!e)
            continue;
        b.addSlot(seg, pc, e->type, e->target, level, nullptr,
                  cfg_.skip_taken);
        // The walk can never continue past an always-taken-class slot
        // within this segment (it either ends the access, diverges, or
        // chains into a fresh window), so stop peeking here.
        if (isAlwaysTaken(e->type))
            break;
    }
}

/** Replay the real lookup (recency touch, L2-to-L1 fill) for every
 *  probed slot not yet committed, in probe order. */
void
InstructionBtb::commitProbed(PredictionBundle &b)
{
    for (unsigned i = b.committed; i < b.n_slots; ++i)
        if (b.probed >> i & 1)
            (void)table_.lookup(b.slots[i].pc);
    b.committed = b.n_slots;
}

int
InstructionBtb::beginAccess(Addr pc, PredictionBundle &b)
{
    ++stats["accesses"];
    b.dynamic_chain = cfg_.skip_taken;
    b.wants_end_access = true;
    fillWindow(pc, cfg_.width, b);
    return 0; // Levels are reported per probed PC via the bundle slots.
}

bool
InstructionBtb::chainAccess(Addr pc, Addr target, PredictionBundle &b)
{
    (void)pc;
    // Skp mode chains across taken branches within the access width.
    if (!cfg_.skip_taken || b.probes >= cfg_.width)
        return false;
    commitProbed(b);
    const unsigned remaining = cfg_.width - b.probes;
    b.restartFill();
    fillWindow(target, remaining, b);
    return true;
}

void
InstructionBtb::endAccess(PredictionBundle &b)
{
    commitProbed(b);
}

void
InstructionBtb::update(const Instruction &br, bool resteer)
{
    (void)resteer;
    if (!br.taken)
        return; // Never-taken branches occupy no BTB storage.

    auto [l1, l2] = table_.findBoth(br.pc);
    if (!l1 && !l2) {
        auto [a, b] = table_.allocate(br.pc);
        l1 = a;
        l2 = b;
        ++stats["allocs"];
    }
    for (Entry *e : {l1, l2}) {
        if (!e)
            continue;
        e->type = br.branch;
        e->target = br.takenTarget();
        BTBSIM_FAULT_POINT("ibtb_update_target",
                           e->target = br.takenTarget() + kInstBytes);
    }
}

void
InstructionBtb::prefill(const Instruction &br)
{
    if (table_.peek(br.pc))
        return; // Already tracked; do not disturb LRU.
    update(br, false);
    ++stats["prefills"];
}

OccupancySample
InstructionBtb::sampleOccupancy() const
{
    OccupancySample s;
    std::uint64_t n1 = 0, n2 = 0;
    table_.l1().forEach([&](Addr, const Entry &) { ++n1; });
    table_.l2().forEach([&](Addr, const Entry &) { ++n2; });
    s.l1_entries = n1;
    s.l2_entries = n2;
    s.l1_slot_occupancy = 1.0;
    s.l2_slot_occupancy = 1.0;
    s.l1_redundancy = 1.0;
    s.l2_redundancy = 1.0;
    return s;
}

} // namespace btbsim
