/**
 * @file
 * Differential checking decorator for BTB organizations.
 *
 * CheckedBtb wraps a real organization and validates every
 * PredictionBundle it produces against two kinds of evidence:
 *
 *  - Structural invariants of the bundle protocol and of each
 *    organization's window shape (segment geometry, slot ordering and
 *    alignment, always-taken blocks ending at the branch, MB-BTB chain
 *    seams summing to the entry reach, follow-slot seam consistency).
 *
 *  - Functional reference models (branch_history.h, reference.h): every
 *    exposed slot value must have been trained; I-BTB and R-BTB slots
 *    must carry the *latest* trained value (their updates write through
 *    to every live copy); and in eviction-free regimes the I-BTB and
 *    R-BTB must expose everything they were trained with.
 *
 * For an organization that looks its slots up at probe time (the I-BTB,
 * through bundle.lookup_org) the checker stands in as the lookup target
 * and checks every probed slot exactly: the level the lookup reports must
 * equal the residency peekLevel() read just before it, and a found entry
 * must be L1-resident just after it.
 *
 * On divergence the checker throws CheckFailure carrying the full
 * context (organization, cycle, access pc, bundle contents). Under
 * BTBSIM_CHECK=1 the exception fails only its sweep point, and the
 * experiment engine names its config, workload, trace_seed and run key;
 * the fuzzer catches it to shrink the failing case.
 *
 * The checker is an opt-in debugging tool: it assumes the stock
 * organization semantics, so wrapping a user-supplied custom BtbOrg may
 * report divergences that are simply different design decisions.
 */

#ifndef BTBSIM_CHECK_CHECKER_H
#define BTBSIM_CHECK_CHECKER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "check/branch_history.h"
#include "check/reference.h"
#include "core/btb_org.h"

namespace btbsim::check {

/** Thrown when a check fails; what() carries the full context report. */
class CheckFailure : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

class CheckedBtb final : public BtbOrg
{
  public:
    /** Wrap @p inner (not owned; must outlive the wrapper). */
    explicit CheckedBtb(BtbOrg &inner);

    /** Checker for @p inner when BTBSIM_CHECK is set, else null. */
    static std::unique_ptr<CheckedBtb> wrapFromEnv(BtbOrg &inner);

    /** Current cycle, for failure reports. */
    void setNow(Cycle now) { now_ = now; }

    std::uint64_t accessesChecked() const { return accesses_; }

    // ---- BtbOrg (validating forwarders) -----------------------------------
    void beginAccess(Addr pc, PredictionBundle &b) override;
    bool chainAccess(Addr pc, Addr target, PredictionBundle &b) override;
    int lookupSlot(Addr pc) override;
    void update(const Instruction &br, bool resteer) override;
    OccupancySample sampleOccupancy() const override
    {
        return inner_.sampleOccupancy();
    }
    const BtbConfig &config() const override { return inner_.config(); }
    int peekLevel(Addr key) const override { return inner_.peekLevel(key); }

  private:
    void trainTaken(const Instruction &br);
    void validateBundle(const PredictionBundle &b, bool chained);
    [[noreturn]] void fail(const PredictionBundle *b, const std::string &msg);

    BtbOrg &inner_;
    BranchHistory history_;
    std::optional<RefIbtb> ref_ibtb_;
    std::optional<RefRbtb> ref_rbtb_;

    Cycle now_ = 0;
    std::uint64_t accesses_ = 0;
    Addr access_pc_ = 0;
    /** The bundle of the current access, for lookupSlot() failure reports. */
    const PredictionBundle *bundle_ = nullptr;
};

} // namespace btbsim::check

#endif // BTBSIM_CHECK_CHECKER_H
