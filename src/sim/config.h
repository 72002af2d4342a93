/**
 * @file
 * Full processor configuration (Table 1 defaults).
 */

#ifndef BTBSIM_SIM_CONFIG_H
#define BTBSIM_SIM_CONFIG_H

#include "backend/backend.h"
#include "bpred/bpred_unit.h"
#include "core/btb_config.h"
#include "memory/memhier.h"

namespace btbsim {

/** Everything needed to instantiate a Cpu. */
struct CpuConfig
{
    BtbConfig btb = BtbConfig::ibtb(16);
    BPredConfig bpred;
    MemConfig mem;
    BackendConfig backend;

    unsigned ftq_entries = 64;
    unsigned decode_queue = 64;
    unsigned alloc_queue = 64;
    unsigned fetch_width = 16;       ///< Instructions delivered per cycle.
    unsigned fetch_lines = 8;        ///< Distinct-interleave lines per cycle.
    unsigned decode_width = 16;
    unsigned alloc_width = 16;

    /** Ideal-backend variant of this configuration (Fig. 11a). */
    CpuConfig
    withIdealBackend() const
    {
        CpuConfig c = *this;
        c.backend = BackendConfig::idealBackend();
        return c;
    }

    bool operator==(const CpuConfig &) const = default;
};

} // namespace btbsim

#endif // BTBSIM_SIM_CONFIG_H
