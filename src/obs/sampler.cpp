#include "obs/sampler.h"

namespace btbsim::obs {

void
Sampler::sample(const SampleSnapshot &cum)
{
    IntervalSample s;
    const double dc = static_cast<double>(cum.cycle - prev_.cycle);
    const double di =
        static_cast<double>(cum.instructions - prev_.instructions);
    const double dki = di / 1000.0;
    const double taken =
        static_cast<double>(cum.taken_branches - prev_.taken_branches);

    s.cycle = cum.cycle;
    s.instructions = cum.instructions - prev_.instructions;
    s.ipc = dc > 0 ? di / dc : 0.0;
    if (taken > 0) {
        const double l1 =
            static_cast<double>(cum.taken_l1_hits - prev_.taken_l1_hits);
        const double l2 =
            static_cast<double>(cum.taken_l2_hits - prev_.taken_l2_hits);
        s.l1_btb_hitrate = l1 / taken;
        s.btb_hitrate = (l1 + l2) / taken;
    }
    if (dki > 0) {
        s.branch_mpki = (cum.mispredicts - prev_.mispredicts) / dki;
        s.misfetch_pki = (cum.misfetches - prev_.misfetches) / dki;
        s.icache_mpki = (cum.icache_misses - prev_.icache_misses) / dki;
    }
    s.ftq_occupancy =
        dc > 0 ? (cum.ftq_occupancy_sum - prev_.ftq_occupancy_sum) / dc
               : 0.0;

    samples_.push_back(s);
    prev_ = cum;
    next_ = cum.cycle + interval_;
}

} // namespace btbsim::obs
