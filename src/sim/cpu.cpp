#include "sim/cpu.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/checker.h"

namespace btbsim {

namespace {

/** @return @p cfg, or throw std::invalid_argument naming the first
 *  cpu.<field> that would let the frontend deliver nothing. */
const CpuConfig &
validated(const CpuConfig &cfg)
{
    const std::pair<const char *, unsigned> sizes[] = {
        {"ftq_entries", cfg.ftq_entries},   {"decode_queue", cfg.decode_queue},
        {"alloc_queue", cfg.alloc_queue},   {"fetch_width", cfg.fetch_width},
        {"fetch_lines", cfg.fetch_lines},   {"decode_width", cfg.decode_width},
        {"alloc_width", cfg.alloc_width},
    };
    for (const auto &[field, v] : sizes)
        if (v == 0)
            throw std::invalid_argument("cpu." + std::string(field) +
                                        " = 0: must be >= 1");
    return cfg;
}

} // namespace

Cpu::Cpu(const CpuConfig &cfg, TraceSource &trace)
    : Cpu(cfg, trace, makeBtb(cfg.btb))
{}

Cpu::Cpu(const CpuConfig &cfg, TraceSource &trace,
         std::unique_ptr<BtbOrg> org)
    : cfg_(validated(cfg)), mem_(cfg.mem), bpred_(cfg.bpred),
      org_(std::move(org)),
      checked_(check::CheckedBtb::wrapFromEnv(*org_)),
      ftq_(cfg.ftq_entries),
      // The frontend drives the checker when enabled, else the
      // organization itself.
      pcgen_(checked_ ? static_cast<BtbOrg &>(*checked_) : *org_, bpred_,
             trace, ftq_),
      backend_(cfg.backend, mem_)
{
    stats_.config = org_->config().name();
    stats_.workload = trace.name();
}

Cpu::~Cpu() = default;

void
Cpu::fetchIssue()
{
    unsigned issues = 0;
    // Entries before firstUnissued() are all issued; start past them.
    for (std::size_t i = ftq_.firstUnissued();
         i < ftq_.size() && issues < cfg_.fetch_lines; ++i) {
        FtqEntry &e = ftq_.entry(i);
        if (e.min_issue_cycle > now_)
            break; // Younger entries cannot be earlier.
        e.data_ready = mem_.fetchLine(e.line, now_);
        e.issued = true;
        ftq_.noteIssued();
        ++issues;
    }
}

void
Cpu::deliver()
{
    unsigned instrs = 0;
    unsigned lines_used = 0;
    unsigned used_interleaves = 0;
    Addr prev_line = 0;

    while (!ftq_.empty() && instrs < cfg_.fetch_width &&
           delivered_ - decoded_ < cfg_.decode_queue) {
        FtqEntry &e = ftq_.front();
        if (!e.issued || e.data_ready > now_)
            break; // In-order delivery.
        // Consecutive entries for the same line share one data-array
        // read: only a *new* line consumes a line slot and must land in
        // a fresh interleave.
        if (lines_used == 0 || e.line != prev_line) {
            const unsigned il = mem_.icacheInterleave(e.line);
            if (used_interleaves & (1u << il))
                break; // Same-interleave conflict this cycle.
            if (lines_used >= cfg_.fetch_lines)
                break;
            used_interleaves |= (1u << il);
            ++lines_used;
            prev_line = e.line;
        }

        const std::uint64_t n = std::min<std::uint64_t>(
            {e.end_seq - delivered_, cfg_.fetch_width - instrs,
             cfg_.decode_queue - (delivered_ - decoded_)});
        delivered_ += n;
        instrs += static_cast<unsigned>(n);
        if (delivered_ < e.end_seq)
            break; // Width or decode-queue room ran out mid-entry.
        ftq_.popFront();
    }
}

void
Cpu::decode()
{
    for (unsigned n = 0; decoded_ < delivered_ && n < cfg_.decode_width &&
                         decoded_ - allocated_ < cfg_.alloc_queue;
         ++n) {
        DynInst &d = ftq_.inst(++decoded_);
        d.decode_cycle = now_;
        if (d.resteer == Resteer::kDecode)
            pcgen_.resteerResolved(now_);
    }
}

void
Cpu::allocate()
{
    for (unsigned n = 0; allocated_ < decoded_ && n < cfg_.alloc_width &&
                         backend_.canAllocate();
         ++n) {
        const DynInst &d = ftq_.inst(allocated_ + 1);
        if (d.decode_cycle >= now_)
            break; // Decoded this cycle; allocate next cycle.
        backend_.allocate(d, now_);
        ftq_.release(++allocated_);
    }
}

void
Cpu::step()
{
    ++now_;
    if (checked_)
        checked_->setNow(now_);
    if (backend_.takeExecResteer(now_) != 0)
        pcgen_.resteerResolved(now_);
    backend_.runCycle(now_);
    allocate();
    decode();
    deliver();
    pcgen_.runCycle(now_);
    fetchIssue();
}

void
Cpu::guardedStep(Cycle guard)
{
    step();
    if (now_ <= guard)
        return;
    throw std::runtime_error(
        "btbsim: deadlock guard hit: config " + stats_.config +
        ", workload " + stats_.workload + ", cycle " + std::to_string(now_) +
        ", committed " + std::to_string(backend_.committed()) +
        "; FTQ entries " + std::to_string(ftq_.size()) + ", decode queue " +
        std::to_string(delivered_ - decoded_) + ", alloc queue " +
        std::to_string(decoded_ - allocated_) + ", ROB " +
        std::to_string(backend_.robOccupancy()) + ", PcGen " +
        (pcgen_.waitingResteer() ? "waiting on" : "not waiting on") +
        " a resteer");
}

void
Cpu::sampleStructures()
{
    const OccupancySample s = org_->sampleOccupancy();
    occ_accum_.l1_slot_occupancy += s.l1_slot_occupancy;
    occ_accum_.l2_slot_occupancy += s.l2_slot_occupancy;
    occ_accum_.l1_redundancy += s.l1_redundancy;
    occ_accum_.l2_redundancy += s.l2_redundancy;
    occ_samples_ += 1.0;
}

void
Cpu::run(std::uint64_t warmup, std::uint64_t measure)
{
    // ---- warmup ----------------------------------------------------------
    // Deadlock guard: no run legitimately averages 400 cycles per inst.
    const Cycle guard = (warmup + measure) * 400 + 1'000'000;
    while (backend_.committed() < warmup)
        guardedStep(guard);

    // ---- snapshot --------------------------------------------------------
    const Cycle cycles0 = now_;
    const std::uint64_t insts0 = backend_.committed();
    const PcGenStats pg0 = pcgen_.stats;
    const std::uint64_t i_miss0 = mem_.l1i().demandMisses();

    // ---- measure ---------------------------------------------------------
    const std::uint64_t sample_period = 1'000'000;
    std::uint64_t next_sample = insts0 + sample_period;
    const std::uint64_t end = insts0 + measure;
    obs::Sampler sampler(sample_interval_);
    ftq_occ_sum_ = 0.0;
    while (backend_.committed() < end) {
        guardedStep(guard);
        ftq_occ_sum_ += static_cast<double>(ftq_.size());
        if (backend_.committed() >= next_sample) {
            sampleStructures();
            next_sample += sample_period;
        }
        if (sampler.due(now_ - cycles0))
            sampler.sample(sampleSnapshot(cycles0, insts0, pg0, i_miss0));
    }
    if (occ_samples_ == 0.0)
        sampleStructures();
    stats_.sample_interval = sampler.interval();
    stats_.samples = sampler.take();

    // ---- reduce ----------------------------------------------------------
    const PcGenStats &pg = pcgen_.stats;
    const double insts =
        static_cast<double>(backend_.committed() - insts0);
    const double cycles = static_cast<double>(now_ - cycles0);
    const double ki = insts / 1000.0;

    stats_.instructions = backend_.committed() - insts0;
    stats_.cycles = now_ - cycles0;
    stats_.ipc = insts / cycles;
    stats_.branch_mpki = (pg.mispredicts - pg0.mispredicts) / ki;
    stats_.misfetch_pki = (pg.misfetches - pg0.misfetches) / ki;
    stats_.combined_mpki = stats_.branch_mpki + stats_.misfetch_pki;

    const double conds = static_cast<double>(pg.cond_branches - pg0.cond_branches);
    stats_.cond_mispredict_rate = conds > 0
        ? (pg.cond_mispredicts - pg0.cond_mispredicts) / conds : 0.0;

    const double taken =
        static_cast<double>(pg.taken_branches - pg0.taken_branches);
    stats_.taken_per_ki = taken / ki;
    stats_.l1_btb_hitrate = taken > 0
        ? (pg.taken_l1_hits - pg0.taken_l1_hits) / taken : 0.0;
    stats_.btb_hitrate = taken > 0
        ? ((pg.taken_l1_hits - pg0.taken_l1_hits) +
           (pg.taken_l2_hits - pg0.taken_l2_hits)) / taken
        : 0.0;

    const double accesses = static_cast<double>(pg.accesses - pg0.accesses);
    stats_.fetch_pcs_per_access = accesses > 0
        ? (pg.fetch_pcs - pg0.fetch_pcs) / accesses : 0.0;

    const double branches = static_cast<double>(pg.branches - pg0.branches);
    stats_.avg_dyn_bb_size = branches > 0 ? insts / branches : 0.0;

    stats_.icache_mpki = (mem_.l1i().demandMisses() - i_miss0) / ki;

    if (occ_samples_ > 0) {
        stats_.l1_slot_occupancy = occ_accum_.l1_slot_occupancy / occ_samples_;
        stats_.l2_slot_occupancy = occ_accum_.l2_slot_occupancy / occ_samples_;
        stats_.l1_redundancy = occ_accum_.l1_redundancy / occ_samples_;
        stats_.l2_redundancy = occ_accum_.l2_redundancy / occ_samples_;
    }

    harvestCounters();
}

obs::SampleSnapshot
Cpu::sampleSnapshot(Cycle cycles0, std::uint64_t insts0,
                    const PcGenStats &pg0, std::uint64_t i_miss0) const
{
    const PcGenStats &pg = pcgen_.stats;
    obs::SampleSnapshot s;
    s.cycle = now_ - cycles0;
    s.instructions = backend_.committed() - insts0;
    s.taken_branches = pg.taken_branches - pg0.taken_branches;
    s.taken_l1_hits = pg.taken_l1_hits - pg0.taken_l1_hits;
    s.taken_l2_hits = pg.taken_l2_hits - pg0.taken_l2_hits;
    s.mispredicts = pg.mispredicts - pg0.mispredicts;
    s.misfetches = pg.misfetches - pg0.misfetches;
    s.icache_misses = mem_.l1i().demandMisses() - i_miss0;
    s.ftq_occupancy_sum = ftq_occ_sum_;
    return s;
}

void
Cpu::harvestCounters()
{
    std::map<std::string, double> &out = stats_.counters;
    out.clear();
    exportCounters(out, "pcgen", pcgen_.stats);
    exportCounters(out, "btb", org_->counters);

    auto cache = [&out](const std::string &name, const Cache &c) {
        out[name + ".demand_accesses"] =
            static_cast<double>(c.demandAccesses());
        out[name + ".demand_misses"] = static_cast<double>(c.demandMisses());
        exportCounters(out, name, c.counters);
    };
    cache("l1i", mem_.l1i());
    cache("l1d", mem_.l1d());
    cache("l2", mem_.l2());
    cache("llc", mem_.llc());
    out["dram.accesses"] = static_cast<double>(mem_.dram().accesses());
    out["backend.committed"] = static_cast<double>(backend_.committed());
    out["ftq.capacity"] = static_cast<double>(ftq_.capacity());
    if (stats_.cycles > 0)
        out["ftq.occupancy"] =
            ftq_occ_sum_ / static_cast<double>(stats_.cycles);
}

} // namespace btbsim
