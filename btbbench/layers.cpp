/**
 * @file
 * The per-layer ledger of the traced run.
 *
 * Every layer is measured from outside, through its public calls: a span
 * is recorded around each timed call, or around a batch of calls where
 * one call is too short to time (well under a microsecond), and the
 * ledger counts the operations inside each span. A metric is the span
 * time under one leaf name divided by its operation count. Inputs are
 * the workload's own configurations and suite programs, so `limit`
 * measures idealistic tables and the ideal backend while `realistic`
 * measures the Table-1 structures.
 *
 * Which end-to-end metric each layer metric should move is listed in
 * README.md.
 */

#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "bpred/bpred_unit.h"
#include "core/btb_org.h"
#include "frontend/ftq.h"
#include "frontend/pcgen.h"
#include "memory/memhier.h"
#include "obs/span.h"
#include "sim/cpu.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

namespace btbbench {

using namespace btbsim;

namespace {

/** Instructions captured per suite workload for the call-level benches. */
constexpr std::size_t kStreamInsts = 60'000;
/** Calls per span where a single call is too short to time. */
constexpr std::size_t kBatch = 4096;
constexpr std::size_t kAccessBatch = 64;
constexpr std::uint64_t kCycleBatch = 256;

/** Defeats dead-code elimination of timed calls' results. */
volatile std::uint64_t g_sink = 0;

/** Operations performed inside each span leaf. */
using Ops = std::map<std::string, double>;

struct Inputs
{
    std::vector<Program> programs;
    std::vector<std::vector<Instruction>> streams;
};

/** trace: program generation and live interpretation. */
Inputs
traceLayer(const std::vector<WorkloadSpec> &suite, Ops &ops)
{
    Inputs in;
    for (const WorkloadSpec &spec : suite) {
        obs::ObsSpan span("trace.generate");
        in.programs.push_back(generateProgram(spec.params));
        ops["trace.generate"] += 1;
    }
    for (std::size_t w = 0; w < suite.size(); ++w) {
        SyntheticTrace src(in.programs[w], suite[w].trace_seed,
                           suite[w].name);
        std::vector<Instruction> &s = in.streams.emplace_back();
        s.reserve(kStreamInsts);
        while (s.size() < kStreamInsts) {
            obs::ObsSpan span("trace.next");
            for (std::size_t k = 0; k < kBatch && s.size() < kStreamInsts;
                 ++k)
                s.push_back(src.next());
        }
        ops["trace.next"] += static_cast<double>(s.size());
    }
    return in;
}

/** traceio: recording throughput, size, open and replay delivery. */
void
traceioLayer(const std::vector<WorkloadSpec> &suite, const Inputs &in,
             const fs::path &dir, Ops &ops, Metrics &out)
{
    fs::create_directories(dir);
    double payload_bytes = 0.0, insts = 0.0;
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const fs::path empty = dir / (suite[w].name + ".empty.btbt");
        const fs::path full = dir / (suite[w].name + ".btbt");
        traceio::TraceWriter(empty.string(), suite[w].name, &in.programs[w])
            .finish();
        {
            traceio::TraceWriter writer(full.string(), suite[w].name,
                                        &in.programs[w]);
            obs::ObsSpan span("traceio.record");
            for (const Instruction &i : in.streams[w])
                writer.append(i);
            writer.finish();
        }
        ops["traceio.record"] += static_cast<double>(in.streams[w].size());
        // The file also carries the serialized program image; the
        // per-instruction cost is what the stream adds on top of it.
        payload_bytes += static_cast<double>(fs::file_size(full)) -
                         static_cast<double>(fs::file_size(empty));
        insts += static_cast<double>(in.streams[w].size());

        std::unique_ptr<traceio::TraceReplaySource> replay;
        {
            obs::ObsSpan span("traceio.open");
            replay = std::make_unique<traceio::TraceReplaySource>(
                full.string());
        }
        ops["traceio.open"] += 1;
        std::uint64_t sink = 0;
        for (std::size_t n = 0; n < in.streams[w].size();) {
            obs::ObsSpan span("traceio.next");
            for (std::size_t k = 0; k < kBatch && n < in.streams[w].size();
                 ++k, ++n)
                sink += replay->next().pc;
        }
        g_sink = g_sink + sink;
        ops["traceio.next"] += static_cast<double>(in.streams[w].size());
    }
    out["traceio.bytes_per_inst"] = {payload_bytes / insts, "B/inst"};
}

/**
 * One BTB access along the committed stream starting at @p i, walked the
 * way PcGen walks it: probe each actual-path PC until the window ends or
 * a taken branch leaves it (following recorded or dynamic chains on a
 * correct target). Branches walked are queued for update().
 */
std::size_t
walkAccess(BtbOrg &org, const std::vector<Instruction> &s, std::size_t i,
           std::vector<std::pair<Instruction, bool>> &updates)
{
    PredictionBundle b;
    org.beginAccess(s[i].pc, b);
    const std::size_t start = i;
    for (unsigned guard = 0; guard < 256 && i < s.size(); ++guard) {
        const Instruction &in = s[i];
        const StepView v = b.probe(in.pc);
        if (v.kind == StepView::Kind::kEndOfWindow && i != start)
            break;
        ++i;
        if (!in.isBranch())
            continue;
        const bool hit = v.kind == StepView::Kind::kBranch &&
                         v.target == in.next_pc;
        updates.emplace_back(in, in.taken && !hit);
        if (!in.taken)
            continue;
        if (!(hit && v.follow && b.chain(org, in.pc, in.next_pc)))
            break;
    }
    b.finish(org);
    return i;
}

/** core: construction, access + bundle walk, and update per config. */
void
coreLayer(const std::vector<CpuConfig> &configs, const Inputs &in, Ops &ops)
{
    std::vector<std::pair<Instruction, bool>> updates;
    for (const CpuConfig &cfg : configs) {
        std::unique_ptr<BtbOrg> org;
        {
            obs::ObsSpan span("core.ctor");
            org = makeBtb(cfg.btb);
        }
        ops["core.ctor"] += 1;
        for (const std::vector<Instruction> &s : in.streams) {
            for (std::size_t i = 0; i < s.size();) {
                std::size_t accesses = 0;
                {
                    obs::ObsSpan span("core.access");
                    for (; accesses < kAccessBatch && i < s.size();
                         ++accesses)
                        i = walkAccess(*org, s, i, updates);
                }
                ops["core.access"] += static_cast<double>(accesses);
                {
                    obs::ObsSpan span("core.update");
                    for (const auto &[br, resteer] : updates)
                        org->update(br, resteer);
                }
                ops["core.update"] += static_cast<double>(updates.size());
                updates.clear();
            }
        }
    }
}

/** sim: Cpu construction per config (source opening excluded). */
void
simLayer(const std::vector<CpuConfig> &configs,
         const std::vector<WorkloadSpec> &suite, const Inputs &in, Ops &ops)
{
    for (const CpuConfig &cfg : configs) {
        SyntheticTrace src(in.programs.front(), suite.front().trace_seed,
                           suite.front().name);
        std::unique_ptr<Cpu> cpu;
        {
            obs::ObsSpan span("sim.ctor");
            cpu = std::make_unique<Cpu>(cfg, src);
        }
        ops["sim.ctor"] += 1;
    }
}

/** bpred: direction and indirect-target predict+train calls. */
void
bpredLayer(const CpuConfig &cfg, const Inputs &in, Ops &ops)
{
    BPredUnit bp(cfg.bpred);
    std::uint64_t sink = 0;
    for (const std::vector<Instruction> &s : in.streams) {
        for (std::size_t b = 0; b < s.size(); b += kBatch) {
            const std::size_t e = std::min(s.size(), b + kBatch);
            std::size_t conds = 0, indirects = 0;
            {
                obs::ObsSpan span("bpred.predict");
                for (std::size_t i = b; i < e; ++i)
                    if (s[i].branch == BranchClass::kCondDirect) {
                        sink += bp.predictDirection(s[i].pc, s[i].taken);
                        ++conds;
                    }
            }
            {
                obs::ObsSpan span("bpred.indirect");
                for (std::size_t i = b; i < e; ++i)
                    if (isIndirect(s[i].branch) &&
                        s[i].branch != BranchClass::kReturn) {
                        sink += bp.predictIndirect(s[i].pc, s[i].next_pc);
                        ++indirects;
                    }
            }
            ops["bpred.predict"] += static_cast<double>(conds);
            ops["bpred.indirect"] += static_cast<double>(indirects);
        }
    }
    g_sink = g_sink + sink;
}

/** memory: I-side line fetches, loads and stores, one cycle per
 *  instruction. */
void
memoryLayer(const CpuConfig &cfg, const Inputs &in, Ops &ops)
{
    MemHier mem(cfg.mem);
    Cycle base = 1;
    std::uint64_t sink = 0;
    for (const std::vector<Instruction> &s : in.streams) {
        Addr last_line = ~Addr{0};
        for (std::size_t b = 0; b < s.size(); b += kBatch) {
            const std::size_t e = std::min(s.size(), b + kBatch);
            std::size_t fetches = 0, loads = 0, stores = 0;
            {
                obs::ObsSpan span("memory.fetch");
                for (std::size_t i = b; i < e; ++i) {
                    const Addr line = alignDown(s[i].pc, kLineBytes);
                    if (line == last_line)
                        continue;
                    last_line = line;
                    sink += mem.fetchLine(s[i].pc, base + i);
                    ++fetches;
                }
            }
            {
                obs::ObsSpan span("memory.load");
                for (std::size_t i = b; i < e; ++i)
                    if (s[i].isLoad()) {
                        sink += mem.load(s[i].pc, s[i].mem_addr, base + i);
                        ++loads;
                    }
            }
            {
                obs::ObsSpan span("memory.store");
                for (std::size_t i = b; i < e; ++i)
                    if (s[i].isStore()) {
                        mem.store(s[i].mem_addr, base + i);
                        ++stores;
                    }
            }
            ops["memory.fetch"] += static_cast<double>(fetches);
            ops["memory.load"] += static_cast<double>(loads);
            ops["memory.store"] += static_cast<double>(stores);
        }
        base += s.size();
    }
    g_sink = g_sink + sink;
}

/** frontend: PcGen::runCycle with a real organization, BPredUnit and
 *  Ftq; the FTQ is drained and resteers resolved every cycle. */
void
frontendLayer(const std::vector<CpuConfig> &configs,
              const std::vector<WorkloadSpec> &suite, const Inputs &in,
              Ops &ops)
{
    for (const CpuConfig &cfg : configs) {
        std::unique_ptr<BtbOrg> org = makeBtb(cfg.btb);
        BPredUnit bp(cfg.bpred);
        Ftq ftq(cfg.ftq_entries);
        Cycle now = 0;
        for (std::size_t w = 0; w < suite.size(); ++w) {
            SyntheticTrace src(in.programs[w], suite[w].trace_seed,
                               suite[w].name);
            PcGen pg(*org, bp, src, ftq);
            while (pg.stats.fetch_pcs < kStreamInsts) {
                obs::ObsSpan span("frontend.cycle");
                for (std::uint64_t c = 0; c < kCycleBatch; ++c) {
                    pg.runCycle(++now);
                    ftq.clear();
                    if (pg.waitingResteer())
                        pg.resteerResolved(now);
                }
                ops["frontend.cycle"] += kCycleBatch;
            }
            ftq.clear();
        }
    }
}

/** backend: allocate (up to the core's allocation width) plus runCycle
 *  per cycle, fed with the committed stream. */
void
backendLayer(const CpuConfig &cfg, const Inputs &in, Ops &ops)
{
    for (const std::vector<Instruction> &s : in.streams) {
        MemHier mem(cfg.mem);
        Backend be(cfg.backend, mem);
        std::size_t i = 0;
        Cycle now = 0;
        const Cycle guard = 400 * s.size() + 100'000;
        while (be.committed() < s.size()) {
            if (now > guard)
                throw std::runtime_error("backend bench stopped committing");
            obs::ObsSpan span("backend.cycle");
            for (std::uint64_t c = 0; c < kCycleBatch; ++c) {
                be.runCycle(++now);
                for (unsigned n = 0; n < cfg.alloc_width && i < s.size() &&
                                     be.canAllocate();
                     ++n) {
                    DynInst d;
                    d.in = s[i];
                    d.seq = ++i;
                    be.allocate(std::move(d), now);
                }
            }
            ops["backend.cycle"] += kCycleBatch;
        }
    }
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

} // namespace

void
engineMetrics(const PassRun &p, Metrics &out)
{
    double runone = 0.0;
    for (const PointRun &pt : p.points)
        runone += pt.wall_s;
    const double n = static_cast<double>(std::max<std::size_t>(
        p.points.size(), 1));
    out["exp.worker_util"] = {
        p.workers && p.engine_wall_s > 0
            ? p.busy_s / (p.workers * p.engine_wall_s)
            : 0.0,
        "ratio"};
    out["exp.engine_overhead_ms"] = {(p.busy_s - runone) / n * 1e3, "ms"};
    out["obs.export_ms"] = {p.export_s * 1e3, "ms"};
}

void
passLayerMetrics(const PassRun &p, Metrics &out)
{
    double run = 0.0, cycles = 0.0;
    std::vector<double> overhead, hit, l1hit, pcs, mpki, impki, misf, taken;
    for (const PointRun &pt : p.points) {
        run += pt.run_s;
        cycles += pt.sim_cycles;
        overhead.push_back(pt.wall_s - pt.run_s);
        hit.push_back(pt.stats.btb_hitrate);
        l1hit.push_back(pt.stats.l1_btb_hitrate);
        pcs.push_back(pt.stats.fetch_pcs_per_access);
        mpki.push_back(pt.stats.branch_mpki);
        impki.push_back(pt.stats.icache_mpki);
        misf.push_back(pt.stats.misfetch_pki);
        taken.push_back(pt.stats.taken_per_ki);
    }
    out["sim.run_s"] = {run, "s"};
    out["sim.host_ns_per_cycle"] = {cycles > 0 ? run / cycles * 1e9 : 0.0,
                                    "ns"};
    out["sim.point_overhead_ms"] = {mean(overhead) * 1e3, "ms"};
    out["core.btb_hitrate"] = {mean(hit), "ratio"};
    out["core.l1_btb_hitrate"] = {mean(l1hit), "ratio"};
    out["core.fetch_pcs_per_access"] = {mean(pcs), "count"};
    out["bpred.branch_mpki"] = {mean(mpki), "1/ki"};
    out["memory.icache_mpki"] = {mean(impki), "1/ki"};
    out["frontend.misfetch_pki"] = {mean(misf), "1/ki"};
    out["frontend.taken_per_ki"] = {mean(taken), "1/ki"};
    if (p.workers)
        engineMetrics(p, out);
}

void
measureLayers(Workbench &bench, const fs::path &dir, Metrics &out)
{
    obs::SpanCollector &spans = obs::SpanCollector::instance();
    const obs::SpanCollector::ThreadMark mark = spans.mark();
    Ops ops;

    const std::vector<CpuConfig> &configs = bench.configs();
    const std::vector<WorkloadSpec> &suite = bench.suite();
    const Inputs in = traceLayer(suite, ops);
    traceioLayer(suite, in, dir / "traceio", ops, out);
    simLayer(configs, suite, in, ops);
    coreLayer(configs, in, ops);
    bpredLayer(configs.front(), in, ops);
    memoryLayer(configs.front(), in, ops);
    frontendLayer(configs, suite, in, ops);
    backendLayer(configs.front(), in, ops);

    std::map<std::string, double> ns;
    for (const auto &[path, agg] : spans.aggregateSince(mark)) {
        const std::size_t slash = path.rfind('/');
        ns[slash == std::string::npos ? path : path.substr(slash + 1)] +=
            static_cast<double>(agg.wall_ns);
    }
    auto perOp = [&](const char *leaf, double scale, const char *unit,
                     const char *metric) {
        const double n = ops[leaf];
        out[metric] = {n > 0 ? ns[leaf] / n * scale : 0.0, unit};
    };
    perOp("trace.generate", 1e-6, "ms", "trace.generate_ms");
    perOp("trace.next", 1.0, "ns", "trace.next_ns");
    perOp("traceio.open", 1e-6, "ms", "traceio.open_ms");
    perOp("traceio.next", 1.0, "ns", "traceio.next_ns");
    const double rec_ns = ns["traceio.record"];
    out["traceio.record_mips"] = {
        rec_ns > 0 ? ops["traceio.record"] / rec_ns * 1e3 : 0.0, "Minst/s"};
    perOp("sim.ctor", 1e-6, "ms", "sim.ctor_ms");
    perOp("core.ctor", 1e-6, "ms", "core.ctor_ms");
    perOp("core.access", 1.0, "ns", "core.access_ns");
    perOp("core.update", 1.0, "ns", "core.update_ns");
    perOp("bpred.predict", 1.0, "ns", "bpred.predict_ns");
    perOp("bpred.indirect", 1.0, "ns", "bpred.indirect_ns");
    perOp("memory.fetch", 1.0, "ns", "memory.fetch_ns");
    perOp("memory.load", 1.0, "ns", "memory.load_ns");
    perOp("memory.store", 1.0, "ns", "memory.store_ns");
    perOp("frontend.cycle", 1.0, "ns", "frontend.cycle_ns");
    perOp("backend.cycle", 1.0, "ns", "backend.cycle_ns");
}

} // namespace btbbench
