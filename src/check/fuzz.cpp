#include "check/fuzz.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/checker.h"
#include "core/btb_org.h"
#include "exp/config_json.h"
#include "obs/json.h"
#include "trace/generator.h"
#include "trace/synthetic_trace.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

namespace btbsim::check {

namespace {

/** xorshift64*: tiny, seedable, and not shared with the simulator's own
 *  Rng so fuzzing choices never perturb simulation determinism. */
struct FuzzRng
{
    std::uint64_t s;

    explicit FuzzRng(std::uint64_t seed)
        : s(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
    bool chance(unsigned pct) { return below(100) < pct; }
};

/** Random configuration biased toward tiny geometries: a handful of sets
 *  and ways means constant evictions, displacements and L2 fills, which
 *  is where the interesting bookkeeping lives. */
BtbConfig
randomConfig(FuzzRng &rng)
{
    BtbConfig b;
    switch (rng.below(5)) {
    case 0: b.kind = BtbKind::kInstruction; break;
    case 1: b.kind = BtbKind::kRegion; break;
    case 2: b.kind = BtbKind::kBlock; break;
    case 3: b.kind = BtbKind::kMultiBlock; break;
    default: b.kind = BtbKind::kHetero; break;
    }

    b.branch_slots = 1 + static_cast<unsigned>(rng.below(4));
    b.width = 4 * (1 + static_cast<unsigned>(rng.below(4)));
    b.skip_taken = b.kind == BtbKind::kInstruction && rng.chance(40);
    b.region_bytes = 32u << rng.below(3);
    b.dual_region = rng.chance(40);
    b.reach_instrs = 8u << rng.below(3);
    b.split = rng.chance(50);
    b.cond_ends_block = rng.chance(25);
    static constexpr PullPolicy kPulls[] = {
        PullPolicy::kNone,
        PullPolicy::kUncondDir,
        PullPolicy::kCallDir,
        PullPolicy::kAllBr,
    };
    b.pull = kPulls[rng.below(4)];
    b.stability_threshold = 1 + static_cast<unsigned>(rng.below(8));
    b.allow_last_slot_pull = rng.chance(25);

    b.l1.sets = 1u << rng.below(5);
    b.l1.ways = 1u << rng.below(3);
    b.l2.sets = 1u << (1 + rng.below(5));
    b.l2.ways = 1 + static_cast<unsigned>(rng.below(4));
    b.ideal = rng.chance(12);
    b.l2_penalty = static_cast<unsigned>(rng.below(4));
    return b;
}

} // namespace

FuzzCase
randomCase(std::uint64_t seed, std::uint64_t trace_insts)
{
    FuzzRng rng(seed * 0x9e3779b97f4a7c15ull + 0x6c62272e07bb0142ull);

    FuzzCase c;
    c.seed = seed;
    c.name = "fuzz-" + std::to_string(seed);
    c.btb = randomConfig(rng);

    GenParams gp;
    gp.seed = rng.next() | 1;
    // Small footprint: enough static branches to oversubscribe the tiny
    // tables above many times over, small enough to revisit PCs often.
    gp.target_static_insts = 1024u << rng.below(3);
    gp.num_handlers = 2 + static_cast<std::uint32_t>(rng.below(5));
    // Fresh params every case: sharedProgram() would only grow its memo.
    auto prog = std::make_shared<Program>(generateProgram(gp));

    SyntheticTrace trace(*prog, rng.next() | 1, c.name);
    c.insts.reserve(trace_insts);
    for (std::uint64_t i = 0; i < trace_insts; ++i)
        c.insts.push_back(trace.next());
    c.program = std::move(prog);
    return c;
}

std::optional<FuzzFailure>
runCase(const FuzzCase &c)
{
    auto org = makeBtb(c.btb);
    CheckedBtb checker(*org);

    std::size_t i = 0;
    try {
        PredictionBundle b;
        bool open = false;
        Addr next_pc = 0;
        // Updates are deferred to the end of the access, as the pipeline
        // delays them past the in-flight bundle (and the residency
        // cross-check assumes mid-access probes see an unmutated table
        // unless marked dirty).
        std::vector<std::pair<Instruction, bool>> deferred;

        const auto closeAccess = [&] {
            if (!open)
                return;
            b.finish(checker);
            open = false;
            for (const auto &[br, resteer] : deferred)
                checker.update(br, resteer);
            deferred.clear();
        };

        while (i < c.insts.size()) {
            const Instruction &in = c.insts[i];

            // A PC discontinuity (spliced shrink candidate, or a resteer
            // we signalled last iteration) starts a fresh access — this
            // is what makes every subsequence of the stream a valid
            // input, so shrinking needs no control-flow repair.
            if (open && in.pc != next_pc)
                closeAccess();

            bool fresh = false;
            if (!open) {
                b = PredictionBundle{};
                checker.beginAccess(in.pc, b);
                open = true;
                fresh = true;
            }

            StepView v = b.probe(in.pc);
            if (v.kind == StepView::Kind::kEndOfWindow) {
                closeAccess();
                if (!fresh)
                    continue; // Retry this PC on a fresh access.
                // A fresh access refusing its own start PC (probe budget
                // exhausted never applies here, but an empty window can):
                // consume the instruction unpredicted to guarantee
                // progress.
                ++i;
                next_pc = in.next_pc;
                continue;
            }

            bool end_access = false;
            if (in.isBranch()) {
                bool resteer = false;
                if (v.kind == StepView::Kind::kBranch) {
                    if (in.taken) {
                        if (v.target != in.takenTarget()) {
                            // Stale target: the frontend would misfetch.
                            resteer = true;
                            end_access = true;
                        } else if (v.follow) {
                            if (!b.chain(checker, in.pc, in.takenTarget()))
                                end_access = true;
                        } else {
                            end_access = true;
                        }
                    } else if (v.end_on_not_taken) {
                        end_access = true;
                    }
                } else if (in.taken) {
                    // Taken branch the BTB did not track: misfetch.
                    resteer = true;
                    end_access = true;
                }
                deferred.emplace_back(in, resteer);
            }

            ++i;
            next_pc = in.next_pc;
            if (end_access)
                closeAccess();
        }
        closeAccess();
    } catch (const CheckFailure &e) {
        std::size_t at = c.insts.empty() ? 0 : std::min(i, c.insts.size() - 1);
        return FuzzFailure{at, e.what()};
    }
    return std::nullopt;
}

namespace {

/** Truncate @p c right after its failure index: nothing past it can
 *  matter (the walk is strictly sequential). */
void
truncateAtFailure(FuzzCase &c, const FuzzFailure &f)
{
    if (f.index + 1 < c.insts.size())
        c.insts.resize(f.index + 1);
}

/** Re-run @p c with @p candidate as its stream; on failure adopt the
 *  candidate (and the possibly different failure) and return true. */
bool
tryStream(FuzzCase &c, std::vector<Instruction> candidate, FuzzFailure &fail)
{
    FuzzCase t = c;
    t.insts = std::move(candidate);
    if (auto f = runCase(t)) {
        c.insts = std::move(t.insts);
        fail = *f;
        truncateAtFailure(c, fail);
        return true;
    }
    return false;
}

} // namespace

ShrinkResult
shrinkCase(const FuzzCase &c, const FuzzFailure &failure)
{
    ShrinkResult r;
    r.reduced = c;
    r.failure = failure;
    truncateAtFailure(r.reduced, r.failure);

    bool changed = true;
    while (changed && r.rounds < 32) {
        ++r.rounds;
        changed = false;

        // ddmin over the instruction stream: delete chunks, halving the
        // granularity down to single instructions.
        for (std::size_t gran =
                 std::max<std::size_t>(1, r.reduced.insts.size() / 2);
             ;) {
            for (std::size_t at = 0;
                 at + gran <= r.reduced.insts.size() &&
                 r.reduced.insts.size() > 1;) {
                std::vector<Instruction> cand;
                cand.reserve(r.reduced.insts.size() - gran);
                cand.insert(cand.end(), r.reduced.insts.begin(),
                            r.reduced.insts.begin() +
                                static_cast<std::ptrdiff_t>(at));
                cand.insert(cand.end(),
                            r.reduced.insts.begin() +
                                static_cast<std::ptrdiff_t>(at + gran),
                            r.reduced.insts.end());
                if (tryStream(r.reduced, std::move(cand), r.failure)) {
                    // The chunk was irrelevant; the same position now
                    // holds fresh content, so do not advance.
                    changed = true;
                } else {
                    at += gran;
                }
            }
            if (gran == 1)
                break;
            gran = std::max<std::size_t>(1, gran / 2);
        }

        // Configuration simplification: each knob reverts to its most
        // boring value if the failure survives.
        const auto trySimplify = [&](auto &&mutate) {
            FuzzCase t = r.reduced;
            mutate(t.btb);
            if (t.btb == r.reduced.btb)
                return;
            if (auto f = runCase(t)) {
                r.reduced.btb = t.btb;
                r.failure = *f;
                truncateAtFailure(r.reduced, r.failure);
                changed = true;
            }
        };
        trySimplify([](BtbConfig &b) { b.dual_region = false; });
        trySimplify([](BtbConfig &b) { b.skip_taken = false; });
        trySimplify([](BtbConfig &b) { b.split = false; });
        trySimplify([](BtbConfig &b) { b.cond_ends_block = false; });
        trySimplify([](BtbConfig &b) { b.allow_last_slot_pull = false; });
        trySimplify([](BtbConfig &b) { b.pull = PullPolicy::kNone; });
        trySimplify([](BtbConfig &b) { b.ideal = false; });
        trySimplify([](BtbConfig &b) { b.l2_penalty = 0; });
        trySimplify([](BtbConfig &b) { b.width = 4; });
        trySimplify([](BtbConfig &b) { b.branch_slots = 1; });
        trySimplify([](BtbConfig &b) { b.reach_instrs = 8; });
    }
    return r;
}

std::string
reproConfigPath(const std::string &trace_path)
{
    return trace_path + ".json";
}

void
writeRepro(const FuzzCase &c, const std::string &trace_path)
{
    {
        traceio::TraceWriter w(trace_path, c.name, c.program.get());
        for (const Instruction &in : c.insts)
            w.append(in);
        // TraceReplaySource rewrites the recording's final instruction
        // into a jump to the head unless it already is one (its wrap
        // seam). Append a sentinel that satisfies the seam so the real
        // stream survives the round trip untouched; loadRepro drops it.
        if (!c.insts.empty()) {
            Instruction seam;
            seam.pc = c.insts.back().next_pc;
            seam.next_pc = c.insts.front().pc;
            seam.cls = InstClass::kBranch;
            seam.branch = BranchClass::kUncondDirect;
            seam.taken = true;
            w.append(seam);
        }
        w.finish();
    }
    const std::string cfg_path = reproConfigPath(trace_path);
    std::ofstream os(cfg_path);
    if (!os)
        throw std::runtime_error("cannot write " + cfg_path);
    obs::JsonWriter jw(os);
    exp::writeBtbConfigJson(jw, c.btb);
    os << "\n";
    if (!os)
        throw std::runtime_error("write failed: " + cfg_path);
}

FuzzCase
loadRepro(const std::string &trace_path)
{
    FuzzCase c;

    const std::string cfg_path = reproConfigPath(trace_path);
    std::ifstream is(cfg_path);
    if (!is)
        throw std::runtime_error("missing repro config " + cfg_path);
    std::ostringstream ss;
    ss << is.rdbuf();
    c.btb = exp::btbConfigFromJson(obs::parseJson(ss.str()));

    traceio::TraceReplaySource src(trace_path);
    const std::uint64_t n = src.instructionCount();
    if (n < 2)
        throw std::runtime_error("empty repro trace " + trace_path);
    c.insts.reserve(static_cast<std::size_t>(n - 1));
    for (std::uint64_t i = 0; i < n; ++i)
        c.insts.push_back(src.next());
    c.insts.pop_back(); // The writeRepro() wrap-seam sentinel.
    if (const Program *p = src.codeImage())
        c.program = std::make_shared<Program>(*p);
    c.name = src.name();
    return c;
}

} // namespace btbsim::check
