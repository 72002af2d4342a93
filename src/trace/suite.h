/**
 * @file
 * The calibrated workload suite standing in for the CVP-1 server traces.
 */

#ifndef BTBSIM_TRACE_SUITE_H
#define BTBSIM_TRACE_SUITE_H

#include <memory>
#include <string>
#include <vector>

#include "trace/generator.h"
#include "trace/synthetic_trace.h"

namespace btbsim {

/** A named workload: generation parameters plus an interpreter seed. */
struct WorkloadSpec
{
    std::string name;
    GenParams params;
    std::uint64_t trace_seed = 1;

    bool operator==(const WorkloadSpec &) const = default;
};

/**
 * The process-wide read-only image for @p params: generated on first
 * request, then shared by every later caller with equal params. Safe to
 * call concurrently; racing first callers all receive the first inserted
 * instance. There is no eviction, so the memo holds one Program per
 * distinct GenParams the process asks for: one per serverSuite() workload
 * a bench runs (6 at the default BTBSIM_TRACES, at most 12). Callers with
 * one-off params (the fuzzer) call generateProgram() directly instead.
 */
std::shared_ptr<const Program> sharedProgram(const GenParams &params);

/**
 * A TraceSource interpreting the shared image of its spec's params: the
 * interpreter state is the Workload's own, the Program is sharedProgram()'s.
 */
class Workload : public TraceSource
{
  public:
    explicit Workload(const WorkloadSpec &spec)
        : program_(sharedProgram(spec.params)),
          trace_(*program_, spec.trace_seed, spec.name)
    {}

    const Instruction &next() override { return trace_.next(); }
    void reset() override { trace_.reset(); }
    std::string name() const override { return trace_.name(); }

    const Program &program() const { return *program_; }

  private:
    std::shared_ptr<const Program> program_;
    SyntheticTrace trace_;
};

/**
 * The default server-like suite: workloads spanning code footprints from
 * roughly 100KB to 1MB, basic-block sizes around the paper's 9.4-instruction
 * average, and varying call-graph and predictability characteristics. All
 * exhibit > 1 I-cache MPKI on the Table 1 configuration, matching the
 * paper's trace selection criterion.
 *
 * @param count Number of workloads (clamped to the available spec list).
 */
std::vector<WorkloadSpec> serverSuite(std::size_t count = 8);

/** Instantiate a fresh interpreter over the spec's shared image. */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec);

} // namespace btbsim

#endif // BTBSIM_TRACE_SUITE_H
