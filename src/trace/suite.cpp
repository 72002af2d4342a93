#include "trace/suite.h"

#include <mutex>
#include <utility>

namespace btbsim {

std::vector<WorkloadSpec>
serverSuite(std::size_t count)
{
    std::vector<WorkloadSpec> suite;

    auto add = [&](std::string name, auto tweak) {
        WorkloadSpec w;
        w.name = std::move(name);
        w.params.seed = 0x1000 + suite.size() * 0x111;
        w.trace_seed = 0x9000 + suite.size() * 0x77;
        tweak(w.params);
        suite.push_back(std::move(w));
    };

    // Web-server-like: large footprint, deep call graph, short blocks.
    add("web-lg", [](GenParams &p) {
        p.target_static_insts = 256 * 1024;
        p.num_handlers = 16;
        p.mean_block_len = 9.8;
    });
    // Database-like: very large footprint, moderate blocks, loopy.
    add("db-xl", [](GenParams &p) {
        p.target_static_insts = 358 * 1024;
        p.num_handlers = 14;
        p.mean_block_len = 10.6;
        p.w_loop = 0.05;
        p.max_trips = 16;
    });
    // Cache-server-like: medium footprint, tight loops, stride-heavy data.
    add("kv-md", [](GenParams &p) {
        p.target_static_insts = 153 * 1024;
        p.num_handlers = 10;
        p.mean_block_len = 10.2;
        p.frac_stream_stride = 0.45;
        p.frac_stream_stack = 0.45;
    });
    // Proxy-like: large footprint, branchy, fewer loops.
    add("proxy-lg", [](GenParams &p) {
        p.target_static_insts = 204 * 1024;
        p.num_handlers = 12;
        p.mean_block_len = 9.4;
        p.w_loop = 0.02;
        p.w_check = 0.48;
    });
    // App-server-like: polymorphic call sites, switches.
    add("app-lg", [](GenParams &p) {
        p.target_static_insts = 230 * 1024;
        p.num_handlers = 12;
        p.mean_block_len = 10.4;
        p.w_icall = 0.09;
        p.w_switch = 0.04;
        p.monomorphic_frac = 0.6;
    });
    // Analytics-like: longer blocks, hot loops, larger data footprint.
    add("olap-md", [](GenParams &p) {
        p.target_static_insts = 128 * 1024;
        p.num_handlers = 8;
        p.mean_block_len = 11.8;
        p.w_loop = 0.05;
        p.max_trips = 20;
        p.data_footprint = 16ull << 20;
    });
    // Microservice-like: small-medium footprint, noisy branches.
    add("rpc-sm", [](GenParams &p) {
        p.target_static_insts = 89 * 1024;
        p.num_handlers = 10;
        p.mean_block_len = 10.0;
        p.pattern_frac = 0.35;
    });
    // Monolith: the biggest footprint in the suite.
    add("mono-xxl", [](GenParams &p) {
        p.target_static_insts = 409 * 1024;
        p.num_handlers = 16;
        p.mean_block_len = 10.2;
    });
    // Variants with different seeds to widen the population.
    add("web-lg2", [](GenParams &p) {
        p.target_static_insts = 281 * 1024;
        p.num_handlers = 14;
        p.mean_block_len = 9.6;
    });
    add("db-lg2", [](GenParams &p) {
        p.target_static_insts = 307 * 1024;
        p.num_handlers = 12;
        p.mean_block_len = 11.0;
        p.w_loop = 0.04;
    });
    add("kv-lg2", [](GenParams &p) {
        p.target_static_insts = 179 * 1024;
        p.num_handlers = 10;
        p.mean_block_len = 10.8;
    });
    add("app-md2", [](GenParams &p) {
        p.target_static_insts = 166 * 1024;
        p.num_handlers = 12;
        p.mean_block_len = 11.4;
        p.w_icall = 0.08;
    });

    if (count < suite.size())
        suite.resize(count);
    return suite;
}

std::shared_ptr<const Program>
sharedProgram(const GenParams &params)
{
    static std::mutex mu;
    static std::vector<std::pair<GenParams, std::shared_ptr<const Program>>>
        memo;
    auto lookup = [&]() -> std::shared_ptr<const Program> {
        for (const auto &[p, prog] : memo)
            if (p == params)
                return prog;
        return nullptr;
    };
    {
        std::lock_guard<std::mutex> lk(mu);
        if (auto hit = lookup())
            return hit;
    }
    // Generate outside the lock so distinct specs build in parallel.
    auto fresh = std::make_shared<const Program>(generateProgram(params));
    std::lock_guard<std::mutex> lk(mu);
    if (auto hit = lookup())
        return hit;
    memo.emplace_back(params, fresh);
    return fresh;
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec)
{
    return std::make_unique<Workload>(spec);
}

} // namespace btbsim
