#include "exp/config_json.h"

#include <stdexcept>

namespace btbsim::exp {

namespace {

// ---- strict read helpers ----------------------------------------------

std::uint64_t
u64At(const obs::JsonValue &v, std::string_view key)
{
    const double d = v.at(key).asNumber();
    if (d < 0)
        throw std::runtime_error("negative value for \"" + std::string(key) +
                                 "\"");
    return static_cast<std::uint64_t>(d);
}

unsigned
u32At(const obs::JsonValue &v, std::string_view key)
{
    return static_cast<unsigned>(u64At(v, key));
}

bool
boolAt(const obs::JsonValue &v, std::string_view key)
{
    const obs::JsonValue &b = v.at(key);
    if (b.type != obs::JsonValue::Type::kBool)
        throw std::runtime_error("expected bool for \"" + std::string(key) +
                                 "\"");
    return b.boolean;
}

void
checkSchema(const obs::JsonValue &v, const char *what)
{
    const int got = static_cast<int>(v.at("_schema").asNumber());
    if (got != kConfigSchemaVersion)
        throw std::runtime_error(
            std::string(what) + ": config schema version " +
            std::to_string(got) + " (this build reads " +
            std::to_string(kConfigSchemaVersion) + ")");
}

// ---- nested config writers ------------------------------------------

void
writeLevelGeom(obs::JsonWriter &w, const BtbLevelGeom &g)
{
    w.beginObject();
    w.kv("sets", g.sets);
    w.kv("ways", g.ways);
    w.endObject();
}

BtbLevelGeom
levelGeomFromJson(const obs::JsonValue &v)
{
    BtbLevelGeom g;
    g.sets = u32At(v, "sets");
    g.ways = u32At(v, "ways");
    return g;
}

void
writeCacheConfig(obs::JsonWriter &w, const CacheConfig &c)
{
    w.beginObject();
    w.kv("name", c.name);
    w.kv("sets", c.sets);
    w.kv("ways", c.ways);
    w.kv("latency", c.latency);
    w.kv("mshrs", c.mshrs);
    w.kv("next_line_prefetch", c.next_line_prefetch);
    w.endObject();
}

void
writeBPredConfig(obs::JsonWriter &w, const BPredConfig &c)
{
    w.beginObject();
    w.key("perceptron");
    w.beginObject();
    w.kv("num_tables", c.perceptron.num_tables);
    w.kv("entries_per_table", c.perceptron.entries_per_table);
    w.kv("max_history", c.perceptron.max_history);
    w.endObject();
    w.kv("ras_entries", c.ras_entries);
    w.kv("indirect_entries", c.indirect_entries);
    w.endObject();
}

void
writeMemConfig(obs::JsonWriter &w, const MemConfig &c)
{
    w.beginObject();
    w.key("l1i");
    writeCacheConfig(w, c.l1i);
    w.key("l1d");
    writeCacheConfig(w, c.l1d);
    w.key("l2");
    writeCacheConfig(w, c.l2);
    w.key("llc");
    writeCacheConfig(w, c.llc);
    w.kv("dram_latency", c.dram_latency);
    w.kv("icache_interleaves", c.icache_interleaves);
    w.endObject();
}

void
writeBackendConfig(obs::JsonWriter &w, const BackendConfig &c)
{
    w.beginObject();
    w.kv("rob_size", c.rob_size);
    w.kv("iq_size", c.iq_size);
    w.kv("lq_size", c.lq_size);
    w.kv("sq_size", c.sq_size);
    w.kv("commit_width", c.commit_width);
    w.kv("issue_width", c.issue_width);
    w.kv("misc_ports", c.misc_ports);
    w.kv("load_ports", c.load_ports);
    w.kv("store_ports", c.store_ports);
    w.kv("ideal", c.ideal);
    w.endObject();
}

void
writeGenParams(obs::JsonWriter &w, const GenParams &p)
{
    w.beginObject();
    w.kv("seed", p.seed);
    w.kv("target_static_insts", p.target_static_insts);
    w.kv("num_handlers", p.num_handlers);
    w.kv("mean_block_len", p.mean_block_len);
    w.kv("w_check", p.w_check);
    w.kv("w_always_if", p.w_always_if);
    w.kv("w_mixed_if", p.w_mixed_if);
    w.kv("w_loop", p.w_loop);
    w.kv("w_call", p.w_call);
    w.kv("w_icall", p.w_icall);
    w.kv("w_switch", p.w_switch);
    w.kv("w_jump", p.w_jump);
    w.kv("monomorphic_frac", p.monomorphic_frac);
    w.kv("pattern_frac", p.pattern_frac);
    w.kv("min_trips", p.min_trips);
    w.kv("max_trips", p.max_trips);
    w.kv("fixed_trip_frac", p.fixed_trip_frac);
    w.kv("data_footprint", p.data_footprint);
    w.kv("frac_load", p.frac_load);
    w.kv("frac_store", p.frac_store);
    w.kv("frac_stream_stack", p.frac_stream_stack);
    w.kv("frac_stream_stride", p.frac_stream_stride);
    w.kv("dep_locality", p.dep_locality);
    w.endObject();
}

} // namespace

// ---- enum names --------------------------------------------------------

const char *
btbKindName(BtbKind k)
{
    switch (k) {
      case BtbKind::kInstruction:
        return "instruction";
      case BtbKind::kRegion:
        return "region";
      case BtbKind::kBlock:
        return "block";
      case BtbKind::kMultiBlock:
        return "multiblock";
      case BtbKind::kHetero:
        return "hetero";
    }
    return "unknown";
}

BtbKind
btbKindFromName(const std::string &name)
{
    for (BtbKind k :
         {BtbKind::kInstruction, BtbKind::kRegion, BtbKind::kBlock,
          BtbKind::kMultiBlock, BtbKind::kHetero})
        if (name == btbKindName(k))
            return k;
    throw std::runtime_error("unknown BtbKind \"" + name + "\"");
}

const char *
pullPolicyName(PullPolicy p)
{
    switch (p) {
      case PullPolicy::kNone:
        return "none";
      case PullPolicy::kUncondDir:
        return "uncond_dir";
      case PullPolicy::kCallDir:
        return "call_dir";
      case PullPolicy::kAllBr:
        return "all_br";
    }
    return "unknown";
}

PullPolicy
pullPolicyFromName(const std::string &name)
{
    for (PullPolicy p : {PullPolicy::kNone, PullPolicy::kUncondDir,
                         PullPolicy::kCallDir, PullPolicy::kAllBr})
        if (name == pullPolicyName(p))
            return p;
    throw std::runtime_error("unknown PullPolicy \"" + name + "\"");
}

// ---- BtbConfig ---------------------------------------------------------

void
writeBtbConfigJson(obs::JsonWriter &w, const BtbConfig &c)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.kv("kind", btbKindName(c.kind));
    w.kv("branch_slots", c.branch_slots);
    w.kv("width", c.width);
    w.kv("skip_taken", c.skip_taken);
    w.kv("region_bytes", c.region_bytes);
    w.kv("dual_region", c.dual_region);
    w.kv("reach_instrs", c.reach_instrs);
    w.kv("split", c.split);
    w.kv("cond_ends_block", c.cond_ends_block);
    w.kv("pull", pullPolicyName(c.pull));
    w.kv("stability_threshold", c.stability_threshold);
    w.kv("allow_last_slot_pull", c.allow_last_slot_pull);
    w.key("l1");
    writeLevelGeom(w, c.l1);
    w.key("l2");
    writeLevelGeom(w, c.l2);
    w.kv("ideal", c.ideal);
    w.kv("l2_penalty", c.l2_penalty);
    w.endObject();
}

BtbConfig
btbConfigFromJson(const obs::JsonValue &v)
{
    checkSchema(v, "BtbConfig");
    BtbConfig c;
    c.kind = btbKindFromName(v.at("kind").asString());
    c.branch_slots = u32At(v, "branch_slots");
    c.width = u32At(v, "width");
    c.skip_taken = boolAt(v, "skip_taken");
    c.region_bytes = u32At(v, "region_bytes");
    c.dual_region = boolAt(v, "dual_region");
    c.reach_instrs = u32At(v, "reach_instrs");
    c.split = boolAt(v, "split");
    c.cond_ends_block = boolAt(v, "cond_ends_block");
    c.pull = pullPolicyFromName(v.at("pull").asString());
    c.stability_threshold = u32At(v, "stability_threshold");
    c.allow_last_slot_pull = boolAt(v, "allow_last_slot_pull");
    c.l1 = levelGeomFromJson(v.at("l1"));
    c.l2 = levelGeomFromJson(v.at("l2"));
    c.ideal = boolAt(v, "ideal");
    c.l2_penalty = u32At(v, "l2_penalty");
    return c;
}

// ---- CpuConfig ---------------------------------------------------------

void
writeCpuConfigJson(obs::JsonWriter &w, const CpuConfig &c)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.key("btb");
    writeBtbConfigJson(w, c.btb);
    w.key("bpred");
    writeBPredConfig(w, c.bpred);
    w.key("mem");
    writeMemConfig(w, c.mem);
    w.key("backend");
    writeBackendConfig(w, c.backend);
    w.kv("ftq_entries", c.ftq_entries);
    w.kv("decode_queue", c.decode_queue);
    w.kv("alloc_queue", c.alloc_queue);
    w.kv("fetch_width", c.fetch_width);
    w.kv("fetch_lines", c.fetch_lines);
    w.kv("decode_width", c.decode_width);
    w.kv("alloc_width", c.alloc_width);
    w.endObject();
}

// ---- WorkloadSpec ------------------------------------------------------

void
writeWorkloadSpecJson(obs::JsonWriter &w, const WorkloadSpec &s)
{
    w.beginObject();
    w.kv("_schema", kConfigSchemaVersion);
    w.kv("name", s.name);
    w.key("params");
    writeGenParams(w, s.params);
    w.kv("trace_seed", s.trace_seed);
    w.endObject();
}

} // namespace btbsim::exp
