/** @file Tests for the .btbt trace format, writer, replay source and
 *  ChampSim importer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "trace/generator.h"
#include "trace/program.h"
#include "traceio/champsim.h"
#include "traceio/format.h"
#include "traceio/trace_reader.h"
#include "traceio/trace_writer.h"

using namespace btbsim;
using namespace btbsim::traceio;

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "btbsim_traceio_" + name;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os) << path;
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/** A short control-flow-consistent stream with every field exercised. */
std::vector<Instruction>
sampleStream(std::size_t n)
{
    std::vector<Instruction> v;
    Addr pc = 0x400000;
    Addr mem = 0x10000;
    for (std::size_t i = 0; i < n; ++i) {
        Instruction in;
        in.pc = pc;
        in.dst = static_cast<std::uint8_t>(i % 31);
        in.src1 = static_cast<std::uint8_t>((i * 7) % 31);
        in.src2 = static_cast<std::uint8_t>((i * 13) % 31);
        switch (i % 5) {
        case 0:
            in.cls = InstClass::kLoad;
            in.mem_addr = mem;
            mem += 64;
            in.next_pc = pc + kInstBytes;
            break;
        case 1:
            in.cls = InstClass::kStore;
            in.mem_addr = mem - 32;
            in.next_pc = pc + kInstBytes;
            break;
        case 2:
            in.cls = InstClass::kBranch;
            in.branch = BranchClass::kCondDirect;
            in.taken = (i % 2) != 0;
            in.next_pc = in.taken ? pc + 64 * kInstBytes : pc + kInstBytes;
            break;
        case 3:
            in.cls = InstClass::kBranch;
            in.branch = BranchClass::kIndirectCall;
            in.taken = true;
            in.next_pc = pc - 16 * kInstBytes;
            break;
        default:
            in.cls = InstClass::kAlu;
            in.next_pc = pc + kInstBytes;
            break;
        }
        pc = in.next_pc;
        v.push_back(in);
    }
    return v;
}

void
expectSameInstruction(const Instruction &a, const Instruction &b,
                      std::size_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "inst " << i;
    EXPECT_EQ(a.next_pc, b.next_pc) << "inst " << i;
    EXPECT_EQ(a.cls, b.cls) << "inst " << i;
    EXPECT_EQ(a.branch, b.branch) << "inst " << i;
    EXPECT_EQ(a.taken, b.taken) << "inst " << i;
    EXPECT_EQ(a.dst, b.dst) << "inst " << i;
    EXPECT_EQ(a.src1, b.src1) << "inst " << i;
    EXPECT_EQ(a.src2, b.src2) << "inst " << i;
    EXPECT_EQ(a.mem_addr, b.mem_addr) << "inst " << i;
}

std::string
writeSample(const std::string &name, const std::vector<Instruction> &insts,
            std::uint32_t chunk_insts, const Program *prog = nullptr)
{
    const std::string path = tmpPath(name);
    TraceWriter::Options opt;
    opt.chunk_insts = chunk_insts;
    TraceWriter w(path, name, prog, opt);
    for (const Instruction &in : insts)
        w.append(in);
    w.finish();
    return path;
}

/** One hand-built chunk: the record count its header claims and the
 *  records its payload actually encodes. */
struct RawChunk
{
    std::uint32_t claimed_records;
    std::vector<Instruction> insts;
};

/**
 * Assemble a `.btbt` file byte by byte (no name, no Program image): a
 * header claiming @p inst_count instructions, then @p chunks, each with
 * a valid payload CRC. Lets tests frame chunks the writer never would.
 */
std::vector<std::uint8_t>
handBuiltTrace(std::uint64_t inst_count, const std::vector<RawChunk> &chunks)
{
    std::vector<std::uint8_t> f(kMagic, kMagic + sizeof(kMagic));
    auto putU32 = [&f](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            f.push_back(static_cast<std::uint8_t>(v));
            v >>= 8;
        }
    };
    auto putU64 = [&](std::uint64_t v) {
        putU32(static_cast<std::uint32_t>(v));
        putU32(static_cast<std::uint32_t>(v >> 32));
    };
    putU32(kFormatVersion);
    putU32(kHeaderBytes);
    putU64(inst_count);
    putU32(static_cast<std::uint32_t>(chunks.size()));
    putU32(2); // chunk target
    putU32(0); // flags
    putU32(0); // name bytes
    putU64(0); // program bytes
    putU32(0); // program crc
    while (f.size() < kHeaderBytes)
        f.push_back(0);

    for (const RawChunk &c : chunks) {
        std::vector<std::uint8_t> payload;
        CodecState st;
        for (const Instruction &in : c.insts)
            encodeRecord(payload, st, in);
        putU32(kChunkMagic);
        putU32(c.claimed_records);
        putU32(static_cast<std::uint32_t>(payload.size()));
        putU32(crc32(payload.data(), payload.size()));
        f.insert(f.end(), payload.begin(), payload.end());
    }
    return f;
}

} // namespace

// ---------------------------------------------------------------------
// Varint / zigzag codec.

TEST(TraceFormat, VarintRoundTrip)
{
    const std::uint64_t cases[] = {0,
                                   1,
                                   127,
                                   128,
                                   16383,
                                   16384,
                                   0xdeadbeef,
                                   0x7fffffffffffffffull,
                                   0x8000000000000000ull,
                                   0xffffffffffffffffull};
    std::vector<std::uint8_t> buf;
    for (std::uint64_t v : cases)
        putVarint(buf, v);
    ByteReader r(buf.data(), buf.size());
    for (std::uint64_t v : cases)
        EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
}

TEST(TraceFormat, ZigzagRoundTrip)
{
    const std::int64_t cases[] = {0,
                                  1,
                                  -1,
                                  63,
                                  -64,
                                  64,
                                  std::int64_t{1} << 40,
                                  -(std::int64_t{1} << 40),
                                  std::numeric_limits<std::int64_t>::max(),
                                  std::numeric_limits<std::int64_t>::min()};
    for (std::int64_t v : cases)
        EXPECT_EQ(unzigzag(zigzag(v)), v) << v;
}

TEST(TraceFormat, TruncatedVarintThrows)
{
    const std::uint8_t bytes[] = {0x80, 0x80};
    ByteReader r(bytes, sizeof(bytes));
    EXPECT_THROW(r.varint(), TraceError);
}

TEST(TraceFormat, OverlongVarintThrows)
{
    // 11 continuation bytes can never be a valid u64 varint.
    std::vector<std::uint8_t> bytes(11, 0x80);
    bytes.push_back(0x01);
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.varint(), TraceError);
}

TEST(TraceFormat, RecordPcWraparound)
{
    // A stream that walks across the top of the address space: all
    // deltas are computed modulo 2^64 and must round-trip.
    std::vector<Instruction> insts;
    Instruction a;
    a.pc = 0xfffffffffffffff8ull;
    a.next_pc = 0xfffffffffffffffcull;
    insts.push_back(a);
    Instruction b;
    b.pc = 0xfffffffffffffffcull;
    b.next_pc = 0; // pc + 4 wraps to zero.
    insts.push_back(b);
    Instruction c;
    c.pc = 0;
    c.cls = InstClass::kBranch;
    c.branch = BranchClass::kUncondDirect;
    c.taken = true;
    c.next_pc = 0xfffffffffffffff8ull; // Maximal backward displacement.
    insts.push_back(c);

    std::vector<std::uint8_t> buf;
    CodecState enc;
    for (const Instruction &in : insts)
        encodeRecord(buf, enc, in);

    ByteReader r(buf.data(), buf.size());
    CodecState dec;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        Instruction out;
        decodeRecord(r, dec, out);
        expectSameInstruction(insts[i], out, i);
    }
    EXPECT_TRUE(r.done());
}

TEST(TraceFormat, RecordMaxMemDelta)
{
    std::vector<Instruction> insts;
    Instruction a;
    a.pc = 0x1000;
    a.next_pc = 0x1004;
    a.cls = InstClass::kLoad;
    a.mem_addr = 1;
    insts.push_back(a);
    Instruction b = a;
    b.pc = 0x1004;
    b.next_pc = 0x1008;
    b.mem_addr = 0xffffffffffffffffull; // Max positive-then-negative swing.
    insts.push_back(b);
    Instruction c = b;
    c.pc = 0x1008;
    c.next_pc = 0x100c;
    c.mem_addr = 2;
    insts.push_back(c);

    std::vector<std::uint8_t> buf;
    CodecState enc;
    for (const Instruction &in : insts)
        encodeRecord(buf, enc, in);
    ByteReader r(buf.data(), buf.size());
    CodecState dec;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        Instruction out;
        decodeRecord(r, dec, out);
        expectSameInstruction(insts[i], out, i);
    }
}

// ---------------------------------------------------------------------
// Program image.

TEST(TraceFormat, ProgramImageRoundTrip)
{
    GenParams params;
    params.seed = 0x77;
    params.target_static_insts = 8 * 1024;
    params.num_handlers = 4;
    const Program prog = generateProgram(params);

    std::vector<std::uint8_t> blob;
    serializeProgram(prog, blob);
    const Program back = deserializeProgram(blob.data(), blob.size());

    EXPECT_EQ(back.name, prog.name);
    EXPECT_EQ(back.code_base, prog.code_base);
    ASSERT_EQ(back.insts.size(), prog.insts.size());
    for (std::size_t i = 0; i < prog.insts.size(); ++i) {
        EXPECT_EQ(back.insts[i].cls, prog.insts[i].cls) << i;
        EXPECT_EQ(back.insts[i].branch, prog.insts[i].branch) << i;
        EXPECT_EQ(back.insts[i].target, prog.insts[i].target) << i;
        EXPECT_EQ(back.insts[i].behavior, prog.insts[i].behavior) << i;
        EXPECT_EQ(back.insts[i].stream, prog.insts[i].stream) << i;
        EXPECT_EQ(back.insts[i].dst, prog.insts[i].dst) << i;
        EXPECT_EQ(back.insts[i].src1, prog.insts[i].src1) << i;
        EXPECT_EQ(back.insts[i].src2, prog.insts[i].src2) << i;
    }
    ASSERT_EQ(back.conds.size(), prog.conds.size());
    for (std::size_t i = 0; i < prog.conds.size(); ++i) {
        EXPECT_EQ(back.conds[i].kind, prog.conds[i].kind) << i;
        EXPECT_EQ(back.conds[i].bias, prog.conds[i].bias) << i;
        EXPECT_EQ(back.conds[i].min_trips, prog.conds[i].min_trips) << i;
        EXPECT_EQ(back.conds[i].max_trips, prog.conds[i].max_trips) << i;
        EXPECT_EQ(back.conds[i].pattern, prog.conds[i].pattern) << i;
        EXPECT_EQ(back.conds[i].pattern_len, prog.conds[i].pattern_len) << i;
    }
    ASSERT_EQ(back.indirects.size(), prog.indirects.size());
    for (std::size_t i = 0; i < prog.indirects.size(); ++i) {
        EXPECT_EQ(back.indirects[i].kind, prog.indirects[i].kind) << i;
        EXPECT_EQ(back.indirects[i].skew, prog.indirects[i].skew) << i;
        EXPECT_EQ(back.indirects[i].burst, prog.indirects[i].burst) << i;
        EXPECT_EQ(back.indirects[i].targets, prog.indirects[i].targets) << i;
        EXPECT_EQ(back.indirects[i].weights, prog.indirects[i].weights) << i;
    }
    ASSERT_EQ(back.streams.size(), prog.streams.size());
    for (std::size_t i = 0; i < prog.streams.size(); ++i) {
        EXPECT_EQ(back.streams[i].kind, prog.streams[i].kind) << i;
        EXPECT_EQ(back.streams[i].base, prog.streams[i].base) << i;
        EXPECT_EQ(back.streams[i].footprint, prog.streams[i].footprint) << i;
        EXPECT_EQ(back.streams[i].stride, prog.streams[i].stride) << i;
    }
    EXPECT_EQ(back.entries, prog.entries);
    EXPECT_EQ(back.entry_weights, prog.entry_weights);
    EXPECT_TRUE(back.validate().empty());
}

TEST(TraceFormat, TruncatedProgramImageThrows)
{
    GenParams params;
    params.seed = 0x78;
    params.target_static_insts = 4 * 1024;
    const Program prog = generateProgram(params);
    std::vector<std::uint8_t> blob;
    serializeProgram(prog, blob);
    EXPECT_THROW(deserializeProgram(blob.data(), blob.size() / 2), TraceError);
    // Trailing garbage must be rejected too.
    blob.push_back(0);
    EXPECT_THROW(deserializeProgram(blob.data(), blob.size()), TraceError);
}

// ---------------------------------------------------------------------
// Writer -> replay round trip.

TEST(TraceRoundTrip, WriterReaderAllFields)
{
    const auto insts = sampleStream(1000);
    // Odd chunk size forces several chunks plus a short tail.
    const std::string path = writeSample("rt_fields.btbt", insts, 171);

    // Cover the decode-once cache and the streaming path.
    for (const std::uint64_t cache : {256ull << 20, 0ull}) {
        {
            TraceReplaySource::Options opt;
            opt.cache_budget_bytes = cache;
            TraceReplaySource src(path, opt);
            EXPECT_EQ(src.instructionCount(), insts.size());
            EXPECT_EQ(src.name(), "rt_fields.btbt");
            EXPECT_EQ(src.codeImage(), nullptr);
            // All but the final instruction round-trip exactly; the
            // tail is pre-patched into the wrap-seam jump (pc and
            // registers survive, control flow redirects to the head).
            for (std::size_t i = 0; i + 1 < insts.size(); ++i)
                expectSameInstruction(insts[i], src.next(), i);
            const Instruction &tail = src.next();
            EXPECT_EQ(tail.pc, insts.back().pc);
            EXPECT_EQ(tail.dst, insts.back().dst);
            EXPECT_EQ(tail.src1, insts.back().src1);
            EXPECT_EQ(tail.src2, insts.back().src2);
            EXPECT_EQ(tail.next_pc, insts.front().pc);
            EXPECT_EQ(tail.branch, BranchClass::kUncondDirect);
            EXPECT_TRUE(tail.taken);
            EXPECT_EQ(src.wraps(), 0u);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, ResetIsDeterministic)
{
    const auto insts = sampleStream(500);
    const std::string path = writeSample("rt_reset.btbt", insts, 64);

    TraceReplaySource src(path);
    for (int i = 0; i < 123; ++i)
        src.next();
    src.reset();
    // (Final instruction excluded: it is the pre-patched wrap seam.)
    for (std::size_t i = 0; i + 1 < insts.size(); ++i)
        expectSameInstruction(insts[i], src.next(), i);
    EXPECT_EQ(src.next().pc, insts.back().pc);
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, WrapInsertsConsistentSeam)
{
    const auto insts = sampleStream(100);
    const std::string path = writeSample("rt_wrap.btbt", insts, 32);

    TraceReplaySource src(path);
    std::vector<Instruction> seen;
    for (std::size_t i = 0; i < 2 * insts.size(); ++i)
        seen.push_back(src.next());
    EXPECT_EQ(src.wraps(), 1u);

    // Delivery stays control-flow consistent across the seam...
    for (std::size_t i = 0; i + 1 < seen.size(); ++i)
        EXPECT_EQ(seen[i].next_pc, seen[i + 1].pc) << "seam at " << i;
    // ...because the recorded tail was rewritten into a jump to the head.
    const Instruction &seam = seen[insts.size() - 1];
    EXPECT_EQ(seam.next_pc, insts.front().pc);
    EXPECT_TRUE(seam.taken);
    EXPECT_EQ(seam.branch, BranchClass::kUncondDirect);
    // Both laps otherwise deliver the recorded stream.
    for (std::size_t i = 0; i + 1 < insts.size(); ++i) {
        expectSameInstruction(insts[i], seen[i + insts.size()], i);
    }
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, ProgramImageTravelsWithTrace)
{
    GenParams params;
    params.seed = 0x99;
    params.target_static_insts = 4 * 1024;
    const Program prog = generateProgram(params);
    const auto insts = sampleStream(64);
    const std::string path =
        writeSample("rt_prog.btbt", insts, kDefaultChunkInsts, &prog);

    TraceReplaySource src(path);
    ASSERT_NE(src.codeImage(), nullptr);
    EXPECT_EQ(src.codeImage()->insts.size(), prog.insts.size());
    EXPECT_EQ(src.codeImage()->name, prog.name);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Negative paths: every corruption fails with a clean diagnostic.

TEST(TraceNegative, MissingFile)
{
    EXPECT_THROW(TraceReplaySource("/nonexistent/nope.btbt"), TraceError);
}

TEST(TraceNegative, TruncatedHeader)
{
    const std::string path = tmpPath("neg_short.btbt");
    writeFile(path, std::vector<std::uint8_t>(17, 0x42));
    EXPECT_THROW({ TraceReplaySource src(path); }, TraceError);
    EXPECT_THROW(inspectTrace(path, true), TraceError);
    EXPECT_FALSE(verifyTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceNegative, BadMagic)
{
    const auto insts = sampleStream(32);
    const std::string path = writeSample("neg_magic.btbt", insts, 16);
    auto bytes = readFile(path);
    bytes[0] ^= 0xff;
    writeFile(path, bytes);
    try {
        TraceReplaySource src(path);
        FAIL() << "bad magic must throw";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceNegative, VersionFromTheFuture)
{
    const auto insts = sampleStream(32);
    const std::string path = writeSample("neg_ver.btbt", insts, 16);
    auto bytes = readFile(path);
    bytes[8] = 0x63; // version = 99
    writeFile(path, bytes);
    try {
        TraceReplaySource src(path);
        FAIL() << "future version must throw";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceNegative, CorruptChunkPayload)
{
    const auto insts = sampleStream(200);
    const std::string path = writeSample("neg_crc.btbt", insts, 64);
    // Flip one byte inside chunk 2's payload (not chunk 0 — the replay
    // constructor decodes that one eagerly and would throw up front).
    const TraceFileInfo pre = inspectTrace(path, false);
    ASSERT_GE(pre.chunks.size(), 3u);
    auto bytes = readFile(path);
    bytes[pre.chunks[2].offset + 16 + 5] ^= 0x5a;
    writeFile(path, bytes);

    const auto problems = verifyTrace(path);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("CRC"), std::string::npos);

    TraceReplaySource src(path); // Directory scan alone is fine...
    EXPECT_THROW(
        {
            for (std::size_t i = 0; i < insts.size(); ++i)
                src.next(); // ...decoding the bad chunk is not.
        },
        TraceError);
    std::remove(path.c_str());
}

TEST(TraceNegative, TruncatedChunkPayload)
{
    const auto insts = sampleStream(200);
    const std::string path = writeSample("neg_trunc.btbt", insts, 64);
    auto bytes = readFile(path);
    bytes.resize(bytes.size() - 10);
    writeFile(path, bytes);
    EXPECT_THROW({ TraceReplaySource src(path); }, TraceError);
    EXPECT_FALSE(verifyTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceNegative, EmptyTraceRejected)
{
    const std::string path = writeSample("neg_empty.btbt", {}, 16);
    try {
        TraceReplaySource src(path);
        FAIL() << "empty trace must throw";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("no instructions"),
                  std::string::npos);
    }
    // But the container itself is well-formed.
    EXPECT_TRUE(verifyTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceNegative, ZeroLengthChunksAreSkipped)
{
    // Hand-build a file with an empty chunk wedged between two real
    // ones: header | chunk(2 insts) | chunk(0) | chunk(1 inst).
    const auto insts = sampleStream(3);
    const auto f = handBuiltTrace(3, {{2, {insts[0], insts[1]}},
                                      {0, {}},
                                      {1, {insts[2]}}});

    const std::string path = tmpPath("zero_chunk.btbt");
    writeFile(path, f);
    EXPECT_TRUE(verifyTrace(path).empty());

    for (const std::uint64_t cache : {256ull << 20, 0ull}) {
        TraceReplaySource::Options opt;
        opt.cache_budget_bytes = cache;
        TraceReplaySource src(path, opt);
        // Two full laps across the empty chunk.
        for (int lap = 0; lap < 2; ++lap)
            for (std::size_t i = 0; i < insts.size(); ++i) {
                const Instruction &got = src.next();
                EXPECT_EQ(got.pc, insts[i].pc)
                    << "lap " << lap << " i " << i;
            }
        EXPECT_EQ(src.wraps(), 1u);
    }
    std::remove(path.c_str());
}

TEST(TraceNegative, RecordCountBeyondPayloadRejected)
{
    // One well-formed smallest-possible record (a fall-through ALU op at
    // the chunk's expected pc), but a chunk header and file header that
    // both claim 2^32-1 records. Sizing a decode buffer from the claim
    // would allocate ~2^32 instructions; the directory walk must reject
    // the count against the payload size first.
    Instruction smallest;
    smallest.next_pc = kInstBytes;
    std::vector<std::uint8_t> payload;
    CodecState st;
    encodeRecord(payload, st, smallest);
    ASSERT_EQ(payload.size(), kMinRecordBytes);

    const std::uint32_t claim = std::numeric_limits<std::uint32_t>::max();
    const auto f = handBuiltTrace(claim, {{claim, {smallest}}});
    ASSERT_EQ(f.size(), kHeaderBytes + 16 + kMinRecordBytes);
    const std::string path = tmpPath("huge_count.btbt");
    writeFile(path, f);

    const auto problems = verifyTrace(path);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("record count"), std::string::npos)
        << problems[0];
    EXPECT_THROW({ TraceReplaySource src(path); }, TraceError);
    EXPECT_THROW(inspectTrace(path, false), TraceError);
    std::remove(path.c_str());
}

TEST(TraceNegative, ChunkCountBeyondFileRejected)
{
    // A header claiming 2^32-1 chunks in front of a single real one:
    // the directory walk must hit the end of the file, not reserve a
    // directory sized from the claim.
    const auto insts = sampleStream(3);
    auto f = handBuiltTrace(insts.size(), {{3, insts}});
    for (std::size_t i = 24; i < 28; ++i)
        f[i] = 0xff; // Header chunk count (bytes [24, 28)).
    const std::string path = tmpPath("huge_chunk_count.btbt");
    writeFile(path, f);

    EXPECT_THROW({ TraceReplaySource src(path); }, TraceError);
    const auto problems = verifyTrace(path);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("truncated chunk header"), std::string::npos)
        << problems[0];
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ChampSim importer.

namespace {

ChampSimRecord
csRecord(std::uint64_t ip)
{
    ChampSimRecord r{};
    r.ip = ip;
    return r;
}

} // namespace

TEST(ChampSim, BranchClassification)
{
    // Conditional: reads flags, writes IP.
    ChampSimRecord cond = csRecord(0x1000);
    cond.is_branch = 1;
    cond.branch_taken = 1;
    cond.source_registers[0] = kChampSimRegFlags;
    cond.destination_registers[0] = kChampSimRegIp;
    EXPECT_EQ(champsimToInstruction(cond, 0x2000).branch,
              BranchClass::kCondDirect);
    EXPECT_TRUE(champsimToInstruction(cond, 0x2000).taken);

    // Direct jump: writes IP only.
    ChampSimRecord jmp = csRecord(0x1000);
    jmp.is_branch = 1;
    jmp.branch_taken = 1;
    jmp.destination_registers[0] = kChampSimRegIp;
    EXPECT_EQ(champsimToInstruction(jmp, 0x2000).branch,
              BranchClass::kUncondDirect);

    // Indirect jump: writes IP, reads a general register.
    ChampSimRecord ind = jmp;
    ind.source_registers[0] = 11;
    EXPECT_EQ(champsimToInstruction(ind, 0x2000).branch,
              BranchClass::kIndirectJump);

    // Direct call: reads+writes SP, reads IP, writes IP.
    ChampSimRecord call = csRecord(0x1000);
    call.is_branch = 1;
    call.branch_taken = 1;
    call.source_registers[0] = kChampSimRegSp;
    call.source_registers[1] = kChampSimRegIp;
    call.destination_registers[0] = kChampSimRegIp;
    call.destination_registers[1] = kChampSimRegSp;
    EXPECT_EQ(champsimToInstruction(call, 0x2000).branch,
              BranchClass::kDirectCall);

    // Indirect call: like a call but also reads a general register.
    ChampSimRecord icall = call;
    icall.source_registers[2] = 9;
    EXPECT_EQ(champsimToInstruction(icall, 0x2000).branch,
              BranchClass::kIndirectCall);

    // Return: reads SP (not IP), writes SP and IP.
    ChampSimRecord ret = csRecord(0x1000);
    ret.is_branch = 1;
    ret.branch_taken = 1;
    ret.source_registers[0] = kChampSimRegSp;
    ret.destination_registers[0] = kChampSimRegIp;
    ret.destination_registers[1] = kChampSimRegSp;
    EXPECT_EQ(champsimToInstruction(ret, 0x2000).branch,
              BranchClass::kReturn);

    // Unconditional classes are taken even if the tracer said 0.
    jmp.branch_taken = 0;
    EXPECT_TRUE(champsimToInstruction(jmp, 0x2000).taken);
}

TEST(ChampSim, MemoryAndAluMapping)
{
    ChampSimRecord load = csRecord(0x1000);
    load.source_memory[0] = 0xbeef00;
    load.destination_registers[0] = 4;
    const Instruction li = champsimToInstruction(load, 0x1004);
    EXPECT_EQ(li.cls, InstClass::kLoad);
    EXPECT_EQ(li.mem_addr, 0xbeef00u);
    EXPECT_EQ(li.dst, 4);

    ChampSimRecord store = csRecord(0x1004);
    store.destination_memory[0] = 0xdead00;
    EXPECT_EQ(champsimToInstruction(store, 0x1008).cls, InstClass::kStore);

    ChampSimRecord alu = csRecord(0x1008);
    alu.source_registers[0] = 3;
    alu.source_registers[1] = 5;
    alu.destination_registers[0] = 7;
    const Instruction ai = champsimToInstruction(alu, 0x100c);
    EXPECT_EQ(ai.cls, InstClass::kAlu);
    EXPECT_EQ(ai.src1, 3);
    EXPECT_EQ(ai.src2, 5);
    EXPECT_EQ(ai.dst, 7);
}

TEST(ChampSim, ConvertStitchesNextPc)
{
    // x86-style variable-length stream: ips are NOT 4 apart, so next_pc
    // must come from the following record, not pc + 4.
    const std::uint64_t ips[] = {0x1000, 0x1003, 0x1009, 0x100a, 0x4000};
    std::vector<ChampSimRecord> recs;
    for (std::uint64_t ip : ips)
        recs.push_back(csRecord(ip));
    recs[3].is_branch = 1; // 0x100a jumps to 0x4000.
    recs[3].branch_taken = 1;
    recs[3].destination_registers[0] = kChampSimRegIp;

    const std::string in = tmpPath("champ.raw");
    {
        std::ofstream os(in, std::ios::binary | std::ios::trunc);
        os.write(reinterpret_cast<const char *>(recs.data()),
                 static_cast<std::streamsize>(recs.size() * sizeof(recs[0])));
    }
    const std::string out = tmpPath("champ.btbt");
    const ConvertStats cs = convertChampSim(in, out, "champ-test");
    EXPECT_EQ(cs.records, 5u);
    EXPECT_EQ(cs.branches, 1u);
    EXPECT_EQ(cs.taken_branches, 1u);

    TraceReplaySource src(out);
    EXPECT_EQ(src.name(), "champ-test");
    EXPECT_EQ(src.codeImage(), nullptr);
    for (std::size_t i = 0; i < 5; ++i) {
        const Instruction &got = src.next();
        EXPECT_EQ(got.pc, ips[i]) << i;
        if (i + 1 < 5) {
            EXPECT_EQ(got.next_pc, ips[i + 1]) << i;
        }
    }
    std::remove(in.c_str());
    std::remove(out.c_str());
}

TEST(ChampSim, RejectsEmptyAndPartialFiles)
{
    const std::string in = tmpPath("champ_bad.raw");
    writeFile(in, {});
    EXPECT_THROW(convertChampSim(in, tmpPath("o1.btbt"), "x"), TraceError);
    writeFile(in, std::vector<std::uint8_t>(100, 0x11)); // not 64-aligned
    EXPECT_THROW(convertChampSim(in, tmpPath("o2.btbt"), "x"), TraceError);
    std::remove(in.c_str());
}
