#include "traceio/format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "trace/program.h"

namespace btbsim::traceio {

namespace {

// Slicing-by-8 CRC-32: eight lookup tables let the hot loop fold eight
// bytes per iteration, which keeps CRC checks off the replay critical
// path (the byte-at-a-time loop caps decode around 400 MB/s).
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t s = 1; s < 8; ++s)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    return t;
}

constexpr auto kCrcTables = makeCrcTables();

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const auto &t = kCrcTables;
    std::uint32_t c = 0xffffffffu;
    while (n >= 8) {
        c ^= readLeU32(p);
        const std::uint32_t hi = readLeU32(p + 4);
        c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^
            t[4][c >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    for (std::size_t i = 0; i < n; ++i)
        c = t[0][(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

TraceHeader
parseHeader(const std::uint8_t *data, std::size_t size)
{
    if (size < kHeaderBytes)
        throw TraceError("not a .btbt trace: file shorter than the " +
                         std::to_string(kHeaderBytes) + "-byte header (" +
                         std::to_string(size) + " bytes)");
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        throw TraceError("not a .btbt trace: bad magic");

    TraceHeader h;
    h.version = readLeU32(data + 8);
    if (h.version == 0 || h.version > kFormatVersion)
        throw TraceError("unsupported .btbt format version " +
                         std::to_string(h.version) + " (this build reads <= " +
                         std::to_string(kFormatVersion) + ")");
    const std::uint32_t header_bytes = readLeU32(data + 12);
    if (header_bytes < kHeaderBytes || header_bytes > size)
        throw TraceError("corrupt .btbt header: header size " +
                         std::to_string(header_bytes) + " out of range");
    h.inst_count = readLeU64(data + 16);
    h.chunk_count = readLeU32(data + 24);
    h.chunk_target = readLeU32(data + 28);
    h.flags = readLeU32(data + 32);
    const std::uint32_t name_bytes = readLeU32(data + 36);
    h.program_bytes = readLeU64(data + 40);
    h.program_crc = readLeU32(data + 48);

    if (name_bytes > size - header_bytes)
        throw TraceError("truncated .btbt: name extends past end of file");
    h.name.assign(reinterpret_cast<const char *>(data) + header_bytes,
                  name_bytes);
    h.program_offset = header_bytes + name_bytes;
    if (h.program_bytes > size - h.program_offset)
        throw TraceError("truncated .btbt: Program image extends past end "
                         "of file");
    if (h.hasProgram() != (h.program_bytes != 0))
        throw TraceError("corrupt .btbt header: Program flag and image size "
                         "disagree");
    h.data_offset = h.program_offset + h.program_bytes;
    return h;
}

void
encodeRecord(std::vector<std::uint8_t> &out, CodecState &st,
             const Instruction &in)
{
    const bool has_mem = in.mem_addr != 0;
    std::uint8_t flags = static_cast<std::uint8_t>(in.cls) |
                         (static_cast<std::uint8_t>(in.branch) << 3);
    if (in.taken)
        flags |= 0x40;
    if (has_mem)
        flags |= 0x80;
    out.push_back(flags);

    putZigzag(out, static_cast<std::int64_t>(in.pc - st.expected_pc));
    putZigzag(out,
              static_cast<std::int64_t>(in.next_pc - (in.pc + kInstBytes)));
    out.push_back(in.dst);
    out.push_back(in.src1);
    out.push_back(in.src2);
    if (has_mem) {
        putZigzag(out, static_cast<std::int64_t>(in.mem_addr - st.prev_mem));
        st.prev_mem = in.mem_addr;
    }
    st.expected_pc = in.next_pc;
}

namespace {

/** Byte-at-a-time continuation of varintUnchecked() for the rare 9- and
 *  10-byte encodings (the caller guarantees 10 readable bytes). */
[[gnu::cold]] std::uint64_t
varintUncheckedLong(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        const std::uint64_t b = *p++;
        v |= (b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throw TraceError("trace data corrupt (varint longer than 10 bytes)");
}

/**
 * Unchecked LEB128 read — the decode hot path. The caller guarantees at
 * least 10 readable bytes; consumption is capped at 10 even when the
 * payload is garbage with a valid CRC.
 *
 * Multi-byte varints are length-decided by the data (taken-branch and
 * memory deltas), so that path is branchless: one unaligned 8-byte
 * load, find the terminator with countr_zero, compact the 7-bit groups
 * with a fixed mask/shift/or tree. Only the common 1-byte case keeps a
 * (well-predicted) branch.
 */
inline std::uint64_t
varintUnchecked(const std::uint8_t *&p)
{
    if (*p < 0x80)
        return *p++;

    const std::uint64_t w = readLeU64(p);
    const std::uint64_t stop = ~w & 0x8080808080808080ull;
    if (stop == 0)
        return varintUncheckedLong(p); // 9+ bytes: off the fast path.
    const unsigned nbytes = (static_cast<unsigned>(std::countr_zero(stop)) >> 3) + 1;

    const std::uint64_t x = w & 0x7f7f7f7f7f7f7f7full;
    std::uint64_t v = (x & 0x7f) | ((x & 0x7f00) >> 1) |
                      ((x & 0x7f0000) >> 2) | ((x & 0x7f000000) >> 3) |
                      ((x & 0x7f00000000) >> 4) |
                      ((x & 0x7f0000000000) >> 5) |
                      ((x & 0x7f000000000000) >> 6) |
                      ((x & 0x7f00000000000000) >> 7);
    v &= (std::uint64_t{1} << (7 * nbytes)) - 1; // nbytes <= 8, shift < 64.
    p += nbytes;
    return v;
}

inline std::int64_t
zigzagUnchecked(const std::uint8_t *&p)
{
    return unzigzag(varintUnchecked(p));
}

/**
 * The record decoder: decode the record at @p p into @p o and advance
 * @p p past it. Loads are unchecked; the caller guarantees
 * kMaxRecordBytes readable bytes at @p p, which no record can overrun,
 * even on garbage input.
 */
inline void
readRecord(const std::uint8_t *&p, CodecState &st, Instruction &o)
{
    const std::uint8_t flags = *p++;
    const std::uint8_t cls = flags & 0x7;
    const std::uint8_t branch = (flags >> 3) & 0x7;
    if (cls > static_cast<std::uint8_t>(InstClass::kBranch) ||
        branch > static_cast<std::uint8_t>(BranchClass::kIndirectCall))
        throw TraceError("trace data corrupt (invalid instruction class)");
    o.cls = static_cast<InstClass>(cls);
    o.branch = static_cast<BranchClass>(branch);
    o.taken = flags & 0x40;
    o.pc = st.expected_pc + static_cast<Addr>(zigzagUnchecked(p));
    o.next_pc = o.pc + kInstBytes + static_cast<Addr>(zigzagUnchecked(p));
    o.dst = *p++;
    o.src1 = *p++;
    o.src2 = *p++;
    if (flags & 0x80) {
        o.mem_addr = st.prev_mem + static_cast<Addr>(zigzagUnchecked(p));
        st.prev_mem = o.mem_addr;
    } else {
        o.mem_addr = 0;
    }
    st.expected_pc = o.next_pc;
}

} // namespace

void
decodeChunkPayload(const std::uint8_t *data, std::size_t size,
                   std::uint32_t count, Instruction *out)
{
    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + size;
    CodecState st;

    std::uint32_t i = 0;
    for (; i < count && static_cast<std::size_t>(end - p) >= kMaxRecordBytes;
         ++i)
        readRecord(p, st, out[i]);

    // The count ran out first: any payload left over is corrupt (the
    // header's record count lies outside the payload CRC).
    if (i == count) {
        if (p != end)
            throw TraceError("trace data corrupt (trailing bytes after the "
                             "last record)");
        return;
    }

    // Tail: fewer than kMaxRecordBytes left. Decode a zero-padded copy:
    // a record starting inside the real bytes reads at most
    // kMaxRecordBytes, all within the copy. One that ends past the real
    // bytes was cut short.
    const auto left = static_cast<std::size_t>(end - p);
    assert(left < kMaxRecordBytes);
    std::uint8_t tail[2 * kMaxRecordBytes] = {};
    std::copy(p, end, tail);
    const std::uint8_t *q = tail;
    for (; i < count; ++i) {
        readRecord(q, st, out[i]);
        if (q > tail + left)
            throw TraceError("trace data truncated (record ends past the "
                             "chunk payload)");
    }
    if (q != tail + left)
        throw TraceError("trace data corrupt (trailing bytes after the "
                         "last record)");
}

// ---------------------------------------------------------------------
// Program image.

namespace {

void
putF64(std::vector<std::uint8_t> &out, double d)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(bits));
        bits >>= 8;
    }
}

void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putVarint(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

} // namespace

void
serializeProgram(const Program &prog, std::vector<std::uint8_t> &out)
{
    putString(out, prog.name);
    putVarint(out, prog.code_base);

    putVarint(out, prog.insts.size());
    for (const StaticInst &si : prog.insts) {
        out.push_back(static_cast<std::uint8_t>(si.cls));
        out.push_back(static_cast<std::uint8_t>(si.branch));
        out.push_back(si.dst);
        out.push_back(si.src1);
        out.push_back(si.src2);
        putVarint(out, si.target);
        putZigzag(out, si.behavior);
        putZigzag(out, si.stream);
    }

    putVarint(out, prog.conds.size());
    for (const CondBehavior &c : prog.conds) {
        out.push_back(static_cast<std::uint8_t>(c.kind));
        putF64(out, c.bias);
        putVarint(out, c.min_trips);
        putVarint(out, c.max_trips);
        putVarint(out, c.pattern);
        out.push_back(c.pattern_len);
    }

    putVarint(out, prog.indirects.size());
    for (const IndirectBehavior &ib : prog.indirects) {
        out.push_back(static_cast<std::uint8_t>(ib.kind));
        putF64(out, ib.skew);
        putVarint(out, ib.burst);
        putVarint(out, ib.targets.size());
        for (std::uint32_t t : ib.targets)
            putVarint(out, t);
        putVarint(out, ib.weights.size());
        for (double w : ib.weights)
            putF64(out, w);
    }

    putVarint(out, prog.streams.size());
    for (const MemStream &ms : prog.streams) {
        out.push_back(static_cast<std::uint8_t>(ms.kind));
        putVarint(out, ms.base);
        putVarint(out, ms.footprint);
        putZigzag(out, ms.stride);
    }

    putVarint(out, prog.entries.size());
    for (std::uint32_t e : prog.entries)
        putVarint(out, e);
    putVarint(out, prog.entry_weights.size());
    for (double w : prog.entry_weights)
        putF64(out, w);
}

} // namespace btbsim::traceio
