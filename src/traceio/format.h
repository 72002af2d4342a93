/**
 * @file
 * The `.btbt` binary trace format — constants, header, varint/delta codec
 * and static-Program serialization.
 *
 * On-disk layout (all integers little-endian; multi-byte fields use
 * LEB128 varints inside variable-length sections):
 *
 *   [ 0, 8)   magic "BTBTRACE"
 *   [ 8,12)   u32 format version (kFormatVersion)
 *   [12,16)   u32 header bytes (kHeaderBytes; offset of the name section)
 *   [16,24)   u64 instruction count
 *   [24,28)   u32 chunk count
 *   [28,32)   u32 chunk target (instructions per full chunk)
 *   [32,36)   u32 flags (bit 0: a Program image follows the name)
 *   [36,40)   u32 stream-name bytes
 *   [40,48)   u64 Program-image bytes (0 when absent)
 *   [48,52)   u32 Program-image CRC32
 *   [52,64)   reserved (zero)
 *   [64, ..)  stream name, then the serialized Program image,
 *             then chunk_count chunks.
 *
 * Each chunk is independently decodable (the delta codec restarts per
 * chunk, so chunks can be skipped or used as seek points):
 *
 *   u32 chunk magic "CHNK" | u32 record count | u32 payload bytes |
 *   u32 payload CRC32 | payload
 *
 * One record in a chunk payload:
 *
 *   u8  flags          bits 0-2 InstClass, 3-5 BranchClass,
 *                      bit 6 taken, bit 7 has mem_addr
 *   var zz(pc - expected)        expected = previous record's next_pc
 *                                (0 at chunk start)
 *   var zz(next_pc - (pc + 4))   0 for every fall-through
 *   u8  dst, u8 src1, u8 src2
 *   var zz(mem_addr - prev_mem)  only when bit 7 is set
 *
 * All deltas are computed modulo 2^64, so PC wraparound round-trips.
 */

#ifndef BTBSIM_TRACEIO_FORMAT_H
#define BTBSIM_TRACEIO_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/instruction.h"

namespace btbsim {
struct Program;
}

namespace btbsim::traceio {

/** Any structural problem with a trace file: bad magic, truncation,
 *  CRC mismatch, unsupported version, codec corruption, I/O failure. */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'B', 'T', 'B', 'T', 'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kHeaderBytes = 64;
inline constexpr std::uint32_t kChunkMagic = 0x4b4e4843; // "CHNK"
inline constexpr std::uint32_t kDefaultChunkInsts = 1u << 16;
inline constexpr std::uint32_t kFlagHasProgram = 1u << 0;

/** File extension of recorded traces (with the dot). */
inline constexpr const char *kTraceExt = ".btbt";

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/** Little-endian u32 at @p p (caller guarantees 4 readable bytes). */
inline std::uint32_t
readLeU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

/** Little-endian u64 at @p p (caller guarantees 8 readable bytes). */
inline std::uint64_t
readLeU64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(readLeU32(p)) |
           (static_cast<std::uint64_t>(readLeU32(p + 4)) << 32);
}

// ---------------------------------------------------------------------
// Varint / zigzag primitives.

/** Append @p v as a LEB128 varint (1-10 bytes). */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/** Zigzag-map a signed delta so small magnitudes encode small. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzag(). */
constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** Append a zigzag-encoded signed delta. */
inline void
putZigzag(std::vector<std::uint8_t> &out, std::int64_t v)
{
    putVarint(out, zigzag(v));
}

/**
 * Bounds-checked cursor over a byte range. Every read throws TraceError
 * instead of walking off the end, so truncated files fail cleanly.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : p_(data), end_(data + size)
    {}

    bool done() const { return p_ == end_; }
    std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

    std::uint8_t
    u8()
    {
        if (p_ == end_)
            failTruncated();
        return *p_++;
    }

    std::uint64_t
    varint()
    {
        // Fast path: most deltas are sequential fall-throughs that fit
        // a single byte.
        if (p_ != end_ && *p_ < 0x80)
            return *p_++;
        return varintSlow();
    }

    std::int64_t zigzagVarint() { return unzigzag(varint()); }
    double f64();
    /** Raw byte view of length @p n (advances the cursor). */
    const std::uint8_t *bytes(std::size_t n);

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;

    std::uint64_t varintSlow();
    [[noreturn]] static void failTruncated();
};

// ---------------------------------------------------------------------
// Fixed header.

/** Parsed fixed header plus derived offsets into the file. */
struct TraceHeader
{
    std::uint32_t version = kFormatVersion;
    std::uint64_t inst_count = 0;
    std::uint32_t chunk_count = 0;
    std::uint32_t chunk_target = kDefaultChunkInsts;
    std::uint32_t flags = 0;
    std::string name;

    std::uint64_t program_bytes = 0;
    std::uint32_t program_crc = 0;

    /** File offset of the Program image (== name end). */
    std::uint64_t program_offset = 0;
    /** File offset of the first chunk header. */
    std::uint64_t data_offset = 0;

    bool hasProgram() const { return flags & kFlagHasProgram; }
};

/**
 * Parse and validate the fixed header + name of a mapped trace file.
 * Throws TraceError on bad magic, truncation or a version newer than
 * kFormatVersion.
 */
TraceHeader parseHeader(const std::uint8_t *data, std::size_t size);

// ---------------------------------------------------------------------
// Record codec. The state restarts zeroed at every chunk boundary.

/** Delta-codec state threaded through one chunk's records. */
struct CodecState
{
    Addr expected_pc = 0; ///< Previous record's next_pc.
    Addr prev_mem = 0;    ///< Previous record's mem_addr.
};

/** Append one instruction to a chunk payload. */
void encodeRecord(std::vector<std::uint8_t> &out, CodecState &st,
                  const Instruction &in);

/** Decode one instruction; throws TraceError on truncation or invalid
 *  enum values. */
void decodeRecord(ByteReader &r, CodecState &st, Instruction &out);

/** Worst-case encoded size of one record: flags + two 10-byte varints
 *  + three register bytes + one 10-byte mem varint. */
inline constexpr std::size_t kMaxRecordBytes = 34;

/** Smallest encoded record: flags + two 1-byte varints + three register
 *  bytes, no mem varint. Bounds a chunk's record count by its payload. */
inline constexpr std::size_t kMinRecordBytes = 6;

/**
 * Decode a whole chunk payload (@p count records in @p size bytes) into
 * @p out. This is the replay hot path: records are read with unchecked
 * loads while at least kMaxRecordBytes remain (a record can never
 * consume more, even on garbage input), the tail with bounds-checked
 * reads. Throws TraceError on truncation, invalid enum values, or
 * payload bytes left over after the last record.
 */
void decodeChunkPayload(const std::uint8_t *data, std::size_t size,
                        std::uint32_t count, Instruction *out);

// ---------------------------------------------------------------------
// Static Program image.

/** Serialize @p prog (all fields, bit-exact doubles) into @p out. */
void serializeProgram(const Program &prog, std::vector<std::uint8_t> &out);

/**
 * Inverse of serializeProgram(). Throws TraceError on truncation,
 * invalid enum values, or a Program failing Program::validate().
 */
Program deserializeProgram(const std::uint8_t *data, std::size_t size);

} // namespace btbsim::traceio

#endif // BTBSIM_TRACEIO_FORMAT_H
