/**
 * @file
 * The `.btbt` binary trace format — constants, header, varint/delta codec
 * and static-Program serialization (written, never decoded).
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
 *   [64, ..)  stream name, then the serialized Program image
 *             (replay checks its CRC and skips it), then chunk_count
 *             chunks.
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
 * Throws TraceError on bad magic, a version newer than kFormatVersion,
 * a name or Program image extending past the end of the file, or a
 * Program flag that disagrees with the image size.
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

/** Worst-case encoded size of one record: flags + two 10-byte varints
 *  + three register bytes + one 10-byte mem varint. */
inline constexpr std::size_t kMaxRecordBytes = 34;

/** Smallest encoded record: flags + two 1-byte varints + three register
 *  bytes, no mem varint. Bounds a chunk's record count by its payload. */
inline constexpr std::size_t kMinRecordBytes = 6;

/**
 * Decode a whole chunk payload (@p count records in @p size bytes) into
 * @p out. This is the one record decoder and the replay hot path: every
 * record is read with unchecked loads, in place while at least
 * kMaxRecordBytes remain (a record can never consume more, even on
 * garbage input) and from a zero-padded copy of the shorter tail.
 * Throws TraceError on a record cut short by the payload end
 * ("truncated"), an overlong varint, invalid enum values, or payload
 * bytes left over after the last record.
 */
void decodeChunkPayload(const std::uint8_t *data, std::size_t size,
                        std::uint32_t count, Instruction *out);

// ---------------------------------------------------------------------
// Static Program image.

/**
 * Serialize @p prog (all fields, bit-exact doubles) into @p out, for the
 * optional image after a trace's name. Replay checks the image's extent
 * and CRC, then skips it: nothing decodes it.
 */
void serializeProgram(const Program &prog, std::vector<std::uint8_t> &out);

} // namespace btbsim::traceio

#endif // BTBSIM_TRACEIO_FORMAT_H
