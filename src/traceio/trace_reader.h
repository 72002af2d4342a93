/**
 * @file
 * Reading `.btbt` traces: the mmap-backed TraceReplaySource plus the
 * inspection/verification helpers behind `btbsim-trace info|verify`.
 */

#ifndef BTBSIM_TRACEIO_TRACE_READER_H
#define BTBSIM_TRACEIO_TRACE_READER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/program.h"
#include "trace/trace_source.h"
#include "traceio/format.h"

namespace btbsim::traceio {

/** Read-only mmap of a whole file (an empty file maps to an empty
 *  view). Unmaps on destruction. */
class MappedFile
{
  public:
    /** Throws TraceError naming @p path when it cannot be opened or
     *  mapped. */
    explicit MappedFile(const std::string &path);
    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

/** Framing of one chunk, as read from its 16-byte header. */
struct ChunkInfo
{
    std::uint64_t offset = 0; ///< File offset of the chunk header.
    std::uint32_t records = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t crc = 0;  ///< Stored payload CRC.
    bool crc_ok = true;     ///< Payload CRC verdict (inspectTrace only).

    std::uint64_t payloadOffset() const { return offset + 16; }
};

/**
 * Replays a recorded `.btbt` file as a TraceSource.
 *
 * The file is mmapped and decoded one chunk at a time. Traces whose
 * decoded form fits the cache budget (Options::cache_budget_bytes,
 * 256 MB) are decoded at most once per chunk and delivered straight
 * from the cached buffers afterwards — wraps and resets cost nothing
 * but a pointer move, which is what makes replay delivery much faster
 * than live generation. Larger traces stream through one buffer that
 * is re-decoded chunk by chunk. Delivery is identical in both modes.
 *
 * When the consumer outruns the recording the stream wraps to the first
 * chunk; if the recorded tail does not already jump to the recorded
 * head, the seam instruction is rewritten as a taken unconditional
 * direct branch so the stream stays control-flow consistent (see
 * pcgen's cursor assertion). Runs that must be bit-identical to the
 * live source therefore need a recording at least as long as the
 * instructions they consume.
 *
 * Instances are self-contained (own mapping and buffers), so
 * concurrent runMatrix workers must each construct their own — sharing
 * one instance across threads is a data race by design (next() mutates
 * cursor state; no lock serializes callers).
 */
class TraceReplaySource : public TraceSource
{
  public:
    struct Options
    {
        /** Decoded-chunk cache limit in bytes; 0 forces streaming. */
        std::uint64_t cache_budget_bytes = 256ull << 20;
    };

    /** Opens and validates @p path; throws TraceError on any problem. */
    explicit TraceReplaySource(const std::string &path);
    TraceReplaySource(const std::string &path, Options opt);

    const Instruction &next() override;
    void reset() override;
    std::string name() const override { return header_.name; }
    const Program *codeImage() const override
    {
        return program_ ? program_.get() : nullptr;
    }

    const TraceHeader &header() const { return header_; }
    std::uint64_t instructionCount() const { return header_.inst_count; }
    /** Times the stream wrapped back to the first chunk. */
    std::uint64_t wraps() const { return wraps_; }

  private:
    std::string path_;
    MappedFile map_;
    TraceHeader header_;
    std::vector<ChunkInfo> chunks_;
    std::unique_ptr<Program> program_;
    /// The mapping is immutable, so each chunk's CRC is verified only
    /// on its first decode (wraps and resets then skip the scan).
    std::vector<bool> crc_checked_;

    // Consumer-side cursor. cur_ points at the buffer being delivered:
    // a cache_ slot in cached mode, stream_buf_ in streaming mode.
    // Read-only: the only mutation (the wrap-seam rewrite) goes through
    // the seam chunk's own buffer.
    const std::vector<Instruction> *cur_ = nullptr;
    std::size_t pos_ = 0;
    std::size_t cur_chunk_ = 0; ///< Chunk index cur_ holds.
    std::size_t seam_chunk_ = 0; ///< Last non-empty chunk (wrap seam).
    Addr first_pc_ = 0;
    bool first_pc_set_ = false;
    std::uint64_t wraps_ = 0;

    // Decode-once cache (cached mode).
    bool cached_mode_ = false;
    std::vector<std::vector<Instruction>> cache_;
    std::vector<bool> cache_valid_;

    // Streaming buffer (oversized traces).
    std::vector<Instruction> stream_buf_;

    void decodeChunk(std::size_t idx, std::vector<Instruction> &out);
    const std::vector<Instruction> &chunkBuffer(std::size_t idx);
    /** Decode (or fetch from the cache) chunk @p idx into cur_ and
     *  install it. */
    void load(std::size_t idx);
    void installFront(std::size_t idx);
    void advance();
};

/** Everything `btbsim-trace info` prints about a file. */
struct TraceFileInfo
{
    TraceHeader header;
    std::uint64_t file_bytes = 0;
    bool program_crc_ok = true;
    std::vector<ChunkInfo> chunks;
};

/**
 * Walk the container structure of @p path; with @p check_crc also
 * verify the Program image and every chunk payload CRC. Structural
 * damage (bad magic, truncation, bad chunk framing) throws TraceError;
 * CRC mismatches are reported per chunk instead.
 */
TraceFileInfo inspectTrace(const std::string &path, bool check_crc);

/**
 * Full verification: container walk, all CRCs, and a complete decode
 * of every chunk. Returns a human-readable problem list (empty = ok);
 * never throws for file-content problems.
 */
std::vector<std::string> verifyTrace(const std::string &path);

} // namespace btbsim::traceio

#endif // BTBSIM_TRACEIO_TRACE_READER_H
