/**
 * @file
 * Reading `.btbt` traces: the mmap-backed TraceReplaySource.
 */

#ifndef BTBSIM_TRACEIO_TRACE_READER_H
#define BTBSIM_TRACEIO_TRACE_READER_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.h"
#include "traceio/format.h"

namespace btbsim::traceio {

/**
 * Replays a recorded `.btbt` file as a TraceSource.
 *
 * Only the instruction stream is decoded. A Program image in the file
 * is bounded and CRC-checked on open, then skipped.
 *
 * The file is mmapped and streamed through one reused chunk buffer: each
 * chunk is decoded when the cursor enters it, so a wrap or reset decodes
 * again. A run that must be bit-identical to the live source consumes
 * less than the recording (see below), so it decodes every chunk once.
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
 * concurrent engine workers must each construct their own — sharing
 * one instance across threads is a data race by design (next() mutates
 * cursor state; no lock serializes callers).
 */
class TraceReplaySource : public TraceSource
{
  public:
    /** Opens and validates @p path; throws TraceError on any problem. */
    explicit TraceReplaySource(const std::string &path);

    const Instruction &next() override;
    void reset() override;
    std::string name() const override { return header_.name; }

    std::uint64_t instructionCount() const { return header_.inst_count; }
    /** Times the stream wrapped back to the first chunk. */
    std::uint64_t wraps() const { return wraps_; }

  private:
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
        std::uint32_t crc = 0; ///< Stored payload CRC.

        std::uint64_t payloadOffset() const { return offset + 16; }
    };

    std::string path_;
    MappedFile map_;
    TraceHeader header_;
    std::vector<ChunkInfo> chunks_;
    /// The mapping is immutable, so each chunk's CRC is verified only
    /// on its first decode (wraps and resets then skip the scan).
    std::vector<bool> crc_checked_;

    // Consumer-side cursor over buf_, the decoded current chunk.
    std::vector<Instruction> buf_;
    std::size_t pos_ = 0;
    std::size_t cur_chunk_ = 0; ///< Chunk index buf_ holds.
    std::size_t seam_chunk_ = 0; ///< Last non-empty chunk (wrap seam).
    Addr first_pc_ = 0;
    bool first_pc_set_ = false;
    std::uint64_t wraps_ = 0;

    static std::vector<ChunkInfo>
    readChunkDirectory(const std::string &path, const MappedFile &map,
                       const TraceHeader &header);
    /** Decode chunk @p idx into buf_ and rewrite the wrap seam. */
    void load(std::size_t idx);
    void advance();
};

} // namespace btbsim::traceio

#endif // BTBSIM_TRACEIO_TRACE_READER_H
