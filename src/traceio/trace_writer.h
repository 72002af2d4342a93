/**
 * @file
 * Writing `.btbt` traces: TraceWriter appends instructions chunk by
 * chunk. To record a live TraceSource, append each next() it delivers.
 */

#ifndef BTBSIM_TRACEIO_TRACE_WRITER_H
#define BTBSIM_TRACEIO_TRACE_WRITER_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "traceio/format.h"

namespace btbsim::traceio {

/**
 * Streams instructions into a `.btbt` file. Records are delta/varint
 * packed into chunks of @c chunk_insts instructions, each with its own
 * CRC32. finish() (or destruction) flushes the tail chunk and patches
 * the instruction/chunk counts into the header.
 */
class TraceWriter
{
  public:
    struct Options
    {
        std::uint32_t chunk_insts = kDefaultChunkInsts;
    };

    /**
     * Open @p path for writing and emit the header. @p stream_name is
     * the workload name replay will report; @p program (may be null) is
     * serialized into the header, and replay validates it against its
     * CRC. Throws TraceError when the file cannot be created.
     */
    TraceWriter(const std::string &path, const std::string &stream_name,
                const Program *program, Options opt);
    TraceWriter(const std::string &path, const std::string &stream_name,
                const Program *program)
        : TraceWriter(path, stream_name, program, Options())
    {}

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** finish()es if that has not been done explicitly (errors ignored). */
    ~TraceWriter();

    /** Append one instruction. Throws TraceError on I/O failure. */
    void append(const Instruction &in);

    /** Flush the tail chunk, patch the header, close the file. Throws
     *  TraceError on I/O failure. Idempotent. */
    void finish();

  private:
    std::string path_;
    std::ofstream os_;
    std::uint32_t chunk_insts_;

    std::vector<std::uint8_t> payload_;
    CodecState codec_;
    std::uint32_t chunk_records_ = 0;

    std::uint64_t inst_count_ = 0;
    std::uint32_t chunk_count_ = 0;
    bool finished_ = false;

    void flushChunk();
};

} // namespace btbsim::traceio

#endif // BTBSIM_TRACEIO_TRACE_WRITER_H
