#include "traceio/trace_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>


namespace btbsim::traceio {

// ---------------------------------------------------------------------
// MappedFile.

TraceReplaySource::MappedFile::MappedFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceError("cannot open trace file " + path);
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok && st.st_size > 0) {
        void *p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        ok = p != MAP_FAILED;
        if (ok) {
            data_ = static_cast<const std::uint8_t *>(p);
            size_ = static_cast<std::size_t>(st.st_size);
        }
    }
    ::close(fd);
    if (!ok)
        throw TraceError("cannot map trace file " + path);
}

TraceReplaySource::MappedFile::~MappedFile()
{
    if (data_)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
}

namespace {

TraceError
chunkError(const std::string &path, const char *what, std::uint32_t i)
{
    return TraceError(path + ": " + what + " (chunk " + std::to_string(i) +
                      ")");
}

} // namespace

/**
 * Walk the chunk directory with pure bounds checks. Throws TraceError
 * on bad framing, on a record count the payload cannot hold (every
 * record takes at least kMinRecordBytes), and on record counts that
 * disagree with the header. Nothing is sized from a header count before
 * the file has been seen to hold it.
 */
std::vector<TraceReplaySource::ChunkInfo>
TraceReplaySource::readChunkDirectory(const std::string &path,
                                      const MappedFile &map,
                                      const TraceHeader &header)
{
    std::vector<ChunkInfo> chunks;
    std::uint64_t off = header.data_offset;
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < header.chunk_count; ++i) {
        if (map.size() - off < 16)
            throw chunkError(path, "truncated chunk header", i);
        const std::uint8_t *h = map.data() + off;
        if (readLeU32(h) != kChunkMagic)
            throw chunkError(path, "bad chunk magic", i);
        ChunkInfo c;
        c.offset = off;
        c.records = readLeU32(h + 4);
        c.payload_bytes = readLeU32(h + 8);
        c.crc = readLeU32(h + 12);
        if (map.size() - c.payloadOffset() < c.payload_bytes)
            throw chunkError(path, "truncated chunk payload", i);
        if (c.records > c.payload_bytes / kMinRecordBytes)
            throw chunkError(
                path, "record count exceeds what the payload can hold", i);
        off = c.payloadOffset() + c.payload_bytes;
        total += c.records;
        chunks.push_back(c);
    }
    if (total != header.inst_count)
        throw TraceError(path + ": chunk record counts disagree with the "
                         "header instruction count");
    return chunks;
}

TraceReplaySource::TraceReplaySource(const std::string &path)
    : path_(path), map_(path)
{
    header_ = parseHeader(map_.data(), map_.size());

    if (header_.hasProgram()) {
        const std::uint8_t *blob = map_.data() + header_.program_offset;
        const auto n = static_cast<std::size_t>(header_.program_bytes);
        if (crc32(blob, n) != header_.program_crc)
            throw TraceError(path + ": Program image CRC mismatch");
        program_ = std::make_unique<Program>(deserializeProgram(blob, n));
    }

    // Payload CRCs are verified lazily as chunks are decoded.
    chunks_ = readChunkDirectory(path, map_, header_);
    if (header_.inst_count == 0)
        throw TraceError(path + ": trace holds no instructions");
    crc_checked_.assign(chunks_.size(), false);

    // The wrap seam lives in the last non-empty chunk; its tail gets
    // rewritten on load.
    seam_chunk_ = chunks_.size() - 1;
    while (seam_chunk_ > 0 && chunks_[seam_chunk_].records == 0)
        --seam_chunk_;

    reset();
}

void
TraceReplaySource::load(std::size_t idx)
{
    const ChunkInfo &c = chunks_[idx];
    const std::uint8_t *payload = map_.data() + c.payloadOffset();
    if (!crc_checked_[idx]) {
        if (crc32(payload, c.payload_bytes) != c.crc)
            throw TraceError(path_ + ": payload CRC mismatch (chunk " +
                             std::to_string(idx) + ")");
        crc_checked_[idx] = true;
    }
    // Avoid resize()'s value-initialization when the buffer is reused at
    // the same size (every full chunk): decode overwrites each element.
    if (buf_.size() != c.records) {
        buf_.clear();
        buf_.resize(c.records);
    }
    try {
        decodeChunkPayload(payload, c.payload_bytes, c.records, buf_.data());
    } catch (const TraceError &e) {
        throw TraceError(path_ + ": " + e.what() + " (chunk " +
                         std::to_string(idx) + ")");
    }

    cur_chunk_ = idx;
    pos_ = 0;
    if (buf_.empty())
        return;
    if (!first_pc_set_) {
        first_pc_ = buf_.front().pc;
        first_pc_set_ = true;
    }

    // Control-flow-consistent wrap seam: the frontend asserts that each
    // instruction's next_pc matches the following pc, so the recorded
    // tail is rewritten into a jump back to the recorded head.
    if (idx == seam_chunk_) {
        Instruction &tail = buf_.back();
        if (tail.next_pc != first_pc_) {
            tail.cls = InstClass::kBranch;
            tail.branch = BranchClass::kUncondDirect;
            tail.taken = true;
            tail.next_pc = first_pc_;
            tail.mem_addr = 0;
        }
    }
}

void
TraceReplaySource::advance()
{
    // Skip empty chunks, but never loop forever on an all-empty file
    // (the constructor rejects inst_count == 0).
    for (std::size_t guard = 0; guard <= chunks_.size(); ++guard) {
        std::size_t idx = cur_chunk_ + 1;
        if (idx == chunks_.size()) {
            idx = 0;
            ++wraps_;
        }
        load(idx);
        if (!buf_.empty())
            return;
    }
    throw TraceError(path_ + ": no decodable instructions");
}

const Instruction &
TraceReplaySource::next()
{
    if (pos_ >= buf_.size())
        advance();
    return buf_[pos_++];
}

void
TraceReplaySource::reset()
{
    wraps_ = 0;
    load(0);
    while (buf_.empty())
        advance();
}

} // namespace btbsim::traceio
