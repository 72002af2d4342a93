/**
 * @file
 * Hierarchical host-time span tracer: where do the *simulator's* cycles
 * go? ObsSpan is an RAII region marker (steady-clock nanoseconds); spans
 * nest through a thread-local stack, so a span's path is the '/'-joined
 * chain of its ancestors ("point/sim.run"). Every thread owns its own
 * buffer — engine workers record concurrently without locks on the hot
 * path.
 *
 * The recorder serves btbbench's per-layer ledger (`--trace 1`), its one
 * client. Two products come out of a traced region:
 *
 *  - A complete per-path aggregate (count and wall time). Aggregation is
 *    incremental at span end, so it never loses data to ring overflow;
 *    mark()/aggregateSince() take the slice of one thread's spans
 *    around a region.
 *
 *  - A bounded ring of the most recent kSpanRingCapacity records per
 *    thread (overflow increments a dropped counter), exported as Chrome
 *    trace-event JSON (writeChromeTrace) that loads directly in
 *    Perfetto / chrome://tracing.
 *
 * Recording starts off; setEnabled(true) turns it on. Off, a span costs
 * one relaxed atomic load; on, it adds two steady-clock reads.
 */

#ifndef BTBSIM_OBS_SPAN_H
#define BTBSIM_OBS_SPAN_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace btbsim::obs {

/** Aggregate of every completed span sharing one path. */
struct SpanAgg
{
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0; ///< Summed steady-clock duration.

    SpanAgg &operator+=(const SpanAgg &o);
    /** Saturating subtraction, member-wise (for mark/delta captures). */
    SpanAgg minus(const SpanAgg &o) const;

    bool operator==(const SpanAgg &) const = default;
};

/** Per-path aggregate table keyed by the '/'-joined span path. */
using SpanProfile = std::map<std::string, SpanAgg>;

/** Span records each thread's ring keeps for the Chrome trace. */
constexpr std::size_t kSpanRingCapacity = 4096;

/** One retained span record (Chrome-trace export granularity). */
struct SpanRecord
{
    std::uint32_t path = 0; ///< Interned path id (SpanCollector::pathName).
    std::uint16_t depth = 0;
    std::uint64_t start_ns = 0; ///< Relative to the collector epoch.
    std::uint64_t dur_ns = 0;
};

class SpanCollector;

namespace detail {

/** Per-thread span storage; only its owning thread writes it. */
class SpanThreadBuf
{
  public:
    /** @p main: the owning thread is the one that runs main(). */
    SpanThreadBuf(std::uint32_t tid, bool main);

    std::uint32_t tid() const { return tid_; }

  private:
    friend class btbsim::obs::SpanCollector;

    static constexpr std::size_t kMaxDepth = 64;

    struct Frame
    {
        std::uint32_t path = 0;
        std::uint64_t start_ns = 0;
    };

    std::uint32_t tid_;
    bool main_; ///< Owned by the thread that runs main().

    Frame stack_[kMaxDepth];
    std::size_t depth_ = 0;
    std::uint64_t deep_skips_ = 0; ///< Spans beyond kMaxDepth (untimed).

    // Most-recent-window ring of records (Chrome trace export).
    std::vector<SpanRecord> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0; ///< Records evicted from the ring.

    // Complete per-path aggregation (never drops).
    std::map<std::uint32_t, SpanAgg> agg_;

    // Pointer-keyed memo of (parent path, name literal) -> path id, so
    // steady-state begin() never takes the collector's intern lock.
    std::map<std::pair<std::uint32_t, const void *>, std::uint32_t>
        intern_memo_;
};

} // namespace detail

/**
 * Process-wide span registry: thread buffers, the interned path table,
 * aggregation and export. All reads (aggregate/trace export) are
 * intended for quiescent points — after worker threads joined —
 * and take the registration lock; recording itself is lock-free once a
 * thread's buffer and path memo are warm.
 */
class SpanCollector
{
  public:
    static SpanCollector &instance();

    /** Recording gate; off until setEnabled(true). */
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    /** Open or close the gate; affects spans opened afterwards. */
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** '/'-joined path of interned id @p id ("point/sim.run"). */
    std::string pathName(std::uint32_t id) const;

    /**
     * Snapshot of the calling thread's aggregate table, for delta
     * captures around a region (see aggregateSince).
     */
    struct ThreadMark
    {
        detail::SpanThreadBuf *buf = nullptr;
        std::map<std::uint32_t, SpanAgg> agg;
    };

    ThreadMark mark();

    /**
     * Spans completed on the calling thread since @p m, as a path-keyed
     * profile. Spans still open at the call (including the region's own
     * enclosing span) are not part of the delta.
     */
    SpanProfile aggregateSince(const ThreadMark &m) const;

    /**
     * Retained span records of every thread as Chrome trace-event JSON
     * ("traceEvents" array of "ph":"X" complete events plus thread-name
     * metadata: "main" for the thread that runs main(), "worker-<tid>"
     * for every other). Loads in Perfetto / chrome://tracing.
     * "otherData.dropped_spans" counts the records evicted from the rings
     * (and spans nested too deep to time).
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Drop all recorded data and thread buffers (tests only; callers
     *  must guarantee no span is open on any thread). */
    void reset();

    // ---- recording (ObsSpan only) -------------------------------------
    detail::SpanThreadBuf *threadBuf();
    void begin(detail::SpanThreadBuf *buf, const char *name);
    void end(detail::SpanThreadBuf *buf);

  private:
    SpanCollector();

    struct PathNode
    {
        std::uint32_t parent = 0; ///< 0 = root (no parent).
        std::string name;
    };

    std::uint32_t intern(std::uint32_t parent, const char *name);

    std::atomic<bool> enabled_{false};
    std::uint64_t epoch_ns_ = 0; ///< steady_clock origin of start_ns.

    mutable std::mutex mu_; ///< Guards threads_ and paths_.
    std::vector<std::unique_ptr<detail::SpanThreadBuf>> threads_;
    /** Index 0 is the root sentinel; ids are indices into this table. */
    std::vector<PathNode> paths_;
};

/**
 * RAII span: times the enclosing scope under @p name. @p name must be a
 * string literal (it is interned by pointer identity per thread).
 *
 *   { obs::ObsSpan span("measure"); ...measurement loop... }
 *
 * Exception-safe by construction: unwinding runs the destructor, so a
 * throwing region still closes its span with the time spent until the
 * throw.
 */
class ObsSpan
{
  public:
    explicit ObsSpan(const char *name)
    {
        SpanCollector &c = SpanCollector::instance();
        if (!c.enabled())
            return;
        buf_ = c.threadBuf();
        c.begin(buf_, name);
    }

    ~ObsSpan()
    {
        if (buf_)
            SpanCollector::instance().end(buf_);
    }

    ObsSpan(const ObsSpan &) = delete;
    ObsSpan &operator=(const ObsSpan &) = delete;

  private:
    detail::SpanThreadBuf *buf_ = nullptr;
};

} // namespace btbsim::obs

#endif // BTBSIM_OBS_SPAN_H
