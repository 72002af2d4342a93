#include "obs/span.h"

#include <chrono>
#include <ostream>

#include "obs/json.h"

namespace btbsim::obs {

namespace {

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

thread_local detail::SpanThreadBuf *t_buf = nullptr;

} // namespace

// ---- SpanAgg -----------------------------------------------------------

SpanAgg &
SpanAgg::operator+=(const SpanAgg &o)
{
    count += o.count;
    wall_ns += o.wall_ns;
    return *this;
}

SpanAgg
SpanAgg::minus(const SpanAgg &o) const
{
    auto sub = [](std::uint64_t a, std::uint64_t b) {
        return a >= b ? a - b : 0;
    };
    SpanAgg d;
    d.count = sub(count, o.count);
    d.wall_ns = sub(wall_ns, o.wall_ns);
    return d;
}

// ---- SpanThreadBuf -----------------------------------------------------

namespace detail {

SpanThreadBuf::SpanThreadBuf(std::uint32_t tid)
    : tid_(tid), ring_(kSpanRingCapacity)
{
}

} // namespace detail

// ---- SpanCollector -----------------------------------------------------

SpanCollector &
SpanCollector::instance()
{
    static SpanCollector c;
    return c;
}

SpanCollector::SpanCollector()
{
    epoch_ns_ = steadyNs();
    paths_.push_back({0, ""}); // Root sentinel (id 0).
}

detail::SpanThreadBuf *
SpanCollector::threadBuf()
{
    if (t_buf)
        return t_buf;
    std::lock_guard<std::mutex> lk(mu_);
    threads_.push_back(std::make_unique<detail::SpanThreadBuf>(
        static_cast<std::uint32_t>(threads_.size())));
    t_buf = threads_.back().get();
    return t_buf;
}

std::uint32_t
SpanCollector::intern(std::uint32_t parent, const char *name)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint32_t id = 1; id < paths_.size(); ++id)
        if (paths_[id].parent == parent && paths_[id].name == name)
            return id;
    paths_.push_back({parent, name});
    return static_cast<std::uint32_t>(paths_.size() - 1);
}

void
SpanCollector::begin(detail::SpanThreadBuf *buf, const char *name)
{
    if (buf->depth_ >= detail::SpanThreadBuf::kMaxDepth) {
        ++buf->deep_skips_;
        ++buf->depth_;
        return;
    }
    const std::uint32_t parent =
        buf->depth_ > 0 && buf->depth_ <= detail::SpanThreadBuf::kMaxDepth
            ? buf->stack_[buf->depth_ - 1].path
            : 0;
    // Pointer-keyed per-thread memo; the slow path interns by content so
    // identical literals from different TUs share one id.
    const auto memo_key = std::make_pair(parent,
                                         static_cast<const void *>(name));
    std::uint32_t id;
    auto it = buf->intern_memo_.find(memo_key);
    if (it != buf->intern_memo_.end()) {
        id = it->second;
    } else {
        id = intern(parent, name);
        buf->intern_memo_.emplace(memo_key, id);
    }

    detail::SpanThreadBuf::Frame &f = buf->stack_[buf->depth_++];
    f.path = id;
    f.start_ns = steadyNs();
}

void
SpanCollector::end(detail::SpanThreadBuf *buf)
{
    if (buf->depth_ == 0)
        return; // Unbalanced end (collector reset under an open span).
    if (buf->depth_ > detail::SpanThreadBuf::kMaxDepth) {
        --buf->depth_; // Matching a begin skipped for depth.
        return;
    }
    const std::uint64_t end_ns = steadyNs();
    const detail::SpanThreadBuf::Frame &f = buf->stack_[--buf->depth_];

    SpanRecord rec;
    rec.path = f.path;
    rec.depth = static_cast<std::uint16_t>(buf->depth_);
    rec.start_ns = f.start_ns > epoch_ns_ ? f.start_ns - epoch_ns_ : 0;
    rec.dur_ns = end_ns > f.start_ns ? end_ns - f.start_ns : 0;

    // Aggregate first (complete), then ring (most recent window).
    SpanAgg &a = buf->agg_[f.path];
    ++a.count;
    a.wall_ns += rec.dur_ns;

    buf->ring_[(buf->head_ + buf->count_) % buf->ring_.size()] = rec;
    if (buf->count_ < buf->ring_.size())
        ++buf->count_;
    else {
        buf->head_ = (buf->head_ + 1) % buf->ring_.size();
        ++buf->dropped_;
    }
}

std::string
SpanCollector::pathName(std::uint32_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    // Path chains are shallow (span nesting depth); build backwards.
    std::vector<const std::string *> parts;
    while (id != 0 && id < paths_.size()) {
        parts.push_back(&paths_[id].name);
        id = paths_[id].parent;
    }
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty())
            out += '/';
        out += **it;
    }
    return out;
}

SpanCollector::ThreadMark
SpanCollector::mark()
{
    ThreadMark m;
    if (!enabled())
        return m;
    m.buf = threadBuf();
    m.agg = m.buf->agg_;
    return m;
}

SpanProfile
SpanCollector::aggregateSince(const ThreadMark &m) const
{
    SpanProfile out;
    if (!m.buf)
        return out;
    for (const auto &[id, agg] : m.buf->agg_) {
        SpanAgg delta = agg;
        if (auto it = m.agg.find(id); it != m.agg.end())
            delta = agg.minus(it->second);
        if (delta.count > 0)
            out[pathName(id)] += delta;
    }
    return out;
}

void
SpanCollector::writeChromeTrace(std::ostream &os) const
{
    // Collect (record, tid) rows under the lock, resolve names after.
    std::vector<std::pair<SpanRecord, std::uint32_t>> rows;
    std::uint64_t dropped = 0;
    std::size_t n_threads = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        n_threads = threads_.size();
        for (const auto &t : threads_) {
            dropped += t->dropped_ + t->deep_skips_;
            for (std::size_t i = 0; i < t->count_; ++i)
                rows.emplace_back(
                    t->ring_[(t->head_ + i) % t->ring_.size()], t->tid());
        }
    }

    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData");
    w.beginObject();
    w.kv("generator", "btbsim");
    w.kv("dropped_spans", dropped);
    w.endObject();
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t tid = 0; tid < n_threads; ++tid) {
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(tid));
        w.key("args");
        w.beginObject();
        w.kv("name", tid == 0 ? "main" : ("worker-" + std::to_string(tid)));
        w.endObject();
        w.endObject();
    }
    for (const auto &[rec, tid] : rows) {
        w.beginObject();
        w.kv("name", pathName(rec.path));
        w.kv("cat", "btbsim");
        w.kv("ph", "X");
        // Chrome trace timestamps and durations are microseconds.
        w.kv("ts", static_cast<double>(rec.start_ns) / 1000.0);
        w.kv("dur", static_cast<double>(rec.dur_ns) / 1000.0);
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(tid));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
SpanCollector::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    threads_.clear();
    t_buf = nullptr;
    paths_.clear();
    paths_.push_back({0, ""});
    epoch_ns_ = steadyNs();
}

} // namespace btbsim::obs
