/**
 * @file
 * Outside-in tracing for ltpbench: in-memory spans around the
 * benchmark's own calls into the simulator's public API, per-call
 * tallies for calls too frequent to keep one span each, and a timing
 * wrapper that forwards every InvalidationPredictor call.
 *
 * Nothing here reaches inside src/: the layers are read from outside,
 * through their public interfaces and getters.
 */

#ifndef LTPBENCH_TRACE_HH
#define LTPBENCH_TRACE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "predictor/invalidation_predictor.hh"

namespace ltpbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Count and summed duration of one kind of frequent call. */
struct CallTally
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void
    add(Clock::time_point a, Clock::time_point b)
    {
        ++calls;
        ns += nsBetween(a, b);
    }

    CallTally &
    operator+=(const CallTally &o)
    {
        calls += o.calls;
        ns += o.ns;
        return *this;
    }

    /** Summed time net of @p empty_ns, the cost of an empty span. */
    double
    netNs(double empty_ns) const
    {
        return std::max(0.0, double(ns) - double(calls) * empty_ns);
    }
};

/**
 * Spans of one benchmark run. Each span has a name, start, end, parent
 * span and the id of the cell (one experiment) it belongs to; spans of
 * one cell share that id. Frequent calls (predictor calls, sends,
 * deliveries) are kept as per-cell tallies instead of one span each.
 * Everything stays in memory until write() at the end of the run.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Open a span; returns its index (the parent of nested spans). */
    int
    open(const char *name, int cell, int parent, Clock::time_point start)
    {
        spans_.push_back(Span{name, cell, parent, start, {}});
        return int(spans_.size()) - 1;
    }

    void
    close(int span, Clock::time_point end)
    {
        spans_[std::size_t(span)].end = end;
    }

    void
    tally(int cell, const char *name, const CallTally &t)
    {
        tallies_.push_back(Tally{name, cell, t});
    }

    /** Write every span and tally as one JSON document. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"spans\": [");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n {\"id\": %zu, \"name\": \"%s\", "
                         "\"cell\": %d, \"parent\": %d, "
                         "\"start_ns\": %lld, \"end_ns\": %lld}",
                         i ? "," : "", i, s.name, s.cell, s.parent,
                         (long long)nsBetween(origin_, s.start),
                         (long long)nsBetween(origin_, s.end));
        }
        std::fprintf(f, "\n], \"tallies\": [");
        for (std::size_t i = 0; i < tallies_.size(); ++i) {
            const Tally &t = tallies_[i];
            std::fprintf(f,
                         "%s\n {\"name\": \"%s\", \"cell\": %d, "
                         "\"calls\": %llu, \"ns\": %lld}",
                         i ? "," : "", t.name, t.cell,
                         (unsigned long long)t.tally.calls,
                         (long long)t.tally.ns);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        int cell;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };
    struct Tally
    {
        const char *name;
        int cell;
        CallTally tally;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<Tally> tallies_;
};

/**
 * Times one interval and, when a log is given, records it as a span
 * with the same two clock reads.
 */
class Stopwatch
{
  public:
    Stopwatch(SpanLog *log, const char *name, int cell, int parent)
        : log_(log), start_(Clock::now()),
          span_(log ? log->open(name, cell, parent, start_) : -1)
    {
    }

    /** The span's index, or -1 without a log. */
    int span() const { return span_; }

    /** Close the span; returns the elapsed seconds. */
    double
    stop()
    {
        auto end = Clock::now();
        if (log_)
            log_->close(span_, end);
        return double(nsBetween(start_, end)) * 1e-9;
    }

  private:
    SpanLog *log_;
    Clock::time_point start_;
    int span_;
};

/** Host time of the predictor calls of one cell, over all nodes. */
struct PredictorTally
{
    CallTally touch; //!< onTouch
    CallTally other; //!< every other InvalidationPredictor call

    std::uint64_t calls() const { return touch.calls + other.calls; }
};

/**
 * Forwards every InvalidationPredictor call to the node's own predictor
 * and times it. Installed per node through the public
 * CacheController::setPredictor; the wrapped predictor keeps its own
 * port, so self-invalidation requests still reach the controller.
 */
class TimedPredictor final : public ltp::InvalidationPredictor
{
  public:
    TimedPredictor(ltp::InvalidationPredictor &inner, PredictorTally &tally)
        : inner_(inner), tally_(tally)
    {
    }

    bool
    onTouch(ltp::Addr blk, ltp::Pc pc, bool is_write, bool fill) override
    {
        auto t0 = Clock::now();
        bool last = inner_.onTouch(blk, pc, is_write, fill);
        tally_.touch.add(t0, Clock::now());
        return last;
    }

    void
    onInvalidation(ltp::Addr blk) override
    {
        auto t0 = Clock::now();
        inner_.onInvalidation(blk);
        tally_.other.add(t0, Clock::now());
    }

    void
    onVerification(ltp::Addr blk, bool premature) override
    {
        auto t0 = Clock::now();
        inner_.onVerification(blk, premature);
        tally_.other.add(t0, Clock::now());
    }

    void
    onFillInfo(ltp::Addr blk, const ltp::FillInfo &info) override
    {
        auto t0 = Clock::now();
        inner_.onFillInfo(blk, info);
        tally_.other.add(t0, Clock::now());
    }

    void
    onSyncBoundary() override
    {
        auto t0 = Clock::now();
        inner_.onSyncBoundary();
        tally_.other.add(t0, Clock::now());
    }

    std::string name() const override { return inner_.name(); }

    std::optional<ltp::StorageStats>
    storage() const override
    {
        return inner_.storage();
    }

  private:
    ltp::InvalidationPredictor &inner_;
    PredictorTally &tally_;
};

/**
 * Median host cost of an empty span (two clock reads), subtracted from
 * per-call tallies so that they report the wrapped call's own time.
 */
inline double
emptySpanNs()
{
    constexpr int rounds = 15;
    constexpr int reps = 20000;
    std::vector<double> perSpan;
    for (int r = 0; r < rounds; ++r) {
        CallTally t;
        for (int i = 0; i < reps; ++i) {
            auto a = Clock::now();
            t.add(a, Clock::now());
        }
        perSpan.push_back(double(t.ns) / reps);
    }
    std::sort(perSpan.begin(), perSpan.end());
    return perSpan[perSpan.size() / 2];
}

} // namespace ltpbench

#endif // LTPBENCH_TRACE_HH
