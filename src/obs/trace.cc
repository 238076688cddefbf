#include "obs/trace.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace ltp
{
namespace obs
{

std::atomic<std::uint32_t> Tracer::activeMask_{0};

namespace
{

std::string
substitutePid(std::string path)
{
    std::size_t at = path.find("%p");
    if (at != std::string::npos)
        path.replace(at, 2, std::to_string(::getpid()));
    return path;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::start(const TraceConfig &config, NodeId num_nodes)
{
    if (active())
        stop();
    if (config.path.empty())
        return;

    config_ = config;
    numNodes_ = num_nodes;
    recs_.clear();
    dropped_ = 0;
    active_ = true;
    activeMask_.store(config_.categories & allCatsMask,
                      std::memory_order_relaxed);
}

void
Tracer::record(Cat c, bool span, std::uint32_t node, const char *name,
               Tick ts, Tick dur, std::uint64_t a0, std::uint64_t a1)
{
    if (recs_.size() >= config_.eventCap) {
        ++dropped_;
        return;
    }
    Rec rec;
    rec.ts = ts;
    rec.dur = dur;
    rec.a0 = a0;
    rec.a1 = a1;
    rec.name = name;
    rec.node = node;
    rec.cat = std::uint8_t(c);
    rec.span = span;
    recs_.push_back(rec);
}

void
Tracer::stop()
{
    if (!active())
        return;
    activeMask_.store(0, std::memory_order_relaxed);
    active_ = false;

    std::vector<Rec> recs;
    recs.swap(recs_);

    // Perfetto tolerates unsorted input, but a time-sorted file is
    // friendlier to trace_summarize.py and to diffing.
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Rec &a, const Rec &b) { return a.ts < b.ts; });

    std::ofstream out(substitutePid(config_.path));
    if (!out)
        return;

    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
        << dropped_ << "},\"traceEvents\":[\n";
    bool first = true;
    auto comma = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (std::uint32_t node = 0; node < numNodes_; ++node) {
        comma();
        out << "{\"ph\":\"M\",\"pid\":" << node
            << ",\"name\":\"process_name\",\"args\":{\"name\":\"node "
            << node << "\"}}";
    }
    comma();
    out << "{\"ph\":\"M\",\"pid\":" << enginePid
        << ",\"name\":\"process_name\",\"args\":{\"name\":\"engine\"}}";
    char line[256];
    for (const Rec &rec : recs) {
        comma();
        if (rec.span) {
            std::snprintf(line, sizeof(line),
                          "{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\","
                          "\"pid\":%u,\"tid\":0,\"ts\":%llu,"
                          "\"dur\":%llu,\"args\":{\"a0\":%llu,"
                          "\"a1\":%llu}}",
                          catName(Cat(rec.cat)), rec.name, rec.node,
                          (unsigned long long)rec.ts,
                          (unsigned long long)rec.dur,
                          (unsigned long long)rec.a0,
                          (unsigned long long)rec.a1);
        } else {
            std::snprintf(line, sizeof(line),
                          "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"%s\","
                          "\"name\":\"%s\",\"pid\":%u,\"tid\":0,"
                          "\"ts\":%llu,\"args\":{\"a0\":%llu,"
                          "\"a1\":%llu}}",
                          catName(Cat(rec.cat)), rec.name, rec.node,
                          (unsigned long long)rec.ts,
                          (unsigned long long)rec.a0,
                          (unsigned long long)rec.a1);
        }
        out << line;
    }
    out << "\n]}\n";
}

std::vector<Tracer::Rec>
Tracer::tailRecords(std::size_t max_records) const
{
    // The newest emits, ordered by timestamp (a span is emitted when it
    // ends, stamped with its start).
    std::size_t n = std::min(max_records, recs_.size());
    std::vector<Rec> recs(recs_.end() - std::ptrdiff_t(n), recs_.end());
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Rec &a, const Rec &b) { return a.ts < b.ts; });
    return recs;
}

} // namespace obs
} // namespace ltp
