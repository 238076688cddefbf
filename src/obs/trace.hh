/**
 * @file
 * Zero-perturbation event tracer: Chrome-trace/Perfetto JSON output.
 *
 * The tracer records compact fixed-size event records into one buffer
 * while the simulation runs and serializes them to one Chrome-trace
 * JSON file (loadable at https://ui.perfetto.dev) when the run ends.
 * It is strictly observer-only:
 *
 *  - Nothing here touches the EventQueue, a StatGroup, or any simulated
 *    state, so every golden output and statistics dump is byte-identical
 *    with tracing on or off.
 *
 *  - The disabled fast path is one load + test of a cached bitmask
 *    (Tracer::on()); call sites compile to a predictable untaken branch.
 *    Defining LTP_OBS_DISABLE_TRACE removes even that: every emit
 *    helper becomes an empty inline function.
 *
 *  - The enabled path appends to a vector. A hard record cap bounds
 *    memory; records beyond it are counted (`dropped` in the JSON
 *    metadata), never silently lost.
 *
 * Track model: pid = simulated node (process track). Engine-internal
 * events (windowed rounds) have no node; they ride a synthetic
 * "engine" process at pid = enginePid. Timestamps are simulated ticks
 * written as trace microseconds: 1 us in the viewer == 1 simulated
 * cycle.
 *
 * The tracer is a process-wide singleton (like Debug in sim/log.hh):
 * components emit without threading a pointer through every
 * constructor, and exactly one traced run is active at a time (a second
 * start() flushes and restarts).
 */

#ifndef LTP_OBS_TRACE_HH
#define LTP_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/categories.hh"
#include "sim/types.hh"

namespace ltp
{
namespace obs
{

/** Synthetic pid of the engine's (node-less) track. */
constexpr std::uint32_t enginePid = 1'000'000;

/** Tracer configuration (threaded through SystemParams::obs). */
struct TraceConfig
{
    /** Output path; "%p" expands to the process id. Empty = disabled. */
    std::string path;
    /** Category mask (see obs/categories.hh); default: everything. */
    std::uint32_t categories = allCatsMask;
    /** Hard cap on buffered records. */
    std::size_t eventCap = std::size_t(1) << 20;
};

class Tracer
{
  public:
    /** The process-wide tracer. */
    static Tracer &instance();

    /** True when category @p c is being traced (the hot-path guard). */
    static bool
    on(Cat c)
    {
#ifdef LTP_OBS_DISABLE_TRACE
        (void)c;
        return false;
#else
        return (activeMask_.load(std::memory_order_relaxed) &
                catBit(c)) != 0;
#endif
    }

    /**
     * Begin a traced run of @p num_nodes nodes (one track each) and
     * enable the configured categories. Flushes any still-active trace
     * first. No-op when @p config.path is empty.
     */
    void start(const TraceConfig &config, NodeId num_nodes);

    /** End the run: write the buffer to the JSON file, disable. */
    void stop();

    /** A span [@p start, @p end] on node @p node's track. */
    static void
    span(Cat c, std::uint32_t node, const char *name, Tick start, Tick end,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
#ifndef LTP_OBS_DISABLE_TRACE
        if (on(c))
            instance().record(c, /*span=*/true, node, name, start,
                              end - start, a0, a1);
#else
        (void)c; (void)node; (void)name; (void)start; (void)end;
        (void)a0; (void)a1;
#endif
    }

    /** An instant at @p ts on node @p node's track. */
    static void
    instant(Cat c, std::uint32_t node, const char *name, Tick ts,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
#ifndef LTP_OBS_DISABLE_TRACE
        if (on(c))
            instance().record(c, /*span=*/false, node, name, ts, 0, a0, a1);
#else
        (void)c; (void)node; (void)name; (void)ts; (void)a0; (void)a1;
#endif
    }

    /** Engine-track span: Cat::Engine on the engine's own track. */
    static void
    engineSpan(const char *name, Tick start, Tick end,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        span(Cat::Engine, enginePid, name, start, end, a0, a1);
    }

    /** Records dropped over the cap in the last/current run. */
    std::uint64_t droppedRecords() const { return dropped_; }

    /** Records currently buffered (tests). */
    std::uint64_t bufferedRecords() const { return recs_.size(); }

    bool active() const { return active_; }

    /**
     * One buffered trace record. `name` must point at storage that
     * outlives the run (string literals / msgTypeName()'s statics).
     */
    struct Rec
    {
        Tick ts = 0;
        Tick dur = 0;
        std::uint64_t a0 = 0;
        std::uint64_t a1 = 0;
        const char *name = nullptr;
        std::uint32_t node = 0;
        std::uint8_t cat = 0;
        bool span = false;
    };

    /**
     * The @p max_records newest buffered records without consuming
     * them, sorted by timestamp — the crash flight recorder's view
     * of "what just happened". Race-free on the clean abort path; from
     * a crash signal handler it is best-effort by contract: the run
     * may have been interrupted mid-append.
     */
    std::vector<Rec> tailRecords(std::size_t max_records) const;

  private:
    Tracer() = default;

    void record(Cat c, bool span, std::uint32_t node, const char *name,
                Tick ts, Tick dur, std::uint64_t a0, std::uint64_t a1);

    /**
     * The guard every emit helper reads; nonzero only while a traced
     * run is active. A relaxed atomic costs a plain load on the hot
     * path and keeps the flag race-free whatever thread emits.
     */
    static std::atomic<std::uint32_t> activeMask_;

    TraceConfig config_;
    NodeId numNodes_ = 0;
    bool active_ = false;
    std::vector<Rec> recs_;
    std::uint64_t dropped_ = 0;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_TRACE_HH
