/**
 * @file
 * Time-series metrics sampler: periodic StatGroup delta snapshots
 * streamed to JSONL.
 *
 * The simulator's statistics accumulate monotonically; the interesting
 * time-resolved signals (link utilization, directory load, running
 * predictor accuracy, events retired) are the *differences* between
 * successive points. The sampler captures a StatSnapshot at a
 * configurable tick period and writes one JSON line per interval
 * holding only the counters/averages that moved — so a saturation or
 * warmup curve plots straight off the file with `jq`/pandas.
 *
 * Zero perturbation by construction: the sampler never schedules
 * simulation events (a self-rescheduling sampler event would inflate
 * eventsExecuted and drag the run to maxTicks). Instead the engine
 * calls maybeSample() from instrumentation points where all simulated
 * state is quiescent — the EventQueue's tick watcher, which fires
 * between events. Sampled values are the same deterministic statistics
 * the final dump reports.
 *
 * JSONL schema (one object per line):
 *   {"tick": T, "sinceTick": T0, "events": deltaRetired,
 *    "counters": {"net.linkBusy.0-1": delta, ...},
 *    "averages": {"dir.0.service": {"sum": s, "count": n}, ...}}
 * A final line is written at end of run regardless of alignment.
 */

#ifndef LTP_OBS_METRICS_HH
#define LTP_OBS_METRICS_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ltp
{
namespace obs
{

class MetricsSampler
{
  public:
    /** Opens @p path ("%p" expands to the pid) for line streaming. */
    MetricsSampler(const std::string &path, Tick interval_ticks);

    /** First tick at/after which a sample is due. */
    Tick nextDue() const { return nextDue_; }

    /**
     * Take a sample if @p now has reached the due tick (called from
     * quiescent points; cheap no-op otherwise). Returns nextDue().
     */
    Tick
    maybeSample(Tick now, const StatGroup &stats,
                std::uint64_t events_executed)
    {
        if (now >= nextDue_)
            sample(now, stats, events_executed);
        return nextDue_;
    }

    /** Force the closing sample at end of run. */
    void finish(Tick now, const StatGroup &stats,
                std::uint64_t events_executed);

    bool ok() const { return bool(out_); }
    std::uint64_t samplesWritten() const { return samples_; }

  private:
    void sample(Tick now, const StatGroup &stats,
                std::uint64_t events_executed);

    std::ofstream out_;
    Tick interval_;
    Tick nextDue_;
    Tick lastTick_ = 0;
    std::uint64_t lastEvents_ = 0;
    StatSnapshot last_;
    std::uint64_t samples_ = 0;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_METRICS_HH
