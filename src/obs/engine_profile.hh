/**
 * @file
 * Engine self-profiling counters.
 *
 * These describe how the engine executed a run: windowed rounds and
 * calendar-overflow migrations. They are deliberately NOT StatGroup
 * statistics: the stats dump is the model's output and every golden
 * depends on it, while these are engine bookkeeping. They are surfaced
 * through RunResult::engineProfile, bench_perf's JSON rows (extra
 * keys, ignored by perf_gate's cells), and the debug CLI's
 * LTP_ENGINE_PROFILE=1 stderr dump.
 */

#ifndef LTP_OBS_ENGINE_PROFILE_HH
#define LTP_OBS_ENGINE_PROFILE_HH

#include <cstdint>

namespace ltp
{
namespace obs
{

/** Execution profile of one run. */
struct EngineProfile
{
    /** Windowed rounds opened (EventQueue::runWindowed). */
    std::uint64_t rounds = 0;
    /** Sum of window widths in ticks (avg width = windowTicks/rounds). */
    std::uint64_t windowTicks = 0;
    /** EventQueue far-future events migrated out of the calendar. */
    std::uint64_t overflowMigrations = 0;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_ENGINE_PROFILE_HH
