/**
 * @file
 * Crash flight recorder (LTP_FLIGHT_RECORDER).
 *
 * Records what the engine was doing when a run died — the last-N obs
 * trace records, the engine self-profile, the tick and event count —
 * as one JSON file, on two paths:
 *
 *  - Clean abort: DsmSystem calls dumpNow() after the watchdog (or a
 *    checker) aborted the run and the engine returned. The buffers are
 *    quiescent, so this dump is complete and race-free.
 *
 *  - Crash: arm() installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers (the
 *    last also catching assert()), so even a wild pointer or a failed
 *    assertion leaves a dump behind. This path is best-effort by
 *    contract: it runs on a dying process, reads the trace buffer
 *    non-destructively while a record may be mid-write, and then
 *    re-raises the signal so the default disposition (core dump,
 *    nonzero exit) still happens.
 *
 * The recorder is a process-wide singleton (the obs::Tracer pattern):
 * signal handlers have no argument channel, so the armed state must be
 * globally reachable. At most one armed run at a time.
 */

#ifndef LTP_SIM_GUARD_FLIGHT_RECORDER_HH
#define LTP_SIM_GUARD_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "obs/engine_profile.hh"
#include "sim/types.hh"

namespace ltp
{
namespace guard
{

/**
 * How the recorder observes the run. The tick and event hooks must be
 * safe to call from another thread while the run executes (atomic
 * reads only) — the crash path calls them from a signal handler on
 * whatever thread faulted.
 */
struct RecorderContext
{
    std::function<Tick()> tick;            //!< tickApprox()
    std::function<std::uint64_t()> events; //!< executedApprox()
    /** Engine self-profile; clean path only. */
    std::function<obs::EngineProfile()> profile;
};

class FlightRecorder
{
  public:
    static FlightRecorder &instance();

    /**
     * Arm the recorder: remember @p path ("%p" expands to the pid) and
     * @p ctx, and install the crash signal handlers (first arm() only;
     * they stay installed but do nothing while disarmed).
     */
    void arm(const std::string &path, RecorderContext ctx);

    /** Disarm (end of run). Leaves any written dump file in place. */
    void disarm();

    bool armed() const;

    /**
     * Clean-path dump: write the flight-record JSON with @p reason.
     * Call after the engine returned (buffers quiescent).
     * @return false when the recorder is disarmed or the file cannot
     * be written.
     */
    bool dumpNow(const std::string &reason);

    /** The path the last arm() resolved (pid substituted; tests). */
    std::string resolvedPath() const;

  private:
    FlightRecorder() = default;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_FLIGHT_RECORDER_HH
