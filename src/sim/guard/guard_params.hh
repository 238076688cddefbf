/**
 * @file
 * Guard-subsystem configuration: watchdog budgets, invariant-checker
 * mask, fault-injection spec and flight-recorder path, threaded
 * SystemParams -> ExperimentSpec -> CLI exactly like obs/obs_params.hh.
 * All fields default to "off": a default-constructed GuardParams is the
 * zero-cost configuration and keeps every golden byte-identical.
 *
 * Environment variables (read by guardParamsFromEnv(), applied by
 * runExperiment() and the debug CLI):
 *
 *   LTP_CHECK=<cats>            arm invariant checkers; same category
 *                               vocabulary as LTP_DEBUG/LTP_TRACE_CATS
 *                               (obs/categories.hh): message = message
 *                               conservation + pairwise-FIFO delivery,
 *                               link = VC credit conservation, directory
 *                               and cache = directory<->cache state
 *                               cross-checks. "all" arms everything.
 *   LTP_FAULT=<spec>            deterministic fault injection (see
 *                               guard/fault.hh for the spec grammar)
 *   LTP_WATCHDOG_MS=2000        abort when neither the simulated tick
 *                               nor the retired-event count moves for
 *                               this many wall-clock ms
 *   LTP_MAX_WALL_MS=60000       total wall-clock budget for the run
 *   LTP_MAX_EVENTS=1e9          retired-event budget for the run
 *   LTP_MAX_RSS_MB=4096         resident-set-size budget for the run
 *   LTP_FLIGHT_RECORDER=f.json  install crash handlers + write the
 *                               flight-record JSON here on abort/crash
 */

#ifndef LTP_SIM_GUARD_GUARD_PARAMS_HH
#define LTP_SIM_GUARD_GUARD_PARAMS_HH

#include <cstdint>
#include <string>

namespace ltp
{
namespace guard
{

struct GuardParams
{
    /** Armed invariant-checker categories (obs/categories.hh mask). */
    std::uint32_t checkMask = 0;

    /** Fault-injection spec (guard/fault.hh grammar); empty = off. */
    std::string faultSpec;

    /** No-progress wall budget in ms; 0 = detector off. */
    std::uint64_t noProgressMs = 0;
    /** Total wall-clock budget in ms; 0 = unlimited. */
    std::uint64_t maxWallMs = 0;
    /** Retired-event budget; 0 = unlimited. */
    std::uint64_t maxEvents = 0;
    /** Resident-set-size budget in MiB; 0 = unlimited. */
    std::uint64_t maxRssMb = 0;

    /** Flight-record JSON path; empty = recorder off. "%p" = pid. */
    std::string flightRecorderFile;

    bool
    watchdogEnabled() const
    {
        return noProgressMs || maxWallMs || maxEvents || maxRssMb;
    }

    bool checksEnabled() const { return checkMask != 0; }
    bool faultsEnabled() const { return !faultSpec.empty(); }
    bool recorderEnabled() const { return !flightRecorderFile.empty(); }

    bool
    anyEnabled() const
    {
        return watchdogEnabled() || checksEnabled() || faultsEnabled() ||
               recorderEnabled();
    }
};

/**
 * GuardParams from the LTP_CHECK / LTP_FAULT / LTP_WATCHDOG_MS /
 * LTP_MAX_WALL_MS / LTP_MAX_EVENTS / LTP_MAX_RSS_MB /
 * LTP_FLIGHT_RECORDER environment; defaults where
 * unset. Throws std::invalid_argument on an unparseable category list,
 * fault spec, or budget value.
 */
GuardParams guardParamsFromEnv();

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_GUARD_PARAMS_HH
