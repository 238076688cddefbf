/**
 * @file
 * Progress watchdog + resource guards.
 *
 * A monitor thread started around the engine's run loop that samples
 * only atomic mirrors (EventQueue::tickApprox()/executedApprox(),
 * /proc/self/statm) — never the engine's hot members — so it is
 * data-race-free under TSan and costs the simulation nothing. It
 * detects:
 *
 *   - no-progress: simulated tick AND retired-event count both frozen
 *     past the wall budget (a livelock or wedge anywhere),
 *   - budget violations: retired events, wall-clock, or resident-set
 *     size past their caps (runaway runs).
 *
 * On the first violation it calls the abort hook exactly once — which
 * routes to SimContext::requestAbort(), stopping the run cleanly
 * within one event — and records the structured reason for
 * RunResult::outcome. The run never hangs and never OOMs the host; a
 * sweep driver sees `aborted(<reason>)` for this run and moves on.
 */

#ifndef LTP_SIM_GUARD_WATCHDOG_HH
#define LTP_SIM_GUARD_WATCHDOG_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "sim/guard/guard_params.hh"
#include "sim/types.hh"

namespace ltp
{
namespace guard
{

/** How the watchdog observes the engine. All hooks must be safe to
 *  call from the monitor thread while the run executes (atomic reads
 *  only). */
struct WatchdogHooks
{
    std::function<Tick()> tick;                 //!< tickApprox()
    std::function<std::uint64_t()> events;      //!< executedApprox()
    /** Abort the run with a structured reason (requestAbort). */
    std::function<void(const std::string &)> abort;
};

/** Current resident-set size in MiB (0 when unavailable). */
std::uint64_t currentRssMb();

class Watchdog
{
  public:
    /** Start monitoring immediately. @p params decides which detectors
     *  arm; a params set with watchdogEnabled() == false starts no
     *  thread at all. */
    Watchdog(const GuardParams &params, WatchdogHooks hooks);

    /** Stop and join the monitor thread. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** True once a detector fired (the run was asked to abort). */
    bool fired() const { return fired_.load(std::memory_order_acquire); }

    /** The firing detector's structured reason (empty before firing). */
    std::string reason() const;

  private:
    void loop();
    void fire(const std::string &reason);

    GuardParams params_;
    WatchdogHooks hooks_;

    std::atomic<bool> fired_{false};
    mutable std::mutex mu_;
    std::string reason_;

    // Shutdown handshake: the destructor flips stop_ and signals cv_ so
    // the monitor wakes from its poll sleep immediately.
    bool stop_ = false;
    std::condition_variable cv_;
    std::thread thread_;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_WATCHDOG_HH
