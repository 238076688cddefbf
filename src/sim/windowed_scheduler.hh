/**
 * @file
 * WindowedScheduler: the engine every DsmSystem run executes on — one
 * EventQueue and one StatGroup on the calling thread, driven in
 * windowed rounds that fix the keyed same-tick order.
 *
 * Posts (SimContext::post()) go straight into the queue through
 * EventQueue::scheduleAtChannel(): at one tick they run after the
 * posting round's local scheduleAt() events, ordered by channel id,
 * FIFO within a channel. runUntil() is EventQueue::runWindowed(): when
 * the next event lies past the current round, a new round opens
 * spanning [tick, tick + L), L = min(network lookahead, barrier
 * latency). The round boundaries are what pin where one round's posts
 * sort relative to the next round's local events, so L is part of the
 * model's same-tick order: every golden depends on it.
 *
 * The order reads as if posts were exchanged between rounds, the
 * classic conservative-window merge: a post files under its posting
 * round's phase. That reading holds only when every post lands beyond
 * the round that made it, which bounding L by the lookahead
 * guarantees and post() asserts.
 */

#ifndef LTP_SIM_WINDOWED_SCHEDULER_HH
#define LTP_SIM_WINDOWED_SCHEDULER_HH

#include <cassert>

#include "obs/engine_profile.hh"
#include "sim/sim_context.hh"

namespace ltp
{

/** The keyed-order, windowed SimContext (see file comment). */
class WindowedScheduler final : public SimContext
{
  public:
    /** @param window round width L in ticks (>= 1); every post() must
     *  land at least this far after its posting event. */
    explicit WindowedScheduler(Tick window)
        : SimContext(eq_, stats_), window_(window)
    {
        assert(window >= 1 && "windowed rounds need lookahead");
    }

    void
    post(Tick when, std::uint64_t chan, EventQueue::Callback &&cb) override
    {
        assert(when > eq_.windowEnd() &&
               "post() inside the current window: lookahead contract "
               "broken");
        eq_.scheduleAtChannel(when, chan, std::move(cb));
    }

    /** Run windowed rounds until drained or beyond @p limit. */
    Tick runUntil(Tick limit) { return eq_.runWindowed(limit, window_); }

    Tick window() const { return window_; }

    /** Host-side execution profile of the run so far. */
    obs::EngineProfile
    profile() const
    {
        obs::EngineProfile prof;
        prof.rounds = eq_.windowedRounds();
        prof.windowTicks = eq_.windowedTicksSum();
        prof.overflowMigrations = eq_.overflowMigrations();
        return prof;
    }

  private:
    EventQueue eq_;
    StatGroup stats_;
    Tick window_;
};

} // namespace ltp

#endif // LTP_SIM_WINDOWED_SCHEDULER_HH
