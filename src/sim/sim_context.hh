/**
 * @file
 * SimContext: the seam between simulation components and the engine
 * that executes them.
 *
 * Every component (network, sync domain) schedules its events through
 * a SimContext, which owns or borrows the run's one EventQueue and
 * StatGroup. The two implementations differ in how post() orders
 * same-tick events:
 *
 *  - WindowedScheduler (windowed_scheduler.hh): the engine every
 *    DsmSystem run uses. post() is EventQueue::scheduleAtChannel(), so
 *    same-tick posts follow the keyed (tick, phase, channel, seq)
 *    order, and its run loop is EventQueue::runWindowed().
 *
 *  - SequentialContext (this file): an adapter that borrows one
 *    caller-owned EventQueue and StatGroup, so standalone interconnects
 *    (the `(EventQueue&, StatGroup&)` constructors) run without an
 *    engine. Its post() is a plain scheduleAt(), i.e. raw schedule
 *    order rather than the keyed order; the caller drives the queue.
 *
 * post() carries a *channel id* naming the logical FIFO the event
 * travels on (a (src, dst) pair, a physical link, a barrier slot), and
 * must target a tick at least the engine's window beyond the posting
 * event. The network guarantees this through its minimum link/flight
 * latency (see networkLookahead()), the sync domain through its
 * barrier latency.
 */

#ifndef LTP_SIM_SIM_CONTEXT_HH
#define LTP_SIM_SIM_CONTEXT_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ltp
{

/**
 * Channel-id helpers for post(). The spaces are disjoint; ids only need
 * to be unique per logical FIFO channel.
 *
 * Ids must fit 32 bits (EventQueue packs them next to the round phase
 * in one ordering word), so the space tag sits at bit 28: room for
 * 2^28 ids per space — 16 K nodes' (src, dst) pairs, a million links.
 */
namespace chan
{

constexpr std::uint64_t spaceShift = 28;

/** Point-to-point flight of the (src, dst) node pair. */
constexpr std::uint64_t
pair(NodeId src, NodeId dst, NodeId num_nodes)
{
    return (std::uint64_t(0) << spaceShift) |
           (std::uint64_t(src) * num_nodes + dst);
}

/** Hop arrivals leaving physical link @p link_index. */
constexpr std::uint64_t
link(std::size_t link_index)
{
    return (std::uint64_t(1) << spaceShift) | link_index;
}

/** Credit returns for physical link @p link_index. */
constexpr std::uint64_t
credit(std::size_t link_index)
{
    return (std::uint64_t(2) << spaceShift) | link_index;
}

/** Barrier-release wakeups for @p node. */
constexpr std::uint64_t
barrier(NodeId node)
{
    return (std::uint64_t(3) << spaceShift) | node;
}

} // namespace chan

/** Where simulation components schedule their events. */
class SimContext
{
  public:
    virtual ~SimContext() = default;

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /** The run's event queue. */
    EventQueue &queue() { return *eq_; }

    /** The run's statistics registry. */
    StatGroup &stats() { return *stats_; }

    /**
     * Schedule @p cb at absolute tick @p when on logical FIFO channel
     * @p chan (see namespace chan). @p when must be at least the
     * engine's window beyond the posting event's tick. @p cb is taken
     * by rvalue reference and moved once, into its queue slot.
     */
    virtual void post(Tick when, std::uint64_t chan,
                      EventQueue::Callback &&cb) = 0;

    /**
     * Ask a running run loop to stop cleanly with @p reason instead
     * of completing. Callable from any thread (the guard watchdog); the
     * first reason wins. The queue stops within one event; pending
     * events stay queued and the run loop returns normally.
     */
    void
    requestAbort(const std::string &reason)
    {
        {
            std::lock_guard<std::mutex> g(abortMu_);
            if (abortReason_.empty())
                abortReason_ = reason;
        }
        eq_->requestAbort();
    }

    /** The winning requestAbort() reason; empty when none fired. */
    std::string
    abortReason() const
    {
        std::lock_guard<std::mutex> g(abortMu_);
        return abortReason_;
    }

    Tick now() const { return eq_->now(); }
    std::uint64_t eventsExecuted() const { return eq_->eventsExecuted(); }

    /**
     * Watchdog progress probes: monitor-thread-safe (atomic mirrors),
     * may trail the true values by a publication beat. See
     * EventQueue::tickApprox().
     */
    Tick tickApprox() const { return eq_->tickApprox(); }
    std::uint64_t executedApprox() const { return eq_->executedApprox(); }

  protected:
    /** Only the addresses are taken; @p eq and @p stats may be members
     *  of the derived class that are constructed after this base. */
    SimContext(EventQueue &eq, StatGroup &stats) : eq_(&eq), stats_(&stats)
    {
    }

  private:
    EventQueue *eq_;
    StatGroup *stats_;
    mutable std::mutex abortMu_;
    std::string abortReason_;
};

/** One borrowed queue and stat group behind the SimContext seam. */
class SequentialContext final : public SimContext
{
  public:
    SequentialContext(EventQueue &eq, StatGroup &stats)
        : SimContext(eq, stats)
    {
    }

    void
    post(Tick when, std::uint64_t, EventQueue::Callback &&cb) override
    {
        queue().scheduleAt(when, std::move(cb));
    }
};

} // namespace ltp

#endif // LTP_SIM_SIM_CONTEXT_HH
