/**
 * @file
 * SimContext: the seam between simulation components and the engine
 * that executes them.
 *
 * Every component (network, controllers, thread contexts, sync domain)
 * schedules its events through a SimContext instead of holding a raw
 * EventQueue. The context decides where an event lives:
 *
 *  - ParallelScheduler (parallel_scheduler.hh): the engine every
 *    DsmSystem run uses. Nodes are sharded over one or more
 *    partitions, each with its own EventQueue and StatGroup, executed
 *    under conservative lookahead windows.
 *
 *  - SequentialContext (this file): an adapter that borrows one
 *    caller-owned EventQueue and StatGroup, so standalone interconnects
 *    (the `(EventQueue&, StatGroup&)` constructors) run without an
 *    engine. Its post() is a plain scheduleAt(), i.e. raw schedule
 *    order rather than the canonical (tick, channel) order.
 *
 * The contract that makes sharding safe:
 *
 *  - All state a component mutates from an event belongs to one node
 *    (or one link, owned by its upstream node), and that event runs on
 *    the owning node's queue (queueFor()).
 *
 *  - The only cross-node interactions are post() calls, and every
 *    post() targets a tick at least the engine's lookahead window
 *    beyond the posting event. The network guarantees this through its
 *    minimum link/flight latency (see networkLookahead()).
 *
 *  - post() carries a *channel id* identifying the logical FIFO the
 *    event travels on (a (src, dst) pair, a physical link, a barrier
 *    slot). The parallel engine realizes the canonical (tick, channel)
 *    order two ways — staged for shards > 1 (buffered lanes sorted and
 *    merged at window barriers) and direct for one shard (straight
 *    into the owner queue via EventQueue::scheduleAtChannel, whose
 *    sorted buckets impose the same order with zero staging). A
 *    channel is only ever fed by one shard, so the order is
 *    deterministic: independent of thread timing AND of the shard
 *    count.
 */

#ifndef LTP_SIM_PAR_SIM_CONTEXT_HH
#define LTP_SIM_PAR_SIM_CONTEXT_HH

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
 * to be unique per logical FIFO channel (and each channel must be fed
 * from a single shard for the canonical merge order to be total).
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

    /** Number of partitions events are sharded over. */
    virtual unsigned numShards() const = 0;

    /** Partition that owns @p node's events. */
    virtual unsigned shardOf(NodeId node) const = 0;

    /** The event queue @p node's events run on. */
    virtual EventQueue &queueFor(NodeId node) = 0;

    /** Statistics registry of partition @p shard. */
    virtual StatGroup &shardStats(unsigned shard) = 0;

    /**
     * Schedule @p cb at absolute tick @p when on @p dst's queue, from an
     * event possibly running on another shard.
     *
     * @p chan identifies the logical FIFO the event belongs to (see
     * namespace chan). @p when must be at least the engine's lookahead
     * window beyond the posting event's tick. @p cb is taken by rvalue
     * reference and moved once, into the destination's slot or lane.
     */
    virtual void post(NodeId dst, Tick when, std::uint64_t chan,
                      EventQueue::Callback &&cb) = 0;

    /** Drive the simulation until drained or beyond @p limit. */
    virtual Tick runUntil(Tick limit) = 0;

    /**
     * Ask a running runUntil() to stop cleanly with @p reason instead
     * of completing. Callable from any thread (the guard watchdog); the
     * first reason wins. The engine stops within one event per shard
     * (and tears down its barrier so parked shards wake); pending
     * events stay queued and runUntil() returns normally.
     */
    virtual void requestAbort(const std::string &reason) = 0;

    /** The winning requestAbort() reason; empty when none fired. */
    virtual std::string abortReason() const = 0;

    /** Latest tick any partition has reached. */
    virtual Tick now() const = 0;

    /** Total events executed across all partitions. */
    virtual std::uint64_t eventsExecuted() const = 0;

    /**
     * Watchdog progress probes: monitor-thread-safe (atomic mirrors),
     * may trail the true values by a publication beat. See
     * EventQueue::tickApprox().
     */
    virtual Tick tickApprox() const = 0;
    virtual std::uint64_t executedApprox() const = 0;

    /**
     * The whole run's statistics. SequentialContext returns its one
     * group; the parallel engine merges its per-shard groups into an
     * aggregate view (rebuilt on each call).
     */
    virtual StatGroup &stats() = 0;
};

/** One borrowed queue and stat group behind the SimContext seam. */
class SequentialContext final : public SimContext
{
  public:
    SequentialContext(EventQueue &eq, StatGroup &stats)
        : eq_(&eq), stats_(&stats)
    {
    }

    unsigned numShards() const override { return 1; }
    unsigned shardOf(NodeId) const override { return 0; }
    EventQueue &queueFor(NodeId) override { return *eq_; }
    StatGroup &shardStats(unsigned) override { return *stats_; }

    void
    post(NodeId, Tick when, std::uint64_t,
         EventQueue::Callback &&cb) override
    {
        eq_->scheduleAt(when, std::move(cb));
    }

    Tick runUntil(Tick limit) override { return eq_->runUntil(limit); }

    void
    requestAbort(const std::string &reason) override
    {
        {
            std::lock_guard<std::mutex> g(abortMu_);
            if (abortReason_.empty())
                abortReason_ = reason;
        }
        eq_->requestAbort();
    }

    std::string
    abortReason() const override
    {
        std::lock_guard<std::mutex> g(abortMu_);
        return abortReason_;
    }

    Tick now() const override { return eq_->now(); }
    std::uint64_t eventsExecuted() const override
    {
        return eq_->eventsExecuted();
    }
    Tick tickApprox() const override { return eq_->tickApprox(); }
    std::uint64_t executedApprox() const override
    {
        return eq_->executedApprox();
    }
    StatGroup &stats() override { return *stats_; }

  private:
    EventQueue *eq_;
    StatGroup *stats_;
    mutable std::mutex abortMu_;
    std::string abortReason_;
};

} // namespace ltp

#endif // LTP_SIM_PAR_SIM_CONTEXT_HH
