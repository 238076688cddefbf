/**
 * @file
 * ParallelScheduler: node-partitioned, conservative, bit-deterministic
 * parallel discrete-event engine.
 *
 * Nodes are split into S contiguous partitions, each owning a private
 * EventQueue and StatGroup. Intra-shard events execute in their
 * queue's own order; cross-shard interactions — which only occur
 * through SimContext::post(), every one of them at least the lookahead
 * window L beyond its cause — are exchanged at window barriers through
 * lock-free SPSC mailbox lanes.
 *
 * One round (S > 1, the staged path):
 *
 *   1. apply inbox    every shard drains the lanes addressed to it,
 *                     sorted by (deliveryTick, channel): the canonical
 *                     merge order. Each channel is fed by exactly one
 *                     shard, so the sort is a total, thread-timing- and
 *                     shard-count-independent order.
 *   2. plan window    barrier; the last arriver computes the global
 *                     minimum pending tick W and the window end
 *                     min(W + L - 1, limit), or stops the run.
 *   3. execute        every shard runs its queue through the window.
 *                     Lookahead guarantees any post lands at >= W + L,
 *                     i.e. strictly beyond the window, so no shard can
 *                     see an effect before its cause.
 *   4. publish        barrier; lane writes become visible for step 1.
 *
 * The direct-dispatch fast path (S == 1): with a single shard there is
 * nothing to exchange, so post() skips the mailbox entirely and lands
 * in the owner queue through EventQueue::scheduleAtChannel(), whose
 * sorted same-tick buckets realize the identical (deliveryTick,
 * channel) order without staging, sorting, or barrier traffic. The
 * window loop survives only as a phase clock (EventQueue::beginRound()):
 * it derives the same round boundaries the staged engine would, which
 * pins where one round's posts sort relative to the next round's local
 * events — byte-identical output, none of the staging tax.
 *
 * Determinism: each shard's execution is a function of its queue
 * content only; queue content is the deterministic intra-shard schedule
 * plus inbox applications in canonical order. Per-channel post order is
 * the feeding shard's deterministic execution order. Nothing observes
 * wall-clock interleaving, so S = 1 (fast path), S = 2 and S = 8
 * produce identical per-node event sequences — and identical (merged)
 * statistics.
 */

#ifndef LTP_SIM_PAR_PARALLEL_SCHEDULER_HH
#define LTP_SIM_PAR_PARALLEL_SCHEDULER_HH

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/engine_profile.hh"
#include "sim/par/sim_context.hh"
#include "sim/par/spsc_ring.hh"
#include "sim/par/window_barrier.hh"

namespace ltp
{

namespace obs
{
class MetricsSampler;
} // namespace obs

/** The multi-shard SimContext (see file comment). */
class ParallelScheduler final : public SimContext
{
  public:
    /**
     * @param shards   partition/thread count. One is valid — and is how
     *                 simThreads=1 runs, and every Active-predictor run:
     *                 the same canonical (tick, channel) semantics on
     *                 the calling thread through the direct-dispatch
     *                 fast path, so results match every other shard
     *                 count bit for bit.
     * @param num_nodes nodes to spread over the partitions.
     * @param window   conservative lookahead L in ticks (>= 1); every
     *                 post() must land at least this far after its
     *                 posting event.
     */
    ParallelScheduler(unsigned shards, NodeId num_nodes, Tick window);
    ~ParallelScheduler() override;

    unsigned numShards() const override
    {
        return unsigned(parts_.size());
    }
    unsigned shardOf(NodeId node) const override { return shard_[node]; }
    EventQueue &queueFor(NodeId node) override
    {
        return parts_[shard_[node]]->eq;
    }
    StatGroup &shardStats(unsigned shard) override
    {
        return parts_[shard]->stats;
    }

    void post(NodeId dst, Tick when, std::uint64_t chan,
              EventQueue::Callback &&cb) override;

    Tick runUntil(Tick limit) override;
    Tick now() const override;
    std::uint64_t eventsExecuted() const override;

    /**
     * Stop the engine from any thread: raises every shard queue's abort
     * flag, sets the stop flag, and tears down the window barrier so
     * parked shards wake and exit their worker loops instead of waiting
     * for a round that will never complete.
     */
    void requestAbort(const std::string &reason) override;
    std::string abortReason() const override;

    Tick tickApprox() const override;
    std::uint64_t executedApprox() const override;

    /** The round barrier (watchdog stall probes); staged path only. */
    const WindowBarrier &barrier() const { return barrier_; }

    /** Aggregate view over the per-shard groups (rebuilt per call). */
    StatGroup &stats() override;

    Tick window() const { return window_; }

    /** True when posts dispatch straight into the owner queue (S == 1). */
    bool directDispatch() const { return parts_.size() == 1; }

    /**
     * Attach (or detach, nullptr) a metrics sampler. The staged engine
     * samples from planWindow()'s serial completion phase — every shard
     * parked at the barrier, merged statistics quiescent — so sampling
     * perturbs nothing and quantizes to window boundaries. The sampler
     * must outlive the run. (The S == 1 fast path has no barrier; the
     * harness samples it through EventQueue::armTickWatcher instead.)
     */
    void setMetricsSampler(obs::MetricsSampler *sampler)
    {
        sampler_ = sampler;
    }

    /** Host-side execution profile of the run so far (all shards). */
    obs::EngineProfile profile() const;

  private:
    /** One buffered cross-shard event. */
    struct PostItem
    {
        Tick when = 0;
        std::uint64_t chan = 0;
        EventQueue::Callback cb;
    };

    /** Mailbox lane capacity (items) before spilling to the vector. */
    static constexpr std::size_t laneCapacity = 256;

    /**
     * One single-writer mailbox lane. The ring is the wait-free common
     * case; `spill` absorbs overflow of a message-storm window (written
     * by the producer, read only at the barrier with both sides
     * quiescent). Once a round spills, it keeps spilling so ring-then-
     * spill drain order stays FIFO.
     */
    struct Lane
    {
        SpscRing<PostItem, laneCapacity> ring;
        std::vector<PostItem> spill;
        std::uint64_t spilled = 0; //!< lifetime spill count (profiling)

        /**
         * @param force_spill bypass the ring (the spill-storm fault).
         * @return true when the item spilled past the ring.
         */
        bool
        push(PostItem &&item, bool force_spill = false)
        {
            if (force_spill || !spill.empty() ||
                !ring.tryPush(std::move(item))) {
                spill.push_back(std::move(item));
                ++spilled;
                return true;
            }
            return false;
        }
    };

    struct Partition
    {
        EventQueue eq;
        StatGroup stats;
        /** Outgoing mail, one lane per destination shard. */
        std::vector<Lane> out;
        /** Reused merge buffer for applyInbox (avoids per-round churn). */
        std::vector<PostItem> inbox;
        /** Earliest pending tick, published for window planning. */
        std::atomic<Tick> nextTick{tickNever};
        /** Wall ns this shard's thread spent in barrier waits. Written
         *  only by the owning thread; read after the run joins. */
        std::uint64_t barrierWaitNs = 0;
    };

    void workerLoop(unsigned shard, Tick limit);
    void applyInbox(unsigned shard);
    void planWindow(Tick limit);
    /** The S == 1 engine: same windows and order, no staging. */
    Tick runDirect(Tick limit);

    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<unsigned> shard_; //!< node -> shard
    Tick window_;

    WindowBarrier barrier_;
    std::atomic<Tick> windowStart_{0};
    std::atomic<Tick> windowEnd_{0};
    std::atomic<bool> stop_{false};

    /** Round accounting; written only in planWindow()'s serial phase. */
    std::uint64_t rounds_ = 0;
    std::uint64_t windowTicksSum_ = 0;

    obs::MetricsSampler *sampler_ = nullptr;

    std::mutex errorMu_;
    std::exception_ptr error_;

    mutable std::mutex abortMu_;
    std::string abortReason_;

    StatGroup merged_;
};

} // namespace ltp

#endif // LTP_SIM_PAR_PARALLEL_SCHEDULER_HH
