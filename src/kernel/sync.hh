/**
 * @file
 * Synchronization for simulated threads.
 *
 * Locks are real test-and-test-and-set spin locks over coherent memory —
 * their blocks ride the normal protocol, so lock traffic produces the
 * traces, migratory patterns, and critical-path invalidations the paper
 * discusses (appbt's gaussian-elimination spin locks, raytrace's work-
 * pool lock). Lock acquire/release report synchronization boundaries to
 * the predictor, which is how DSI triggers.
 *
 * Barriers are "magic": arrival blocks the thread until all threads of
 * the domain arrive (plus a fixed latency), without generating spin
 * traffic. Barrier arrival also reports a synchronization boundary. See
 * DESIGN.md for why this substitution is safe.
 *
 * Arrivals are counted, and the completing (latest) arrival posts one
 * per-node wakeup through the engine at its tick + barrierLatency on
 * the node's barrier channel. That delay bounds the engine's window width
 * alongside the network's lookahead (see DsmSystem).
 */

#ifndef LTP_KERNEL_SYNC_HH
#define LTP_KERNEL_SYNC_HH

#include <coroutine>
#include <vector>

#include "kernel/task.hh"
#include "kernel/thread_ctx.hh"
#include "sim/sim_context.hh"
#include "sim/types.hh"

namespace ltp
{

/** Barrier coordination across all threads of a run. */
class SyncDomain
{
  public:
    SyncDomain(SimContext &ctx, unsigned num_threads,
               Tick barrier_latency = 200)
        : ctx_(&ctx), numThreads_(num_threads),
          barrierLatency_(barrier_latency), slots_(num_threads)
    {
    }

    unsigned numThreads() const { return numThreads_; }
    std::uint64_t barriersCompleted() const { return completed_; }

    /** Awaitable barrier arrival of simulated thread @p node. */
    struct [[nodiscard]] BarrierAwaiter
    {
        SyncDomain *dom;
        NodeId node;

        bool await_ready() const { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            dom->arrive(node, h);
        }
        void await_resume() const {}
    };

    BarrierAwaiter wait(NodeId node) { return BarrierAwaiter{this, node}; }

  private:
    void
    arrive(NodeId node, std::coroutine_handle<> h)
    {
        slots_[node] = h;
        if (++arrived_ < numThreads_)
            return;

        // Completing arrival (the latest one, events run in tick
        // order): every simulated thread is parked in the barrier;
        // reset for the next generation and wake everyone.
        Tick release = ctx_->now() + barrierLatency_;
        arrived_ = 0;
        ++completed_;
        for (NodeId n = 0; n < NodeId(slots_.size()); ++n) {
            std::coroutine_handle<> hn = slots_[n];
            slots_[n] = nullptr;
            ctx_->post(release, chan::barrier(n), [hn] { hn.resume(); });
        }
    }

    SimContext *ctx_;
    unsigned numThreads_;
    Tick barrierLatency_;
    std::vector<std::coroutine_handle<>> slots_; //!< per-node arrivals
    unsigned arrived_ = 0;
    std::uint64_t completed_ = 0;
};

/** PCs of the instructions inside a lock acquire/release sequence. */
struct LockPcs
{
    Pc tas;     //!< the test-and-set instruction
    Pc spin;    //!< the spin-load instruction
    Pc release; //!< the releasing store
};

/**
 * Arrive at the global barrier: reports the synchronization boundary
 * (DSI trigger) and blocks until all threads arrive.
 */
inline Task<void>
barrier(ThreadCtx &ctx)
{
    ctx.syncBoundary();
    co_await ctx.sync().wait(ctx.id());
}

/**
 * Acquire a test-and-test-and-set spin lock at @p lock_addr.
 * Spins with exponential backoff to bound simulation traffic; the
 * backoff makes per-visit spin counts vary with contention, which is
 * what defeats LTP on raytrace's work-pool lock (Section 5.4).
 *
 * @param annotated whether this lock is exposed to the DSM hardware as
 *        a synchronization boundary. DSI requires annotation (Section
 *        2.1); appbt's hand-rolled spin locks are NOT annotated, which
 *        is why DSI misses them (Section 5.1).
 */
inline Task<void>
acquireLock(ThreadCtx &ctx, Addr lock_addr, const LockPcs &pcs,
            bool annotated = true, Tick max_backoff = 4096)
{
    for (;;) {
        std::uint64_t old = co_await ctx.testAndSet(pcs.tas, lock_addr, 1);
        if (old == 0)
            break;
        // Randomized exponential backoff (per-visit jitter), as real
        // spin-lock libraries use to avoid lockstep retry storms.
        Tick backoff = 48 + ctx.rng().below(96);
        while (co_await ctx.load(pcs.spin, lock_addr) != 0) {
            co_await ctx.compute(backoff);
            if (backoff < max_backoff)
                backoff = backoff * 2 + ctx.rng().below(64);
        }
        // Jitter before re-arming the test-and-set so the waiters do
        // not storm the lock word in lockstep when it is released.
        co_await ctx.compute(ctx.rng().below(240));
    }
    if (annotated)
        ctx.syncBoundary(); // critical-section entry
}

/** Release a spin lock. */
inline Task<void>
releaseLock(ThreadCtx &ctx, Addr lock_addr, const LockPcs &pcs,
            bool annotated = true)
{
    co_await ctx.store(pcs.release, lock_addr, 0);
    if (annotated)
        ctx.syncBoundary(); // critical-section exit
}

} // namespace ltp

#endif // LTP_KERNEL_SYNC_HH
