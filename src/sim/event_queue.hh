/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events are arbitrary callables scheduled at an absolute tick. Events
 * scheduled for the same tick execute in a fully specified order (see
 * "Same-tick order" below), which makes every simulation run
 * bit-reproducible.
 *
 * Implementation (see src/sim/README.md for the full design notes):
 *
 *  - Callbacks live in pooled, recycled slots stored inline via
 *    SmallFunction, so the steady-state schedule/execute cycle performs
 *    zero heap allocations. Slots sit in fixed 1024-slot slabs that
 *    never move, so an event's callback runs in place, in its slot.
 *
 *  - An event id encodes its slot index plus a generation tag (the
 *    global schedule sequence number). The sequence number doubles as
 *    the FIFO tie-breaker, and the tag makes ids single-use: a stale id
 *    never matches the slot's next occupant.
 *
 *  - Time order is a calendar: events within `window` ticks of now are
 *    threaded, through a `next` link in their slots, onto the FIFO list
 *    of their tick's bucket (an 8-byte head/tail pair; O(1) append,
 *    bitmap-accelerated scan to the next non-empty tick); the rare
 *    far-future event waits in a binary-heap overflow area and
 *    migrates into the ring as the window advances. Nearly every
 *    simulator delay (NI occupancy, wire flight, memory access,
 *    barrier release) is far below the window, so the common path
 *    never touches the heap.
 *
 *  - cancel() unlinks a ring event from its tick's list, so the ring
 *    holds live events only; an overflow-heap entry is left behind and
 *    dies by id-tag mismatch when it reaches the top.
 *
 * Same-tick order
 * ---------------
 * Every event carries an ordering key (phase, channel, sequence) and a
 * tick's events execute in ascending key order:
 *
 *  - scheduleAt() events ("locals") take the queue's current even phase
 *    and channel 0, so with no rounds in play (a queue driven by
 *    run()/runUntil(): phase stays 0) same-tick order is pure FIFO —
 *    exactly the historical behaviour.
 *
 *  - scheduleAtChannel() events ("channel posts") take the current odd
 *    phase (phase + 1) and the caller's channel id: at one tick they
 *    sort after the current round's locals, by channel id, FIFO within
 *    a channel. beginRound() advances the phase by 2, so posts of round
 *    r land between round r's locals and round r+1's locals.
 *
 * This is the canonical (deliveryTick, channel) tie-break of the
 * engine (sim/windowed_scheduler.hh): WindowedScheduler posts straight
 * into the queue through scheduleAtChannel() and runWindowed() opens
 * the rounds, so the sorted tick list reproduces,
 * insertion-order-independently, the order of an engine that exchanges
 * posts between rounds and merges them by (tick, channel).
 */

#ifndef LTP_SIM_EVENT_QUEUE_HH
#define LTP_SIM_EVENT_QUEUE_HH

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace ltp
{

/**
 * Discrete-event scheduler.
 *
 * The queue owns the notion of "now" for a simulation. Clients schedule
 * callbacks at absolute ticks (or relative delays) and then drive the
 * simulation with run() / runUntil() / step().
 */
class EventQueue
{
  public:
    using Callback = SmallFunction;

    /**
     * Handle used to cancel a scheduled event.
     *
     * Encodes (generation << slotBits) | slot. Generation tags make ids
     * single-use: once an event runs or is cancelled its slot is
     * recycled under a new generation, so a stale id can never cancel
     * the slot's next occupant.
     */
    using EventId = std::uint64_t;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * Ordering key: (current even phase, channel 0, schedule sequence) —
     * FIFO among same-tick scheduleAt() events of the same round.
     *
     * @pre when >= now(); scheduling in the past is a caller bug.
     * @return an id usable with cancel().
     */
    EventId
    scheduleAt(Tick when, Callback &&cb)
    {
        return scheduleKeyed(when, phase_ << chanBits, std::move(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId scheduleIn(Tick delay, Callback &&cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    /**
     * Schedule @p cb at tick @p when on logical FIFO channel @p chan.
     *
     * Ordering key: (current odd phase, chan, schedule sequence). At one
     * tick, channel events of a round execute after that round's
     * scheduleAt() events, ordered by channel id and FIFO within a
     * channel — the canonical (tick, channel) merge order.
     */
    EventId
    scheduleAtChannel(Tick when, std::uint64_t chan, Callback &&cb)
    {
        assert(chan < (std::uint64_t(1) << chanBits) &&
               "channel ids must fit 32 bits (see chan::spaceShift)");
        return scheduleKeyed(when, ((phase_ + 1) << chanBits) | chan,
                             std::move(cb));
    }

    /**
     * Open the next canonical round: subsequent scheduleAt() events sort
     * after every channel event of the previous round. Never needed by
     * plain sequential users (the phase just stays 0). The packed key
     * gives phases 32 bits: 2^31 rounds, which at the minimum window
     * of one tick per round outlives any realistic run by orders of
     * magnitude.
     */
    void beginRound() { phase_ += 2; }

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled; false if
     *         it already ran, was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Execute the single next event (advancing time to it).
     *
     * @return false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. @return the final tick reached. */
    Tick run() { return runUntil(tickNever); }

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     *
     * Events at tick == limit still execute.
     * @return the final tick reached.
     */
    Tick runUntil(Tick limit);

    /**
     * Run like runUntil(@p limit), but drive the canonical round clock
     * inline: whenever the next event lies beyond the current round's
     * window, open a new round (beginRound()) spanning
     * [tick, tick + @p window) — clamped to @p limit — before executing
     * it, at the cost of one compare per event. WindowedScheduler's run
     * loop is this call; windowEnd() exposes the current round's end
     * for the post() lookahead assertion.
     */
    Tick runWindowed(Tick limit, Tick window);

    /** End of the current canonical round (0 before the first one). */
    Tick windowEnd() const { return windowEnd_; }

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /**
     * Observer hook for the callback type of armTickWatcher(): invoked
     * with the current tick, returns the next tick to watch for (or
     * tickNever to disarm).
     */
    using TickWatcher = std::function<Tick(Tick)>;

    /**
     * Arm a watcher that fires between events, the first time simulated
     * time reaches (or passes) @p at. The watcher runs at a quiescent
     * point — after the event that crossed the threshold returned,
     * before the next one pops — and must not schedule events: it is
     * the zero-perturbation observation hook the metrics sampler
     * (obs/metrics.hh) uses to take periodic StatGroup snapshots
     * without touching eventsExecuted or the run's event stream.
     * Disarmed cost is one predictable compare per executed event.
     */
    void
    armTickWatcher(Tick at, TickWatcher fn)
    {
        watcher_ = std::move(fn);
        watchAt_ = at;
    }

    void
    disarmTickWatcher()
    {
        watcher_ = nullptr;
        watchAt_ = tickNever;
    }

    /**
     * Ask the run loops (runUntil/runWindowed/step) to stop before the
     * next event. Safe to call from any thread (the guard watchdog's
     * abort path); the executing thread observes the flag within one
     * event. Pending events stay queued — the run simply stops making
     * progress, and the caller reports a structured abort instead of
     * hanging.
     */
    void
    requestAbort()
    {
        abort_.store(true, std::memory_order_relaxed);
    }

    bool
    abortRequested() const
    {
        return abort_.load(std::memory_order_relaxed);
    }

    /** Re-arm the loops after an aborted run (tests). */
    void clearAbort() { abort_.store(false, std::memory_order_relaxed); }

    /**
     * Progress mirrors for the guard watchdog: the executing thread
     * publishes now()/eventsExecuted() into atomics every
     * `beatPeriod` events (and at every runWindowed round boundary), so
     * a monitor thread can observe forward progress without a data race
     * on the hot members. Monitoring only — values may trail the true
     * counters by up to beatPeriod events.
     */
    Tick
    tickApprox() const
    {
        return tickMirror_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    executedApprox() const
    {
        return executedMirror_.load(std::memory_order_relaxed);
    }

    /** Windows opened by runWindowed() (the engine's round count). */
    std::uint64_t windowedRounds() const { return windowedRounds_; }
    /** Sum of runWindowed() window widths in ticks. */
    std::uint64_t windowedTicksSum() const { return windowedTicksSum_; }
    /** Far-future events migrated overflow-heap -> calendar ring. */
    std::uint64_t overflowMigrations() const { return overflowMigrations_; }

    /**
     * Tick of the earliest pending (non-cancelled) event, or tickNever
     * when the queue is drained. Prunes overflow-heap tombstones as a
     * side effect but never dequeues or executes anything.
     */
    Tick nextEventTick();

    /**
     * Slots handed out so far (diagnostics/tests). Grows to the
     * high-water mark of concurrently pending events (plus the one
     * executing), then stays flat: steady-state scheduling recycles
     * slots instead of allocating.
     */
    std::size_t poolSlots() const { return slotsUsed_; }

  private:
    /** Low bits of an EventId select the slot; the rest are the tag. */
    static constexpr unsigned slotBits = 24;
    static constexpr std::uint64_t slotMask = (std::uint64_t(1)
                                               << slotBits) -
                                              1;

    /** Calendar span: events within [now, now + window) are bucketed. */
    static constexpr std::size_t window = 2048;
    static constexpr std::size_t windowMask = window - 1;
    static constexpr std::size_t windowWords = window / 64;

    /** Slab geometry: 1024 slots per slab, allocated on demand. */
    static constexpr unsigned slabShift = 10;
    static constexpr std::uint32_t slabSize = 1u << slabShift;
    static constexpr std::uint32_t slabMask = slabSize - 1;

    /** End-of-list marker for slot links. */
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    /** Bits of the packed key available for the channel id. */
    static constexpr unsigned chanBits = 32;

    /**
     * One pooled event. `key` is the ordering key packed as
     * (phase << 32) | chan — phases and channel ids both fit 32 bits
     * (see scheduleAtChannel) — and the schedule sequence lives in the
     * id's generation bits, making the full order (phase, chan,
     * sequence). `next` threads the slot onto its tick's list while it
     * is pending in the ring, and onto the free list while it is free.
     */
    struct Slot
    {
        Callback cb;
        EventId id = 0; //!< 0 = not live: free or executing
        Tick when = 0;
        std::uint64_t key = 0;
        std::uint32_t next = nil;
        bool parked = false; //!< waiting in the overflow heap
    };

    static bool
    slotBefore(const Slot &a, const Slot &b)
    {
        if (a.key != b.key)
            return a.key < b.key;
        return a.id < b.id; // generation bits dominate: schedule order
    }

    /**
     * One calendar tick's pending events: a FIFO list of slots kept
     * sorted by (key, id), linked through Slot::next.
     */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    struct OverflowEntry
    {
        Tick when;
        std::uint64_t key; //!< stable copies: the slot may be recycled
        EventId id;

        bool
        operator>(const OverflowEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (key != o.key)
                return key > o.key;
            return id > o.id;
        }
    };

    Slot &
    slot(std::uint32_t s)
    {
        return slabs_[s >> slabShift][s & slabMask];
    }

    const Slot &
    slot(std::uint32_t s) const
    {
        return slabs_[s >> slabShift][s & slabMask];
    }

    /**
     * The keyed implementation behind both schedule flavours. Every
     * schedule entry point takes the callback by rvalue reference, so
     * a lambda is wrapped once at the call site and moved exactly once,
     * into its slot.
     */
    EventId scheduleKeyed(Tick when, std::uint64_t key, Callback &&cb);

    /** Take a slot off the free list, or a fresh one from the slabs. */
    std::uint32_t acquire();

    /** Sorted-insert slot @p s into its tick's list (within window). */
    void pushBucket(std::uint32_t s);

    /** Cold path of pushBucket: a key-overtaking (channel) insert. */
    void insertSorted(Bucket &b, std::uint32_t s);

    /** Dequeue the head of ring bucket @p idx (non-empty). */
    void popHead(std::size_t idx);

    /** Unlink pending ring slot @p s from its tick's list (cancel). */
    void unlinkBucket(std::uint32_t s);

    /**
     * Move overflow events that entered the window into the ring. Runs
     * twice per event (schedule and pop), and the heap is nearly always
     * empty or still beyond the window, so the head check is inline and
     * only an actual migration leaves the caller.
     */
    void
    migrate()
    {
        if (!overflow_.empty() && overflow_.top().when - now_ < window)
            migrateDue();
    }

    /** migrate()'s out-of-line body: the heap head is due. */
    void migrateDue();

    /** Run the tick watcher and rearm/disarm from its return value. */
    void fireTickWatcher();

    /**
     * Locate and dequeue the next live event with when <= @p limit.
     * Leaves it (and now_) untouched when the next event is beyond the
     * limit. @return the slot index, or -1 when nothing is runnable.
     */
    std::int64_t popNextLive(Tick limit);

    /** Pop cancelled events' entries off the overflow heap's top. */
    void pruneOverflow();

    /** Ring index of the first non-empty bucket at or after now_. */
    std::size_t firstBucket() const;

    /**
     * Advance now_ to @p s's tick and run its callback in place. The
     * slot is not live during the call (its id no longer cancels) and
     * goes back to the free list when the call returns or throws.
     */
    void executeSlot(std::uint32_t s);

    /** Destroy @p s's callback and put the slot on the free list. */
    void
    release(std::uint32_t s)
    {
        Slot &e = slot(s);
        e.id = 0;
        e.cb.reset();
        e.next = freeHead_;
        freeHead_ = s;
    }

    Bucket buckets_[window];                 //!< per-tick slot lists
    std::uint64_t bitmap_[windowWords] = {}; //!< non-empty-bucket bits
    std::size_t bucketed_ = 0;               //!< events in the ring
    std::priority_queue<OverflowEntry, std::vector<OverflowEntry>,
                        std::greater<>>
        overflow_;

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::uint32_t slotsUsed_ = 0; //!< slots ever handed out
    std::uint32_t freeHead_ = nil;
    Tick now_ = 0;
    Tick windowEnd_ = 0; //!< current canonical round's end (runWindowed)
    bool windowOpen_ = false; //!< a runWindowed round has ever begun
    std::uint64_t nextGen_ = 1;
    std::uint64_t phase_ = 0; //!< even; +1 = the channel-post phase
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    Tick watchAt_ = tickNever; //!< tickNever = watcher disarmed
    TickWatcher watcher_;
    std::uint64_t windowedRounds_ = 0;
    std::uint64_t windowedTicksSum_ = 0;
    std::uint64_t overflowMigrations_ = 0;

    /** Events between progress-mirror publishes (power of two). */
    static constexpr std::uint64_t beatPeriod = 4096;

    void
    publishProgress()
    {
        tickMirror_.store(now_, std::memory_order_relaxed);
        executedMirror_.store(executed_, std::memory_order_relaxed);
    }

    std::atomic<bool> abort_{false};
    std::atomic<Tick> tickMirror_{0};
    std::atomic<std::uint64_t> executedMirror_{0};
};

} // namespace ltp

#endif // LTP_SIM_EVENT_QUEUE_HH
