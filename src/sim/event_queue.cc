#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>

#include "obs/trace.hh"
#include "sim/guard/fault.hh"

namespace ltp
{

std::uint32_t
EventQueue::acquire()
{
    if (freeHead_ != nil) {
        std::uint32_t s = freeHead_;
        freeHead_ = slot(s).next;
        return s;
    }
    assert(slotsUsed_ < slotMask && "event slot arena exhausted");
    if ((slotsUsed_ & slabMask) == 0)
        slabs_.push_back(std::make_unique<Slot[]>(slabSize));
    return slotsUsed_++;
}

void
EventQueue::pushBucket(std::uint32_t s)
{
    Slot &e = slot(s);
    assert(e.when - now_ < window);
    std::size_t idx = std::size_t(e.when) & windowMask;
    Bucket &b = buckets_[idx];
    e.next = nil;
    if (b.head == nil) {
        b.head = b.tail = s;
        bitmap_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    } else if (!slotBefore(e, slot(b.tail))) {
        // Hot path: keys are nondecreasing for plain scheduleAt()
        // traffic (phase fixed, sequence monotonic), so this is a pure
        // FIFO append.
        slot(b.tail).next = s;
        b.tail = s;
    } else {
        insertSorted(b, s);
    }
    ++bucketed_;
}

// Out of line on purpose: only a channel post overtaking same-tick
// events of a later key (a larger channel id, or the round's locals
// scheduled after it) lands here, and keeping the list walk out of
// pushBucket() keeps the append path's code footprint minimal.
__attribute__((noinline)) void
EventQueue::insertSorted(Bucket &b, std::uint32_t s)
{
    // The list holds pending events only (executed and cancelled ones
    // are unlinked), and @p s sorts before the tail, so the walk ends
    // inside the list.
    Slot &e = slot(s);
    if (slotBefore(e, slot(b.head))) {
        e.next = b.head;
        b.head = s;
        return;
    }
    std::uint32_t prev = b.head;
    while (!slotBefore(e, slot(slot(prev).next)))
        prev = slot(prev).next;
    e.next = slot(prev).next;
    slot(prev).next = s;
}

void
EventQueue::popHead(std::size_t idx)
{
    Bucket &b = buckets_[idx];
    b.head = slot(b.head).next;
    if (b.head == nil) {
        b.tail = nil;
        bitmap_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }
    --bucketed_;
}

void
EventQueue::unlinkBucket(std::uint32_t s)
{
    Slot &e = slot(s);
    std::size_t idx = std::size_t(e.when) & windowMask;
    Bucket &b = buckets_[idx];
    if (b.head == s) {
        popHead(idx);
        return;
    }
    std::uint32_t prev = b.head;
    while (slot(prev).next != s)
        prev = slot(prev).next;
    slot(prev).next = e.next;
    if (b.tail == s)
        b.tail = prev;
    --bucketed_;
}

// Out of line: reached only when an overflow event entered the window.
__attribute__((noinline)) void
EventQueue::migrateDue()
{
    while (!overflow_.empty() && overflow_.top().when - now_ < window) {
        EventId id = overflow_.top().id;
        overflow_.pop();
        std::uint32_t s = std::uint32_t(id & slotMask);
        if (slot(s).id != id)
            continue; // cancelled while parked in the overflow heap
        slot(s).parked = false;
        pushBucket(s);
        ++overflowMigrations_;
    }
}

void
EventQueue::pruneOverflow()
{
    while (!overflow_.empty()) {
        EventId id = overflow_.top().id;
        if (slot(std::uint32_t(id & slotMask)).id == id)
            return;
        overflow_.pop();
    }
}

// Out of line: only reached when an armed watcher's threshold is hit.
__attribute__((noinline)) void
EventQueue::fireTickWatcher()
{
    watchAt_ = watcher_ ? watcher_(now_) : tickNever;
}

EventQueue::EventId
EventQueue::scheduleKeyed(Tick when, std::uint64_t key, Callback &&cb)
{
    assert(when >= now_ && "scheduling an event in the past");

    // Pull freshly-eligible overflow events in first; their keys were
    // assigned at schedule time, so they land at their sorted position
    // regardless, but migrating early keeps the ring scan cheap.
    migrate();

    std::uint32_t s = acquire();
    EventId id = (nextGen_++ << slotBits) | s;
    Slot &e = slot(s);
    e.id = id;
    e.when = when;
    e.key = key;
    e.cb = std::move(cb);

    bool force_overflow =
        guard::Faults::on(guard::FaultKind::CalendarOverflow) &&
        guard::Faults::instance().calendarOverflowHit(nextGen_);
    if (when - now_ < window && !force_overflow) {
        e.parked = false;
        pushBucket(s);
    } else {
        // Far-future event — or the cal-overflow fault pretending it
        // is one. Either way the event waits in the heap and migrate()
        // moves it into the ring before it can fire, so the forced
        // detour is invisible to results.
        e.parked = true;
        overflow_.push(OverflowEntry{when, key, id});
    }
    ++liveEvents_;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == 0)
        return false; // the null handle; non-live slots carry id 0
    std::uint32_t s = std::uint32_t(id & slotMask);
    if (s >= slotsUsed_ || slot(s).id != id)
        return false; // already ran (or running), already cancelled,
                      // or never existed
    // A parked event's heap entry stays behind; its tag no longer
    // matches the recycled slot, so the heap paths drop it.
    if (!slot(s).parked)
        unlinkBucket(s);
    release(s);
    --liveEvents_;
    return true;
}

std::size_t
EventQueue::firstBucket() const
{
    // Ring-order scan from now_: every bucketed event's tick lies in
    // [now_, now_ + window), so the first set bit at or after now_'s
    // ring position (wrapping) is the earliest pending tick.
    std::size_t start = std::size_t(now_) & windowMask;
    std::size_t w = start >> 6;
    std::uint64_t first = bitmap_[w] & (~std::uint64_t(0) << (start & 63));
    if (first)
        return (w << 6) + std::size_t(__builtin_ctzll(first));
    for (std::size_t i = 1; i <= windowWords; ++i) {
        std::size_t ww = (w + i) & (windowWords - 1);
        if (bitmap_[ww])
            return (ww << 6) + std::size_t(__builtin_ctzll(bitmap_[ww]));
    }
    assert(false && "firstBucket called with an empty ring");
    return 0;
}

std::int64_t
EventQueue::popNextLive(Tick limit)
{
    if (liveEvents_ == 0)
        return -1;
    migrate();

    if (bucketed_ > 0) {
        std::size_t idx = firstBucket();
        std::uint32_t s = buckets_[idx].head;
        if (slot(s).when > limit)
            return -1; // leave it pending for a later run
        popHead(idx);
        return std::int64_t(s);
    }

    // Ring empty: the next event is a far-future one in the overflow
    // heap (migrate() above guarantees overflow events are beyond the
    // current window, hence later than anything bucketed).
    pruneOverflow();
    assert(!overflow_.empty() && "live events but empty ring and overflow");
    const OverflowEntry &top = overflow_.top();
    if (top.when > limit)
        return -1;
    std::uint32_t s = std::uint32_t(top.id & slotMask);
    overflow_.pop();
    return std::int64_t(s);
}

Tick
EventQueue::nextEventTick()
{
    if (liveEvents_ == 0)
        return tickNever;
    migrate();
    if (bucketed_ > 0)
        return slot(buckets_[firstBucket()].head).when;
    pruneOverflow();
    assert(!overflow_.empty() && "live events but empty ring and overflow");
    return overflow_.top().when;
}

void
EventQueue::executeSlot(std::uint32_t s)
{
    Slot &e = slot(s);
    assert(e.when >= now_);
    now_ = e.when;
    // Run the callback where it lies: slabs never move, so the callback
    // may schedule new events (even growing the arena) under itself.
    // The slot is already not live — cancel() of the running event's id
    // fails — and only rejoins the free list once the call is over, so
    // nothing can reuse it mid-call.
    e.id = 0;
    --liveEvents_;
    ++executed_;
    struct ReleaseOnExit
    {
        EventQueue &q;
        std::uint32_t s;
        ~ReleaseOnExit() { q.release(s); }
    } done{*this, s};
    e.cb();
}

bool
EventQueue::step()
{
    std::int64_t s = popNextLive(tickNever);
    if (s < 0)
        return false;
    executeSlot(std::uint32_t(s));
    return true;
}

Tick
EventQueue::runUntil(Tick limit)
{
    std::int64_t s;
    while (!abort_.load(std::memory_order_relaxed) &&
           (s = popNextLive(limit)) >= 0) {
        executeSlot(std::uint32_t(s));
        if ((executed_ & (beatPeriod - 1)) == 0)
            publishProgress();
        if (now_ >= watchAt_)
            fireTickWatcher();
    }
    publishProgress();
    return now_;
}

Tick
EventQueue::runWindowed(Tick limit, Tick window)
{
    std::int64_t s;
    while (!abort_.load(std::memory_order_relaxed) &&
           (s = popNextLive(limit)) >= 0) {
        Tick when = slot(std::uint32_t(s)).when;
        if (when > windowEnd_ || !windowOpen_) {
            // First event past the round (or the very first event, even
            // at tick 0): the staged engine would have hit a barrier
            // here, planned [when, when + L), and merged its mailboxes.
            // The merge already happened incrementally
            // (scheduleAtChannel); only the phase boundary remains.
            windowOpen_ = true;
            windowEnd_ = std::min(when + window - 1, limit);
            beginRound();
            ++windowedRounds_;
            windowedTicksSum_ += windowEnd_ - when + 1;
            publishProgress();
            if (obs::Tracer::on(obs::Cat::Engine))
                obs::Tracer::engineSpan("window", when, windowEnd_ + 1,
                                        windowEnd_ - when + 1);
        }
        executeSlot(std::uint32_t(s));
        if ((executed_ & (beatPeriod - 1)) == 0)
            publishProgress();
        if (now_ >= watchAt_)
            fireTickWatcher();
    }
    publishProgress();
    return now_;
}

} // namespace ltp
