/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

namespace ltp
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.scheduleIn(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    auto id = eq.scheduleAt(10, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue eq;
    auto id = eq.scheduleAt(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelAfterExecutionFails)
{
    EventQueue eq;
    auto id = eq.scheduleAt(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleAt(1, [&] { ++count; });
    eq.scheduleAt(2, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    for (Tick t = 10; t <= 100; t += 10)
        eq.scheduleAt(t, [&, t] { ticks.push_back(t); });
    eq.runUntil(50);
    EXPECT_EQ(ticks.size(), 5u);
    EXPECT_EQ(eq.size(), 5u);
    // The remaining events still run afterwards.
    eq.run();
    EXPECT_EQ(ticks.size(), 10u);
}

TEST(EventQueue, RunUntilExecutesEventAtLimit)
{
    EventQueue eq;
    bool ran = false;
    eq.scheduleAt(50, [&] { ran = true; });
    eq.runUntil(50);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleIn(1, recurse);
    };
    eq.scheduleAt(0, recurse);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleAt(i, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueue, CancelledEventNotCounted)
{
    EventQueue eq;
    auto id = eq.scheduleAt(1, [] {});
    eq.scheduleAt(2, [] {});
    eq.cancel(id);
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 1u);
}

// ---- pooling / generation-tag safety ---------------------------------------

TEST(EventQueue, NullAndGarbageIdsCannotCancel)
{
    EventQueue eq;
    bool ran = false;
    eq.scheduleAt(10, [&] { ran = true; });
    // Id 0 is the natural "not scheduled" sentinel; it must never match
    // a free slot (which also carries tag 0).
    EXPECT_FALSE(eq.cancel(0));
    EXPECT_FALSE(eq.cancel(~EventQueue::EventId(0)));
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot)
{
    EventQueue eq;
    bool first = false, second = false;
    auto id1 = eq.scheduleAt(10, [&] { first = true; });
    eq.run(); // id1's slot is recycled
    auto id2 = eq.scheduleAt(20, [&] { second = true; });
    // The recycled slot now belongs to id2; the stale id must not touch it.
    EXPECT_FALSE(eq.cancel(id1));
    eq.run();
    EXPECT_TRUE(first);
    EXPECT_TRUE(second);
    EXPECT_TRUE(eq.cancel(id2) == false); // already ran
}

TEST(EventQueue, StaleIdAfterCancelCannotCancelReuse)
{
    EventQueue eq;
    bool ran = false;
    auto id1 = eq.scheduleAt(10, [] {});
    EXPECT_TRUE(eq.cancel(id1));
    auto id2 = eq.scheduleAt(10, [&] { ran = true; }); // reuses the slot
    EXPECT_FALSE(eq.cancel(id1));
    eq.run();
    EXPECT_TRUE(ran);
    (void)id2;
}

TEST(EventQueue, SlotPoolStopsGrowingInSteadyState)
{
    EventQueue eq;
    // A self-rescheduling chain keeps at most 2 events pending; the
    // arena must reach its high-water mark and then stay flat.
    int remaining = 10000;
    std::function<void()> chain = [&] {
        if (--remaining > 0) {
            eq.scheduleIn(1, chain);
            eq.scheduleIn(2, [] {});
        }
    };
    eq.scheduleAt(0, chain);
    for (int i = 0; i < 100; ++i)
        eq.step();
    std::size_t plateau = eq.poolSlots();
    eq.run();
    EXPECT_EQ(eq.poolSlots(), plateau);
    EXPECT_EQ(remaining, 0);
}

TEST(EventQueue, FarFutureEventsInterleaveWithNearOnes)
{
    // Exercises the overflow area: delays far beyond the calendar window
    // must still execute in global time order, FIFO within a tick.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(1000000, [&] { order.push_back(3); });
    eq.scheduleAt(1000000, [&] { order.push_back(4); });
    eq.scheduleAt(5, [&] {
        order.push_back(1);
        eq.scheduleAt(999999, [&] { order.push_back(2); });
        eq.scheduleAt(1000001, [&] { order.push_back(5); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 1000001u);
}

TEST(EventQueue, RunUntilBoundaryWithFarFutureEvents)
{
    EventQueue eq;
    int ran = 0;
    eq.scheduleAt(10, [&] { ++ran; });
    eq.scheduleAt(100000, [&] { ++ran; });
    EXPECT_EQ(eq.runUntil(50000), 10u); // now() stays at the last event
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 100000u);
}

/**
 * Randomized stress: interleaved schedule / cancel / reschedule checked
 * against a reference model (an ordered multimap keyed by (tick, seq)).
 * Execution order must match the model exactly — absolute-tick order,
 * FIFO within a tick, cancelled events skipped — and event ids must stay
 * single-use under heavy slot reuse.
 */
TEST(EventQueue, RandomizedStressMatchesReferenceModel)
{
    std::mt19937_64 rng(12345);
    EventQueue eq;

    struct Pending
    {
        EventQueue::EventId id;
        std::uint64_t token;
    };
    std::vector<Pending> pending;               // cancellation candidates
    std::map<std::pair<Tick, std::uint64_t>, std::uint64_t> model;
    std::vector<std::uint64_t> executed;        // tokens, in executed order
    std::uint64_t nextToken = 0, seq = 0;

    auto scheduleOne = [&](Tick when) {
        std::uint64_t token = nextToken++;
        std::uint64_t s = seq++;
        auto id = eq.scheduleAt(when, [&executed, token] {
            executed.push_back(token);
        });
        model.emplace(std::make_pair(when, s), token);
        pending.push_back({id, token});
    };

    for (int round = 0; round < 2000; ++round) {
        unsigned action = rng() % 10;
        if (action < 6) {
            // Mix near, same-tick, and far-future (overflow) delays.
            Tick delay = (rng() % 100 == 0) ? 5000 + rng() % 5000
                                            : rng() % 300;
            scheduleOne(eq.now() + delay);
        } else if (action < 8 && !pending.empty()) {
            std::size_t pick = rng() % pending.size();
            Pending p = pending[pick];
            pending.erase(pending.begin() + pick);
            bool cancelled = eq.cancel(p.id);
            if (cancelled) {
                // Remove the single model entry carrying this token.
                for (auto it = model.begin(); it != model.end(); ++it) {
                    if (it->second == p.token) {
                        model.erase(it);
                        break;
                    }
                }
                // Cancel must be single-shot even after slot reuse.
                scheduleOne(eq.now() + rng() % 50); // likely reuses slot
                EXPECT_FALSE(eq.cancel(p.id));
            }
        } else {
            // Execute a few steps; each must match the model's front.
            for (int k = 0; k < 3 && !model.empty(); ++k) {
                std::size_t before = executed.size();
                ASSERT_TRUE(eq.step());
                ASSERT_EQ(executed.size(), before + 1);
                EXPECT_EQ(executed.back(), model.begin()->second);
                model.erase(model.begin());
            }
        }
        ASSERT_EQ(eq.size(), model.size());
    }

    while (!model.empty()) {
        ASSERT_TRUE(eq.step());
        EXPECT_EQ(executed.back(), model.begin()->second);
        model.erase(model.begin());
    }
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

// ---- channel-keyed same-tick tie-break (the direct-dispatch order) ----

TEST(EventQueueChannel, SameTickOrdersByChannelIdNotScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Scheduled high channel first: execution must sort by channel id.
    eq.scheduleAtChannel(10, 9, [&] { order.push_back(9); });
    eq.scheduleAtChannel(10, 3, [&] { order.push_back(3); });
    eq.scheduleAtChannel(10, 7, [&] { order.push_back(7); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{3, 7, 9}));
}

TEST(EventQueueChannel, FifoWithinOneChannel)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleAtChannel(10, 42, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueChannel, LocalsRunBeforeSameRoundChannelPosts)
{
    // A round's scheduleAt() events precede its channel posts at the
    // same tick even when the posts were scheduled first: posts of
    // round r are merged after round r has fully executed.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAtChannel(10, 1, [&] { order.push_back(100); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAtChannel(10, 2, [&] { order.push_back(200); });
    eq.scheduleAt(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 100, 200}));
}

TEST(EventQueueChannel, BeginRoundSeparatesPostBatches)
{
    // Round r's posts execute before round r+1's locals AND before
    // round r+1's posts at the same tick, whatever the channel ids —
    // the round boundary dominates the channel tie-break.
    EventQueue eq;
    std::vector<int> order;
    eq.beginRound(); // round 1
    eq.scheduleAtChannel(50, 9, [&] { order.push_back(19); });
    eq.beginRound(); // round 2
    eq.scheduleAt(50, [&] { order.push_back(2); });
    eq.scheduleAtChannel(50, 1, [&] { order.push_back(21); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{19, 2, 21}));
}

TEST(EventQueueChannel, CancelSkipsChannelEventAndKeepsOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAtChannel(10, 5, [&] { order.push_back(5); });
    auto doomed = eq.scheduleAtChannel(10, 6, [&] { order.push_back(6); });
    eq.scheduleAtChannel(10, 7, [&] { order.push_back(7); });
    EXPECT_TRUE(eq.cancel(doomed));
    EXPECT_FALSE(eq.cancel(doomed)); // ids are single-use

    // The recycled slot's next occupant keeps ITS OWN key (generation
    // tags make the old bucket entry a tombstone, not a dangling ref).
    eq.scheduleAtChannel(10, 4, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{4, 5, 7}));
}

TEST(EventQueueChannel, OverflowMigrationKeepsChannelOrder)
{
    // Channel events beyond the calendar window park in the overflow
    // heap; once migrated they must still interleave by key with ring
    // entries scheduled later for the same tick.
    EventQueue eq;
    std::vector<int> order;
    Tick far = 5000; // beyond the 2048-tick bucket ring
    eq.scheduleAtChannel(far, 8, [&] { order.push_back(8); });
    eq.scheduleAtChannel(far, 2, [&] { order.push_back(2); });
    // Bring `far` into the window, then add a same-tick competitor.
    eq.scheduleAt(4000, [&] {
        eq.scheduleAtChannel(far, 5, [&] { order.push_back(5); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 5, 8}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueueChannel, RunWindowedDrivesRounds)
{
    // runWindowed(limit, L) must (a) open a round per window
    // [W, W + L), (b) execute posts of round r after round r's
    // locals and before round r+1's locals, and (c) reach the same
    // final tick as a plain run.
    EventQueue eq;
    std::vector<int> order;
    // Two windows of width 10: events at 0..9 are round 1, 15.. round 2.
    eq.scheduleAt(0, [&] {
        order.push_back(1);
        // Post landing in the next window, channel 3.
        eq.scheduleAtChannel(15, 3, [&] { order.push_back(23); });
    });
    eq.scheduleAt(5, [&] {
        order.push_back(2);
        // Same tick 15, smaller channel, posted later: channel order.
        eq.scheduleAtChannel(15, 1, [&] { order.push_back(21); });
    });
    // A round-2 local at tick 15 — scheduled during round 2, so it runs
    // BEFORE round 1's posts? No: it is scheduled by a round-2 event
    // only if one exists earlier in round 2. Here it is scheduled up
    // front (round 0 of the setup phase), so it precedes the posts.
    eq.scheduleAt(15, [&] { order.push_back(3); });
    eq.runWindowed(tickNever, 10);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 21, 23}));
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_GE(eq.windowEnd(), 15u);
}


// ---- intrusive tick lists and in-place execution ----------------------

/**
 * Randomized same-tick order: scheduleAt / scheduleAtChannel /
 * beginRound mixed over a handful of shared ticks (some beyond the
 * calendar window, so the overflow heap and migration take part), run
 * in chunks with more scheduling in between. Every chunk must execute
 * exactly the pending events at or before its limit, in ascending
 * (tick, phase, chan, seq) order.
 */
TEST(EventQueueLists, RandomizedKeyedMixMatchesReferenceSort)
{
    using Key = std::tuple<Tick, std::uint64_t, std::uint64_t,
                           std::uint64_t>;
    std::mt19937_64 rng(20240601);
    EventQueue eq;
    std::uint64_t phase = 0, seq = 0;
    std::vector<std::pair<Key, std::uint64_t>> pending; // key -> token
    std::vector<std::uint64_t> executed;

    for (int chunk = 0; chunk < 200; ++chunk) {
        int n = int(rng() % 40);
        for (int i = 0; i < n; ++i) {
            unsigned action = unsigned(rng() % 8);
            if (action == 0) {
                eq.beginRound();
                phase += 2;
                continue;
            }
            // Eight shared ticks; a stride of 700 reaches past the
            // 2048-tick window.
            Tick stride = (rng() % 2) ? 1 : 700;
            Tick when = eq.now() + 1 + (rng() % 8) * stride;
            std::uint64_t token = seq;
            auto cb = [&executed, token] { executed.push_back(token); };
            if (action < 4) {
                eq.scheduleAt(when, cb);
                pending.push_back({Key{when, phase, 0, seq}, token});
            } else {
                std::uint64_t chan = rng() % 5;
                eq.scheduleAtChannel(when, chan, cb);
                pending.push_back({Key{when, phase + 1, chan, seq}, token});
            }
            ++seq;
        }
        Tick limit = eq.now() + rng() % 1500;
        std::sort(pending.begin(), pending.end());
        std::vector<std::uint64_t> expect;
        auto split = std::find_if(pending.begin(), pending.end(),
                                  [&](const auto &p) {
                                      return std::get<0>(p.first) > limit;
                                  });
        for (auto it = pending.begin(); it != split; ++it)
            expect.push_back(it->second);
        pending.erase(pending.begin(), split);

        executed.clear();
        eq.runUntil(limit);
        ASSERT_EQ(executed, expect) << "chunk " << chunk;
        ASSERT_EQ(eq.size(), pending.size());
    }
    executed.clear();
    eq.run();
    std::sort(pending.begin(), pending.end());
    std::vector<std::uint64_t> expect;
    for (const auto &p : pending)
        expect.push_back(p.second);
    EXPECT_EQ(executed, expect);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueLists, CancelHeadMiddleAndTailOfOneTick)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(eq.scheduleAt(10, [&, i] { order.push_back(i); }));
    EXPECT_TRUE(eq.cancel(ids[0])); // head
    EXPECT_TRUE(eq.cancel(ids[2])); // middle
    EXPECT_TRUE(eq.cancel(ids[4])); // tail
    EXPECT_EQ(eq.size(), 2u);
    // Appends after a tail cancel must link behind the new tail.
    eq.scheduleAt(10, [&] { order.push_back(5); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
}

TEST(EventQueueLists, CancellingEveryEventOfATickEmptiesItsBucket)
{
    EventQueue eq;
    bool ran = false;
    auto a = eq.scheduleAt(20, [&] { ran = true; });
    auto b = eq.scheduleAt(20, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(b));
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_EQ(eq.nextEventTick(), tickNever);
    eq.scheduleAt(30, [] {});
    EXPECT_EQ(eq.nextEventTick(), 30u);
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueLists, CancelOverflowParkedEvent)
{
    EventQueue eq;
    bool ran = false;
    auto parked = eq.scheduleAt(100000, [&] { ran = true; });
    eq.scheduleAt(200000, [] {});
    EXPECT_TRUE(eq.cancel(parked));
    EXPECT_FALSE(eq.cancel(parked));
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventTick(), 200000u);
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.now(), 200000u);
    EXPECT_EQ(eq.eventsExecuted(), 1u);
}

TEST(EventQueueLists, RunningEventCannotCancelItself)
{
    EventQueue eq;
    EventQueue::EventId self = 0, child = 0;
    bool cancelled = true;
    self = eq.scheduleAt(5, [&] {
        cancelled = eq.cancel(self);
        // The running event keeps its slot until it returns, so a
        // schedule from inside it lands in another slot.
        child = eq.scheduleIn(1, [] {});
    });
    eq.run();
    EXPECT_FALSE(cancelled);
    EXPECT_NE(child & 0xFFFFFF, self & 0xFFFFFF);
    EXPECT_EQ(eq.eventsExecuted(), 2u);
}

TEST(EventQueueLists, CallbackGrowingTheArenaRunsInPlace)
{
    // More than one 1024-slot slab of events scheduled from inside a
    // running callback: the arena grows under it, and its non-trivial
    // capture must still be intact afterwards.
    EventQueue eq;
    int children = 0;
    std::vector<std::string> seen;
    std::string tag = "still in place";
    eq.scheduleAt(1, [&eq, &children, &seen, tag] {
        for (int i = 0; i < 1500; ++i)
            eq.scheduleIn(1 + i % 3, [&children] { ++children; });
        seen.push_back(tag);
    });
    eq.run();
    EXPECT_EQ(children, 1500);
    EXPECT_EQ(seen, (std::vector<std::string>{"still in place"}));
    EXPECT_GT(eq.poolSlots(), 1024u);
}

TEST(EventQueueLists, ThrowingCallbackReleasesItsSlot)
{
    EventQueue eq;
    auto owned = std::make_shared<int>(7);
    int ran = 0;
    eq.scheduleAt(1, [owned] { throw std::runtime_error("boom"); });
    eq.scheduleAt(2, [&] { ++ran; });
    eq.scheduleAt(3, [&] { ++ran; });
    EXPECT_EQ(eq.poolSlots(), 3u);
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(eq.now(), 1u);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_EQ(owned.use_count(), 1); // the capture was destroyed
    // The thrower's slot is free again: no growth for the next event.
    eq.scheduleAt(4, [&] { ++ran; });
    EXPECT_EQ(eq.poolSlots(), 3u);
    eq.run();
    EXPECT_EQ(ran, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueLists, TickBurstThenSteadyStateStaysWithinBurstSlots)
{
    EventQueue eq;
    int woken = 0;
    for (int i = 0; i < 512; ++i)
        eq.scheduleAt(10, [&] { ++woken; });
    EXPECT_EQ(eq.poolSlots(), 512u);
    eq.run();
    EXPECT_EQ(woken, 512);

    int remaining = 10000;
    std::function<void()> chain = [&] {
        if (--remaining > 0) {
            eq.scheduleIn(1, chain);
            eq.scheduleIn(2, [] {});
        }
    };
    eq.scheduleIn(1, chain);
    eq.run();
    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(eq.poolSlots(), 512u);
}

} // namespace
} // namespace ltp
