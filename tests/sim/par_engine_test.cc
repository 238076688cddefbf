/**
 * @file
 * Unit tests for the engine's window and post order: the lookahead the
 * window width is derived from (it pins the round length the keyed
 * same-tick order depends on) and WindowedScheduler's (tick, channel)
 * post order.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "dsm/system.hh"
#include "net/topo/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/windowed_scheduler.hh"

namespace ltp
{
namespace
{

TEST(EventQueuePeek, NextEventTickSeesEarliestLiveEvent)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTick(), tickNever);

    eq.scheduleAt(30, [] {});
    auto cancelled = eq.scheduleAt(10, [] {});
    eq.scheduleAt(20, [] {});
    EXPECT_EQ(eq.nextEventTick(), 10u);

    eq.cancel(cancelled);
    EXPECT_EQ(eq.nextEventTick(), 20u);

    // Peeking never executes or drops anything.
    EXPECT_EQ(eq.size(), 2u);
    eq.run();
    EXPECT_EQ(eq.nextEventTick(), tickNever);

    // Far-future events (overflow heap, beyond the calendar window) are
    // visible too.
    eq.scheduleAt(eq.now() + 1'000'000, [] {});
    EXPECT_EQ(eq.nextEventTick(), eq.now() + 1'000'000);
}

TEST(Lookahead, PointToPointWindowIsFlightPlusOccupancy)
{
    NetworkParams net; // defaults: flight 80, control 4, data 12
    EXPECT_EQ(networkLookahead(net), 84u);
}

TEST(Lookahead, RoutedWindowIsSerializationPlusHopPlusRouter)
{
    NetworkParams net;
    net.topology = TopologyKind::Mesh2D;
    // ceil(16 / 4) + 68 + 8 = 80 — exactly the paper's one-hop latency.
    EXPECT_EQ(networkLookahead(net), 80u);

    // Finite input buffers add the wire-delayed credit return path.
    net.vcDepth = 4;
    EXPECT_EQ(networkLookahead(net), 68u);
}

TEST(Lookahead, ObliviousRoutingHasTheRoutedLookahead)
{
    // Oblivious coin flips are pure counter-based hashes (no shared
    // RNG), so the policy exports the ordinary routed lookahead.
    NetworkParams net;
    net.topology = TopologyKind::Torus2D;
    net.routing = RoutingPolicy::Oblivious;
    EXPECT_EQ(networkLookahead(net), 80u);
}

TEST(Lookahead, EngineWindowIsLookaheadClampedByBarrierLatency)
{
    // Paper defaults: p2p lookahead 84 < barrierLatency 200.
    SystemParams sp;
    EXPECT_EQ(DsmSystem(sp).simContext().window(), 84u);

    // Routed mesh: the one-hop latency, 80.
    SystemParams mesh = SystemParams::withTopology(TopologyKind::Mesh2D, 16);
    EXPECT_EQ(DsmSystem(mesh).simContext().window(), 80u);

    // The barrier release path bounds the window.
    sp.barrierLatency = 50;
    EXPECT_EQ(DsmSystem(sp).simContext().window(), 50u);
}

TEST(WindowedSchedulerTest, PostsAtOneTickRunInChannelOrder)
{
    // One round posts far more events than any FIFO batch, in
    // descending channel order; they must run in ascending channel
    // order, nothing lost.
    constexpr int kPosts = 700;
    WindowedScheduler sched(/*window=*/10);
    std::vector<int> log;
    sched.queue().scheduleAt(0, [&] {
        for (int i = kPosts - 1; i >= 0; --i) {
            sched.post(10, std::uint64_t(i),
                       [&log, i] { log.push_back(i); });
        }
    });
    sched.runUntil(1000);
    ASSERT_EQ(log.size(), std::size_t(kPosts));
    for (int i = 0; i < kPosts; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(WindowedSchedulerTest, SameTickPostsOrderByChannelNotCreation)
{
    // Posts with exactly the window's lookahead, every round; channels
    // picked so the canonical same-tick order (chan 1 before 2)
    // differs from the creation order.
    WindowedScheduler sched(/*window=*/10);
    std::vector<int> log;
    std::function<void(int, Tick)> ping = [&](int depth, Tick now) {
        if (depth >= 3)
            return;
        sched.post(now + 10, /*chan=*/2, [&, depth, now] {
            log.push_back(100 + depth);
            ping(depth + 1, now + 10);
        });
        sched.post(now + 10, /*chan=*/1,
                   [&, depth] { log.push_back(200 + depth); });
    };
    sched.queue().scheduleAt(0, [&] { ping(0, 0); });
    sched.runUntil(1000);
    EXPECT_EQ(log, (std::vector<int>{200, 100, 201, 101, 202, 102}));
    EXPECT_EQ(sched.profile().rounds, 4u);
}

} // namespace
} // namespace ltp
