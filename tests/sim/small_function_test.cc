/** @file Unit tests for SmallFunction: memcpy relocation of trivial
 *  captures, exactly-once destruction of non-trivial ones, the heap
 *  fallback, and both kinds travelling through the event queue's
 *  overflow heap (natural and fault-forced). */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/guard/fault.hh"
#include "sim/small_function.hh"

namespace ltp
{
namespace
{

/** A 16-byte trivially copyable capture, like a hot-path event's. */
struct TrivialCall
{
    std::uint64_t *out;
    std::uint64_t value;

    void operator()() const { *out = value; }
};

static_assert(std::is_trivially_copyable_v<TrivialCall>);

/** Counts live instances; destruction of a live one decrements. */
struct Counted
{
    static inline int live = 0;
    static inline int destroyed = 0;

    int *calls;

    explicit Counted(int *c) : calls(c) { ++live; }
    Counted(Counted &&o) noexcept : calls(o.calls) { ++live; }
    Counted(const Counted &o) : calls(o.calls) { ++live; }
    ~Counted()
    {
        --live;
        ++destroyed;
    }

    void operator()() const { ++*calls; }

    static void
    resetCounts()
    {
        live = 0;
        destroyed = 0;
    }
};

static_assert(!std::is_trivially_copyable_v<Counted>);

TEST(SmallFunction, TrivialCaptureSurvivesMoveConstructAndAssign)
{
    std::uint64_t out = 0;
    SmallFunction a(TrivialCall{&out, 0xDEADBEEFCAFEull});
    SmallFunction b(std::move(a));
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(out, 0xDEADBEEFCAFEull);

    // A lambda capturing scalars and a pointer is trivially copyable
    // too, and keeps every captured value across relocations.
    std::uint64_t x = 0;
    std::uint32_t slot = 7;
    std::uint8_t vc = 3;
    auto lam = [&x, slot, vc] { x = slot * 100 + vc; };
    static_assert(std::is_trivially_copyable_v<decltype(lam)>);
    SmallFunction c(lam);
    SmallFunction d;
    d = std::move(c);
    EXPECT_FALSE(c);
    SmallFunction e;
    e = std::move(d);
    e();
    EXPECT_EQ(x, 703u);

    // Move-assign over a live trivial target replaces it.
    out = 0;
    SmallFunction f(TrivialCall{&out, 1});
    f = std::move(b);
    f();
    EXPECT_EQ(out, 0xDEADBEEFCAFEull);
}

TEST(SmallFunction, NonTrivialCaptureDestroyedExactlyOnce)
{
    Counted::resetCounts();
    int calls = 0;
    {
        SmallFunction a(Counted{&calls}); // the temporary dies here
        EXPECT_EQ(Counted::live, 1);
        SmallFunction b(std::move(a));
        EXPECT_EQ(Counted::live, 1);
        SmallFunction c;
        c = std::move(b);
        EXPECT_EQ(Counted::live, 1);
        c();
        EXPECT_EQ(calls, 1);

        // Move-assign over a live target destroys the old callable.
        SmallFunction d(Counted{&calls});
        EXPECT_EQ(Counted::live, 2);
        d = std::move(c);
        EXPECT_EQ(Counted::live, 1);
        d();
        EXPECT_EQ(calls, 2);

        // reset() destroys once; a second reset() is a no-op.
        d.reset();
        EXPECT_EQ(Counted::live, 0);
        int before = Counted::destroyed;
        d.reset();
        EXPECT_EQ(Counted::destroyed, before);
    }
    EXPECT_EQ(Counted::live, 0);
}

TEST(SmallFunction, StdFunctionCaptureIsReleased)
{
    auto token = std::make_shared<int>(5);
    int seen = 0;
    {
        std::function<void()> inner = [token, &seen] { seen = *token; };
        SmallFunction a([inner] { inner(); });
        EXPECT_EQ(token.use_count(), 3); // token, inner, a's copy
        SmallFunction b(std::move(a));
        SmallFunction c;
        c = std::move(b);
        c();
        EXPECT_EQ(seen, 5);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFunction, OversizedCaptureTakesHeapPathAndIsFreed)
{
    Counted::resetCounts();
    int calls = 0;
    std::array<std::uint64_t, 16> big{}; // 128 bytes > inlineSize
    big[15] = 42;
    std::uint64_t seen = 0;
    {
        Counted counted(&calls);
        SmallFunction a([big, counted, &seen] {
            counted();
            seen = big[15];
        });
        EXPECT_EQ(Counted::live, 2); // the local and the heap copy
        SmallFunction b(std::move(a));
        SmallFunction c;
        c = std::move(b);
        EXPECT_EQ(Counted::live, 2); // relocation moved the pointer
        c();
        EXPECT_EQ(seen, 42u);
        EXPECT_EQ(calls, 1);
        c.reset();
        EXPECT_EQ(Counted::live, 1);
    }
    EXPECT_EQ(Counted::live, 0);
}

TEST(SmallFunction, MovedFromObjectIsEmpty)
{
    int calls = 0;
    std::uint64_t out = 0;
    SmallFunction trivial(TrivialCall{&out, 1});
    SmallFunction counted(Counted{&calls});
    SmallFunction t2(std::move(trivial));
    SmallFunction c2;
    c2 = std::move(counted);
    EXPECT_FALSE(trivial);
    EXPECT_FALSE(counted);
    EXPECT_TRUE(t2);
    EXPECT_TRUE(c2);

    // Self move-assign keeps the callable.
    SmallFunction &alias = t2;
    t2 = std::move(alias);
    EXPECT_TRUE(t2);
    t2();
    EXPECT_EQ(out, 1u);
}

/**
 * Trivial and non-trivial callbacks through every relocation the event
 * queue makes: schedule into a slot, detour through the overflow heap
 * (a far-future delay, then the cal-overflow fault forcing near events
 * there too), migrate, move out at execution. Every callback must run
 * once, in time order, and every non-trivial capture must be destroyed
 * exactly once — including the cancelled ones.
 */
TEST(SmallFunction, EventQueueOverflowPathsRelocateAndDestroyOnce)
{
    for (bool forced : {false, true}) {
        SCOPED_TRACE(forced ? "cal-overflow fault" : "far-future delays");
        Counted::resetCounts();
        guard::Faults &faults = guard::Faults::instance();
        if (forced)
            faults.arm(guard::parseFaultSpec("cal-overflow:period=2"));

        int counted_calls = 0;
        std::vector<Tick> order;
        std::uint64_t sink = 0;
        {
            EventQueue eq;
            // Far-future delays (>= the 2048-tick calendar window) reach
            // the overflow heap by themselves; with the fault armed,
            // every second schedule goes there whatever its delay.
            const Tick delays[] = {1, 5, 2048, 3000, 4096, 7, 2500};
            std::vector<EventQueue::EventId> cancel_me;
            for (Tick d : delays) {
                eq.scheduleIn(d,
                              [&order, &eq] { order.push_back(eq.now()); });
                eq.scheduleIn(d, TrivialCall{&sink, d});
                EventQueue::EventId id =
                    eq.scheduleIn(d, Counted{&counted_calls});
                if (d == 3000 || d == 5)
                    cancel_me.push_back(id);
            }
            EXPECT_EQ(Counted::live, 7);
            for (EventQueue::EventId id : cancel_me)
                EXPECT_TRUE(eq.cancel(id));
            EXPECT_EQ(Counted::live, 5);

            eq.run();
            EXPECT_EQ(counted_calls, 5);
            EXPECT_EQ(Counted::live, 0);
            EXPECT_EQ(sink, 4096u); // the last trivial callback ran last
            EXPECT_EQ(order, (std::vector<Tick>{1, 5, 7, 2048, 2500, 3000,
                                                4096}));
            EXPECT_GT(eq.overflowMigrations(), 0u);

            // Pending callbacks still queued at destruction are freed.
            eq.scheduleIn(5000, Counted{&counted_calls});
            eq.scheduleIn(3, Counted{&counted_calls});
            EXPECT_EQ(Counted::live, 2);
        }
        EXPECT_EQ(Counted::live, 0);
        EXPECT_EQ(counted_calls, 5);
        if (forced)
            faults.disarm();
    }
}

} // namespace
} // namespace ltp
