/**
 * @file
 * MessagePool unit tests: slot recycling, slab growth under burst,
 * and the Debug-build generation-tag defense against stale handles
 * (use-after-free / double-free).
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/message_pool.hh"

namespace ltp
{
namespace
{

Message
tagged(std::uint64_t tag)
{
    Message m;
    m.type = MsgType::GetS;
    m.src = 1;
    m.dst = 2;
    m.addr = Addr(tag);
    return m;
}

TEST(MessagePool, DefaultHandleIsInvalid)
{
    MsgHandle h;
    EXPECT_FALSE(h.valid());
}

TEST(MessagePool, AllocReadsBackAndFreeRetires)
{
    MessagePool pool;
    MsgHandle h = pool.alloc(tagged(42));
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(pool.at(h).addr, Addr(42));
    EXPECT_EQ(pool.liveMessages(), 1u);
    pool.free(h);
    EXPECT_EQ(pool.liveMessages(), 0u);
}

TEST(MessagePool, FreedSlotIsRecycledUnderANewGeneration)
{
    MessagePool pool;
    MsgHandle a = pool.alloc(tagged(1));
    std::uint32_t slot = a.slot();
    pool.free(a);

    // LIFO recycling: the next alloc reuses the slot just freed, but
    // under a bumped generation so the two handles never alias.
    MsgHandle b = pool.alloc(tagged(2));
    EXPECT_EQ(b.slot(), slot);
    EXPECT_NE(a.bits, b.bits);
    EXPECT_EQ(pool.at(b).addr, Addr(2));
    EXPECT_EQ(pool.highWater(), 1u) << "recycle must not grow the arena";
    pool.free(b);
}

TEST(MessagePool, BurstGrowsSlabsWithoutMovingLiveMessages)
{
    constexpr int kBurst = 3000; // > 2 slabs of 1024
    MessagePool pool;
    std::vector<MsgHandle> live;
    live.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i)
        live.push_back(pool.alloc(tagged(std::uint64_t(i))));

    EXPECT_EQ(pool.highWater(), unsigned(kBurst));
    EXPECT_GE(pool.numSlabs(), 3u);
    EXPECT_EQ(pool.liveMessages(), std::uint64_t(kBurst));

    // Slab growth never relocates: every earlier message still reads
    // back its own tag through its original handle.
    for (int i = 0; i < kBurst; ++i)
        ASSERT_EQ(pool.at(live[i]).addr, Addr(std::uint64_t(i))) << i;

    for (MsgHandle h : live)
        pool.free(h);
    EXPECT_EQ(pool.liveMessages(), 0u);

    // The drained arena satisfies the same burst again from recycled
    // slots — the footprint is the peak population, not the total
    // traffic.
    for (int i = 0; i < kBurst; ++i)
        pool.alloc(tagged(std::uint64_t(i)));
    EXPECT_EQ(pool.highWater(), unsigned(kBurst));
}

#ifndef NDEBUG
using MessagePoolDeathTest = ::testing::Test;

TEST(MessagePoolDeathTest, StaleHandleDereferenceTripsGenerationCheck)
{
    MessagePool pool;
    MsgHandle h = pool.alloc(tagged(3));
    pool.free(h);
    pool.alloc(tagged(4)); // recycles the slot under a new generation
    EXPECT_DEATH((void)pool.at(h), "stale message handle");
}

TEST(MessagePoolDeathTest, DoubleFreeTripsGenerationCheck)
{
    MessagePool pool;
    MsgHandle h = pool.alloc(tagged(5));
    pool.free(h);
    EXPECT_DEATH(pool.free(h), "double free");
}
#endif

} // namespace
} // namespace ltp
