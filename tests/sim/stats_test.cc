/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace ltp
{
namespace
{

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, EmptyIsZero)
{
    Average a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Average, TracksMeanMinMax)
{
    Average a;
    a.sample(10);
    a.sample(20);
    a.sample(0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 10.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 20.0);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(5);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Average, NegativeSamples)
{
    Average a;
    a.sample(-4);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -4.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10.0, 4); // [0,40) in 4 buckets
    h.sample(0);
    h.sample(9.9);
    h.sample(10);
    h.sample(39.9);
    h.sample(40);
    h.sample(1000);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.totalSamples(), 6u);
}

TEST(Histogram, NegativeSamplesClampIntoBucketZero)
{
    // Regression: a negative sample used to be cast to size_t (undefined
    // behavior) and only landed in overflow by luck.
    Histogram h(10.0, 4);
    h.sample(-5.0);
    h.sample(-0.1);
    h.sample(-1e300);
    EXPECT_EQ(h.bucket(0), 3u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.totalSamples(), 3u);
    // Values beyond any size_t still land in overflow, not in UB.
    h.sample(1e300);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.totalSamples(), 4u);
}

TEST(Histogram, MeanOverAllSamples)
{
    Histogram h(1.0, 2);
    h.sample(1);
    h.sample(3);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, PercentileWalksBuckets)
{
    Histogram h(10.0, 10); // [0,100)
    for (int i = 0; i < 50; ++i)
        h.sample(5); // bucket 0
    for (int i = 0; i < 49; ++i)
        h.sample(55); // bucket 5
    h.sample(95); // bucket 9
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 60.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, PercentileUsesCeilAtRankBoundaries)
{
    // 98 samples in bucket 0, 2 in bucket 9: the 99th sample (nearest
    // rank for p99) lives in bucket 9, not bucket 0.
    Histogram h(10.0, 10);
    for (int i = 0; i < 98; ++i)
        h.sample(5);
    h.sample(95);
    h.sample(95);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.98), 10.0);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h(1.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentileOverflowReportsRange)
{
    Histogram h(10.0, 4); // [0,40)
    h.sample(1000);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 40.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(10.0, 4);
    h.sample(5);
    h.sample(500);
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_EQ(h.bucket(0), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(StatGroup, CounterIsPersistentByName)
{
    StatGroup g;
    g.counter("a.b").inc(3);
    g.counter("a.b").inc(4);
    EXPECT_EQ(g.counterValue("a.b"), 7u);
}

TEST(StatGroup, MissingCounterReadsZero)
{
    StatGroup g;
    EXPECT_EQ(g.counterValue("missing"), 0u);
    EXPECT_FALSE(g.hasCounter("missing"));
}

TEST(StatGroup, AverageByName)
{
    StatGroup g;
    g.average("lat").sample(100);
    g.average("lat").sample(200);
    EXPECT_DOUBLE_EQ(g.averageMean("lat"), 150.0);
    EXPECT_TRUE(g.hasAverage("lat"));
}

TEST(StatGroup, DumpContainsAllStats)
{
    StatGroup g;
    g.counter("x").inc(5);
    g.average("y").sample(1.5);
    std::ostringstream oss;
    g.dump(oss);
    EXPECT_NE(oss.str().find("x 5"), std::string::npos);
    EXPECT_NE(oss.str().find("y mean=1.50"), std::string::npos);
}

TEST(StatGroup, ResetAllZeroesEverything)
{
    StatGroup g;
    g.counter("x").inc(5);
    g.average("y").sample(2);
    g.histogram("z", 1.0, 4).sample(2);
    g.resetAll();
    EXPECT_EQ(g.counterValue("x"), 0u);
    EXPECT_EQ(g.average("y").count(), 0u);
    EXPECT_EQ(g.histogram("z").totalSamples(), 0u);
}

TEST(StatGroup, HistogramIsPersistentByName)
{
    StatGroup g;
    g.histogram("net.lat", 10.0, 8).sample(15);
    // Shape arguments on later lookups are ignored.
    Histogram &h = g.histogram("net.lat", 999.0, 1);
    EXPECT_EQ(h.numBuckets(), 8u);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 10.0);
    EXPECT_EQ(h.totalSamples(), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
}

TEST(StatGroup, FindHistogram)
{
    StatGroup g;
    EXPECT_EQ(g.findHistogram("missing"), nullptr);
    EXPECT_FALSE(g.hasHistogram("missing"));
    g.histogram("h", 1.0, 2).sample(0.5);
    ASSERT_NE(g.findHistogram("h"), nullptr);
    EXPECT_TRUE(g.hasHistogram("h"));
    EXPECT_EQ(g.findHistogram("h")->totalSamples(), 1u);
}

TEST(StatGroup, DumpContainsHistograms)
{
    StatGroup g;
    g.histogram("lat", 10.0, 4).sample(5);
    std::ostringstream oss;
    g.dump(oss);
    EXPECT_NE(oss.str().find("lat hist"), std::string::npos);
    EXPECT_NE(oss.str().find("count=1"), std::string::npos);
}

TEST(StatGroup, CounterPrefixQueries)
{
    StatGroup g;
    g.counter("net.linkBusy.0-1").inc(10);
    g.counter("net.linkBusy.1-2").inc(25);
    g.counter("net.linkMsgs.1-2").inc(1000);
    EXPECT_EQ(g.maxCounterValueWithPrefix("net.linkBusy."), 25u);
    EXPECT_EQ(g.sumCountersWithPrefix("net.linkBusy."), 35u);
    EXPECT_EQ(g.maxCounterValueWithPrefix("nope."), 0u);
}

TEST(StatGroup, DumpOrderIsCanonicalNotInsertionOrder)
{
    // Components register their stats in construction order; the dump
    // must not care. Register the same stats in two different orders
    // and demand byte-identical output.
    StatGroup forward;
    forward.counter("a.first").inc(1);
    forward.counter("z.last").inc(2);
    forward.average("m.mid").sample(3.0);
    forward.average("b.early").sample(4.0);
    forward.histogram("h.one", 2.0, 4).sample(1.0);
    forward.histogram("c.two", 2.0, 4).sample(3.0);

    StatGroup reversed;
    reversed.histogram("c.two", 2.0, 4).sample(3.0);
    reversed.histogram("h.one", 2.0, 4).sample(1.0);
    reversed.average("b.early").sample(4.0);
    reversed.average("m.mid").sample(3.0);
    reversed.counter("z.last").inc(2);
    reversed.counter("a.first").inc(1);

    std::ostringstream fwd, rev;
    forward.dump(fwd);
    reversed.dump(rev);
    EXPECT_EQ(fwd.str(), rev.str());

    // And the order really is sorted by name within each section.
    std::string s = fwd.str();
    EXPECT_LT(s.find("a.first"), s.find("z.last"));
    EXPECT_LT(s.find("b.early"), s.find("m.mid"));
    EXPECT_LT(s.find("c.two"), s.find("h.one"));
}

TEST(Histogram, MergeFromEmptySourceIsIdentity)
{
    Histogram h(10.0, 4);
    h.sample(5);
    h.sample(1000);
    Histogram empty(10.0, 4);
    h.merge(empty);
    EXPECT_EQ(h.totalSamples(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.overflow(), 1u);

    // And merging into an empty histogram copies the source.
    Histogram dst(10.0, 4);
    dst.merge(h);
    EXPECT_EQ(dst.totalSamples(), 2u);
    EXPECT_EQ(dst.bucket(0), 1u);
    EXPECT_EQ(dst.overflow(), 1u);
    EXPECT_DOUBLE_EQ(dst.mean(), h.mean());
}

TEST(Histogram, SingleSamplePercentile)
{
    // With one sample every percentile is that sample's bucket; the
    // nearest-rank ceil must not index below the first occupied bucket.
    Histogram h(10.0, 10);
    h.sample(25); // bucket 2 -> upper edge 30
    EXPECT_DOUBLE_EQ(h.percentile(0.01), 30.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 30.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 30.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 30.0);
}

TEST(StatSnapshot, DeltaRoundTrip)
{
    StatGroup g;
    g.counter("c").inc(10);
    g.average("a").sample(4.0);
    StatSnapshot before = g.snapshot();

    g.counter("c").inc(7);
    g.counter("fresh").inc(3); // registered mid-interval
    g.average("a").sample(6.0);
    StatSnapshot after = g.snapshot();

    StatSnapshot d = after.delta(before);
    EXPECT_EQ(d.counters.at("c"), 7u);
    EXPECT_EQ(d.counters.at("fresh"), 3u); // absent-in-older = full value
    EXPECT_DOUBLE_EQ(d.averages.at("a").sum, 6.0);
    EXPECT_EQ(d.averages.at("a").count, 1u);

    // A quiet interval deltas to all zeroes, not to missing names.
    StatSnapshot quiet = g.snapshot().delta(after);
    EXPECT_EQ(quiet.counters.at("c"), 0u);
    EXPECT_EQ(quiet.averages.at("a").count, 0u);
}

TEST(StatInterning, IdsAreStableAndNameLookupIsInternOnce)
{
    StatGroup g;
    StatId a = g.counterId("net.msgs");
    StatId b = g.counterId("net.hops");
    EXPECT_NE(a, b);
    // Re-interning an existing name returns the same dense id, no
    // matter how many registrations happen in between.
    g.counter("mem.reads").inc();
    EXPECT_EQ(g.counterId("net.msgs"), a);
    EXPECT_EQ(g.counterId("net.hops"), b);
    EXPECT_EQ(g.numCounters(), 3u);
}

TEST(StatInterning, CounterAtAliasesTheNamedCounter)
{
    StatGroup g;
    StatId id = g.counterId("proto.getS");
    Counter &by_name = g.counter("proto.getS");
    EXPECT_EQ(&g.counterAt(id), &by_name);
    g.counterAt(id).inc(5);
    EXPECT_EQ(g.counterValue("proto.getS"), 5u);

    StatId aid = g.averageId("net.lat");
    EXPECT_EQ(&g.averageAt(aid), &g.average("net.lat"));
    g.averageAt(aid).sample(8.0);
    EXPECT_DOUBLE_EQ(g.averageMean("net.lat"), 8.0);
}

TEST(StatInterning, ReferencesSurviveSlabGrowth)
{
    // The structure-of-arrays registry grows by whole slabs behind
    // stable pointers: a Counter& cached at registration time (the
    // hot-path pattern every controller uses) must stay valid across
    // any number of later registrations.
    StatGroup g;
    Counter &early = g.counter("early");
    for (int i = 0; i < 1000; ++i)
        g.counter("filler." + std::to_string(i)).inc();
    early.inc(3);
    EXPECT_EQ(g.counterValue("early"), 3u);
    EXPECT_EQ(g.numCounters(), 1001u);
}

} // namespace
} // namespace ltp
