/**
 * @file
 * Observability (src/obs/): the observer-only contract.
 *
 * Tracing and metrics sampling must never perturb the simulation —
 * stats dumps are byte-identical with them on or off — while the trace
 * file must actually contain all five category groups and the metrics
 * stream must follow its JSONL schema. Plus unit coverage for the
 * category taxonomy parser and the EventQueue tick watcher the
 * sequential sampler rides on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsm/system.hh"
#include "kernel/kernels.hh"
#include "obs/categories.hh"
#include "obs/obs_params.hh"
#include "sim/event_queue.hh"

namespace ltp
{
namespace
{

// ---- category taxonomy -------------------------------------------------

TEST(ObsCategories, NamesRoundTrip)
{
    for (unsigned i = 0; i < obs::numCats; ++i) {
        auto cat = obs::Cat(i);
        EXPECT_EQ(obs::parseCat(obs::catName(cat)), cat);
    }
}

TEST(ObsCategories, ParseMaskAllAndLists)
{
    EXPECT_EQ(obs::parseCategoryMask("all"), obs::allCatsMask);
    // Empty list = no categories (an empty LTP_TRACE_CATS silences the
    // tracer; leaving the variable unset keeps the all-categories
    // default).
    EXPECT_EQ(obs::parseCategoryMask(""), 0u);
    EXPECT_EQ(obs::parseCategoryMask("link"),
              obs::catBit(obs::Cat::Link));
    EXPECT_EQ(obs::parseCategoryMask("link,engine"),
              obs::catBit(obs::Cat::Link) |
                  obs::catBit(obs::Cat::Engine));
}

TEST(ObsCategories, ParseMaskRejectsUnknownTokensLoudly)
{
    try {
        obs::parseCategoryMask("link,bogus");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The message must name the offending token and the valid ones.
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("link"), std::string::npos);
    }
}

TEST(ObsParams, DefaultIsEverythingOff)
{
    obs::ObsParams p;
    EXPECT_FALSE(p.traceEnabled());
    EXPECT_FALSE(p.metricsEnabled());
    EXPECT_FALSE(p.anyEnabled());
}

// ---- EventQueue tick watcher (the sequential sampler's hook) -----------

TEST(EventQueueTickWatcher, FiresOnGridAndRearms)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.armTickWatcher(10, [&](Tick now) {
        fired.push_back(now);
        return ((now / 10) + 1) * 10; // next multiple of 10 after now
    });
    for (Tick t : {3, 12, 14, 27, 50})
        eq.scheduleAt(t, [] {});
    eq.run();
    // The watcher observes the first event at-or-after each due tick:
    // due 10 -> event at 12; due 20 -> 27; due 30 (realigned) -> 50.
    EXPECT_EQ(fired, (std::vector<Tick>{12, 27, 50}));
}

TEST(EventQueueTickWatcher, DisarmStopsFiring)
{
    EventQueue eq;
    int fires = 0;
    eq.armTickWatcher(5, [&](Tick now) {
        ++fires;
        return now + 5;
    });
    eq.scheduleAt(6, [] {});
    eq.run();
    EXPECT_EQ(fires, 1);
    eq.disarmTickWatcher();
    eq.scheduleAt(20, [] {});
    eq.run();
    EXPECT_EQ(fires, 1);
}

// ---- end-to-end: observer-only tracing + metrics -----------------------

struct ObsRun
{
    std::string dump;
    bool completed = false;
};

/** One em3d run, Passive LTP on a 16-node mesh so every category has
 *  traffic. */
ObsRun
runEm3d(const obs::ObsParams &obs_params)
{
    SystemParams sp = SystemParams::withPredictor(
        PredictorKind::LtpPerBlock, PredictorMode::Passive);
    sp.numNodes = 16;
    sp.net.topology = TopologyKind::Mesh2D;
    sp.obs = obs_params;

    DsmSystem sys(sp);
    auto kernel = makeKernel("em3d");
    KernelConfig cfg = defaultConfig("em3d");
    cfg.nodes = sp.numNodes;
    RunResult r = sys.run(*kernel, cfg);

    ObsRun out;
    out.completed = r.completed;
    std::ostringstream oss;
    sys.stats().dump(oss);
    out.dump = oss.str();
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(ObsEndToEnd, ObserverOnlyAndTraceHasAllCategories)
{
    std::string dir = ::testing::TempDir();
    obs::ObsParams on;
    on.traceFile = dir + "/obs_test_trace.json";
    on.metricsFile = dir + "/obs_test_metrics.jsonl";
    on.metricsIntervalTicks = 5000;

    ObsRun plain = runEm3d(obs::ObsParams{});
    ObsRun traced = runEm3d(on);
    ASSERT_TRUE(plain.completed);
    ASSERT_TRUE(traced.completed);

    // The whole point: tracing + metrics change NOTHING observable.
    EXPECT_EQ(plain.dump, traced.dump);

    // All five category groups made it into the trace file.
    std::string trace = slurp(on.traceFile);
    ASSERT_FALSE(trace.empty());
    for (const char *cat :
         {"message", "link", "directory", "predictor", "engine"}) {
        EXPECT_NE(trace.find("\"cat\":\"" + std::string(cat) + "\""),
                  std::string::npos)
            << "category missing from trace: " << cat;
    }
    EXPECT_NE(trace.find("\"dropped\":"), std::string::npos);
    EXPECT_NE(trace.find("\"traceEvents\":"), std::string::npos);

    // Metrics: one JSON object per line, tick strictly increasing.
    std::ifstream metrics(on.metricsFile);
    ASSERT_TRUE(metrics.good());
    std::string line;
    unsigned lines = 0;
    long long prev_tick = -1;
    while (std::getline(metrics, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"tick\":"), std::string::npos);
        EXPECT_NE(line.find("\"counters\":"), std::string::npos);
        long long tick = std::atoll(line.c_str() + line.find(':') + 1);
        EXPECT_GT(tick, prev_tick);
        prev_tick = tick;
        ++lines;
    }
    // em3d at 16 nodes runs >> one interval; expect several samples.
    EXPECT_GE(lines, 2u);

    std::remove(on.traceFile.c_str());
    std::remove(on.metricsFile.c_str());
}

TEST(ObsEndToEnd, CategoryMaskRestrictsTraceOutput)
{
    std::string dir = ::testing::TempDir();
    obs::ObsParams on;
    on.traceFile = dir + "/obs_test_linkonly.json";
    on.tracerCategories = obs::catBit(obs::Cat::Link);

    ObsRun traced = runEm3d(on);
    ASSERT_TRUE(traced.completed);
    std::string trace = slurp(on.traceFile);
    EXPECT_NE(trace.find("\"cat\":\"link\""), std::string::npos);
    for (const char *cat : {"message", "directory", "predictor", "engine"})
        EXPECT_EQ(trace.find("\"cat\":\"" + std::string(cat) + "\""),
                  std::string::npos)
            << "masked category leaked into trace: " << cat;
    std::remove(on.traceFile.c_str());
}

} // namespace
} // namespace ltp
