/**
 * @file
 * In-process re-run determinism: a run's full observable output (stats
 * dump, cycles, memory operations, events) must not depend on what ran
 * before it in the same process. Each test runs spec A, then a
 * different spec B that arms the process-wide guards (fault injection,
 * invariant checkers, tracing), then A again, and demands A's two
 * outputs byte-identical — so state leaked between runs (a singleton
 * left armed, a static counter, a stale pool) shows up here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "dsm/system.hh"
#include "kernel/kernels.hh"
#include "obs/categories.hh"

namespace ltp
{
namespace
{

struct RunOutput
{
    std::string dump; //!< full canonical stats dump
    Tick cycles = 0;
    std::uint64_t memOps = 0;
    std::uint64_t events = 0;
    std::uint64_t rounds = 0; //!< engine windowed rounds
    bool completed = false;
};

RunOutput
runSpec(const SystemParams &sp, const std::string &kernel_name,
        unsigned iters)
{
    DsmSystem sys(sp);
    auto kernel = makeKernel(kernel_name);
    KernelConfig cfg = defaultConfig(kernel_name);
    cfg.nodes = sp.numNodes;
    cfg.iters = iters;
    RunResult r = sys.run(*kernel, cfg);

    RunOutput out;
    std::ostringstream oss;
    sys.stats().dump(oss);
    out.dump = oss.str();
    out.cycles = r.cycles;
    out.memOps = r.memOps;
    out.events = r.eventsExecuted;
    out.rounds = r.engineProfile.rounds;
    out.completed = r.completed;
    return out;
}

/** Table 4 methodology: Active LTP on the paper's p2p machine. */
SystemParams
activeSpec()
{
    SystemParams sp = SystemParams::withPredictor(PredictorKind::LtpPerBlock,
                                                  PredictorMode::Active);
    sp.numNodes = 16;
    return sp;
}

/** Routed mesh, adaptive routing over credit-limited VCs. */
SystemParams
routedSpec()
{
    SystemParams sp = SystemParams::withTopology(TopologyKind::Mesh2D, 16);
    sp.net.routing = RoutingPolicy::MinimalAdaptive;
    sp.net.vcDepth = 2;
    return sp;
}

/** @p sp with every process-wide guard and the tracer armed. */
SystemParams
withGlobalsArmed(SystemParams sp, const std::string &trace_path)
{
    sp.guard.faultSpec = "link-stall:p=0.2,extra=16,seed=3;cal-overflow";
    sp.guard.checkMask = obs::allCatsMask;
    sp.obs.traceFile = trace_path;
    return sp;
}

std::string
tracePath()
{
    return ::testing::TempDir() + "/rerun_determinism_trace.json";
}

void
expectIdentical(const RunOutput &a, const RunOutput &b,
                const std::string &what)
{
    EXPECT_TRUE(a.completed) << what;
    EXPECT_TRUE(b.completed) << what;
    EXPECT_GT(a.rounds, 0u) << what << ": the windowed engine ran no round";
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.memOps, b.memOps) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.dump, b.dump) << what;
}

TEST(RerunDeterminism, ActiveRunIsUnchangedByAnInterveningRun)
{
    RunOutput first = runSpec(activeSpec(), "em3d", 8);
    RunOutput other =
        runSpec(withGlobalsArmed(routedSpec(), tracePath()), "ocean", 4);
    EXPECT_TRUE(other.completed);
    RunOutput again = runSpec(activeSpec(), "em3d", 8);
    expectIdentical(first, again, "ltp-active p2p em3d");
    std::remove(tracePath().c_str());
}

TEST(RerunDeterminism, RoutedRunIsUnchangedByAnInterveningRun)
{
    RunOutput first = runSpec(routedSpec(), "ocean", 4);
    RunOutput other =
        runSpec(withGlobalsArmed(activeSpec(), tracePath()), "em3d", 8);
    EXPECT_TRUE(other.completed);
    RunOutput again = runSpec(routedSpec(), "ocean", 4);
    expectIdentical(first, again, "adaptive mesh ocean");
    std::remove(tracePath().c_str());
}

} // namespace
} // namespace ltp
