/**
 * @file
 * End-to-end guard-subsystem behavior on the real machine: the
 * watchdog stopping a running engine from its monitor thread within
 * budget (with a flight record left behind), the observer-only
 * contract of the invariant checkers, the reproducibility of
 * deterministic fault injection, and the structured abort outcomes for
 * budget violations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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
    std::uint64_t events = 0;
    bool completed = false;
    RunOutcome outcome = RunOutcome::Completed;
    std::string abortReason;
};

RunOutput
runGuarded(const guard::GuardParams &guard_params,
           TopologyKind topo = TopologyKind::Mesh2D,
           RoutingPolicy routing = RoutingPolicy::DimensionOrder,
           NodeId nodes = 8, double iter_scale = 1.0,
           Tick max_ticks = 0)
{
    SystemParams sp;
    sp.numNodes = nodes;
    sp.net.topology = topo;
    sp.net.routing = routing;
    sp.guard = guard_params;
    if (max_ticks)
        sp.maxTicks = max_ticks;

    DsmSystem sys(sp);
    auto kernel = makeKernel("em3d");
    KernelConfig cfg = defaultConfig("em3d");
    cfg.nodes = nodes;
    if (iter_scale != 1.0)
        cfg.iters = std::max(1u, unsigned(cfg.iters * iter_scale));
    RunResult r = sys.run(*kernel, cfg);

    RunOutput out;
    std::ostringstream oss;
    sys.stats().dump(oss);
    out.dump = oss.str();
    out.cycles = r.cycles;
    out.events = r.eventsExecuted;
    out.completed = r.completed;
    out.outcome = r.outcome;
    out.abortReason = r.abortReason;
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

/**
 * The watchdog's abort path end to end: the monitor thread sees the
 * wall-clock budget run out while the engine executes, stops it within
 * one event through requestAbort(), and the run reports a structured
 * reason and leaves a flight record instead of running on.
 */
TEST(GuardIntegration, WatchdogStopsARunningEngineWithAFlightRecord)
{
    const char *tmpdir = std::getenv("TMPDIR");
    std::string flight = std::string(tmpdir ? tmpdir : "/tmp") +
                         "/ltp_guard_integration_wall.json";
    std::remove(flight.c_str());

    guard::GuardParams gp;
    gp.maxWallMs = 20;
    gp.flightRecorderFile = flight;

    // em3d on 32 nodes at 8x its iterations runs for seconds; the
    // budget stops it after ~20 ms.
    auto t0 = std::chrono::steady_clock::now();
    RunOutput r = runGuarded(gp, TopologyKind::PointToPoint,
                             RoutingPolicy::DimensionOrder, 32, 8.0);
    auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Aborted);
    EXPECT_NE(r.abortReason.find("wall-clock budget"), std::string::npos)
        << r.abortReason;
    EXPECT_LT(wall.count(), 10000) << "watchdog missed its budget";

    std::string dump = slurp(flight);
    EXPECT_NE(dump.find("wall-clock budget"), std::string::npos)
        << "flight record must carry the abort reason: " << dump;
    EXPECT_NE(dump.find("\"profile\": {"), std::string::npos) << dump;
    std::remove(flight.c_str());
}

/**
 * Observer-only contract: arming every invariant checker must complete
 * the run (no false positives at quiesce) and keep the stats dump
 * byte-identical to the unguarded run.
 */
TEST(GuardIntegration, ArmedCheckersAreObserverOnly)
{
    RunOutput plain = runGuarded(guard::GuardParams{}, TopologyKind::Mesh2D,
                                 RoutingPolicy::MinimalAdaptive);

    guard::GuardParams gp;
    gp.checkMask = obs::allCatsMask;
    RunOutput checked = runGuarded(gp, TopologyKind::Mesh2D,
                                   RoutingPolicy::MinimalAdaptive);

    EXPECT_TRUE(plain.completed);
    EXPECT_TRUE(checked.completed) << checked.abortReason;
    EXPECT_EQ(checked.outcome, RunOutcome::Completed);
    EXPECT_EQ(plain.cycles, checked.cycles);
    EXPECT_EQ(plain.events, checked.events);
    EXPECT_EQ(plain.dump, checked.dump)
        << "LTP_CHECK must not perturb results";
}

/**
 * Fault determinism: link-stall decisions are per-site counter-based,
 * so a fault-injected run is byte-identical on a rerun (while genuinely
 * differing from the fault-free run).
 */
TEST(GuardIntegration, LinkStallFaultIsReproducible)
{
    guard::GuardParams gp;
    gp.faultSpec = "link-stall:p=0.2,extra=16,seed=7";

    RunOutput a = runGuarded(gp);
    RunOutput b = runGuarded(gp);
    EXPECT_TRUE(a.completed);
    EXPECT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.dump, b.dump) << "fault-injected runs must be reproducible";

    RunOutput clean = runGuarded(guard::GuardParams{});
    EXPECT_NE(clean.cycles, a.cycles)
        << "link-stall must actually perturb virtual time";
}

/** Host-side stress faults must not change results at all. */
TEST(GuardIntegration, HostSideFaultsAreByteIdentical)
{
    RunOutput clean = runGuarded(guard::GuardParams{});

    guard::GuardParams storm;
    storm.faultSpec = "cal-overflow:period=2";
    RunOutput stressed = runGuarded(storm);

    EXPECT_TRUE(stressed.completed) << stressed.abortReason;
    EXPECT_EQ(clean.cycles, stressed.cycles);
    EXPECT_EQ(clean.dump, stressed.dump)
        << "cal-overflow is host-side only";
}

/** A retired-event budget aborts with a structured reason. */
TEST(GuardIntegration, EventBudgetAbortsWithStructuredReason)
{
    guard::GuardParams gp;
    gp.maxEvents = 500;

    RunOutput r = runGuarded(gp);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Aborted);
    EXPECT_NE(r.abortReason.find("event budget"), std::string::npos)
        << r.abortReason;
}

/** The legacy maxTicks safety net now reports a structured outcome. */
TEST(GuardIntegration, MaxTicksReportsAbortedOutcome)
{
    RunOutput r = runGuarded(guard::GuardParams{}, TopologyKind::Mesh2D,
                             RoutingPolicy::DimensionOrder, 8, 1.0,
                             /*max_ticks=*/5000);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Aborted);
    EXPECT_NE(r.abortReason.find("maxTicks exceeded"), std::string::npos)
        << r.abortReason;
}

} // namespace
} // namespace ltp
