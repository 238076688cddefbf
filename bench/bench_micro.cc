/**
 * @file
 * Google-benchmark microbenchmarks for the hot structures: trace
 * signature updates, predictor touch/learn paths, the event queue (a
 * cold batch and the steady state), an uncongested and a congested
 * router hop, and end-to-end simulated-cycles-per-wall-second for a
 * small system.
 */

#include <benchmark/benchmark.h>

#include "dsm/experiment.hh"
#include "net/topo/routed_network.hh"
#include "predictor/last_pc.hh"
#include "predictor/ltp_global.hh"
#include "predictor/ltp_per_block.hh"
#include "predictor/signature.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace ltp;

void
BM_SignatureExtend(benchmark::State &state)
{
    Signature sig = Signature::init(0x4000, unsigned(state.range(0)));
    Pc pc = 0x4004;
    for (auto _ : state) {
        sig = sig.extend(pc);
        benchmark::DoNotOptimize(sig);
    }
}
BENCHMARK(BM_SignatureExtend)->Arg(30)->Arg(13)->Arg(6);

template <typename Pred>
void
predictorTouchLoop(benchmark::State &state)
{
    Pred pred;
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr blk = (i % 1024) * 32;
        bool fill = (i % 8) == 0;
        benchmark::DoNotOptimize(
            pred.onTouch(blk, 0x1000 + (i % 16) * 4, false, fill));
        if (i % 8 == 7)
            pred.onInvalidation(blk);
        ++i;
    }
}

void
BM_LtpPerBlockTouch(benchmark::State &state)
{
    predictorTouchLoop<LtpPerBlock>(state);
}
BENCHMARK(BM_LtpPerBlockTouch);

void
BM_LtpGlobalTouch(benchmark::State &state)
{
    predictorTouchLoop<LtpGlobal>(state);
}
BENCHMARK(BM_LtpGlobalTouch);

void
BM_LastPcTouch(benchmark::State &state)
{
    predictorTouchLoop<LastPcPredictor>(state);
}
BENCHMARK(BM_LastPcTouch);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAt(Tick(i % 97), [] {});
        eq.run();
        benchmark::DoNotOptimize(eq.eventsExecuted());
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

/** A self-rescheduling event with a 16-byte capture (queue pointer +
 *  LCG state), the size of a typical hot-path network callback. */
struct SteadyHop
{
    EventQueue *eq;
    std::uint64_t x;

    void
    operator()() const
    {
        std::uint64_t nx = x * 6364136223846793005ull + 1442695040888963407ull;
        eq->scheduleIn(1 + (nx >> 33) % 80, SteadyHop{eq, nx});
    }
};

/**
 * Event-queue steady state: about 200 pending events spread over an
 * 80-tick horizon, each one rescheduling itself when it runs, so one
 * iteration (one step()) is exactly one execute plus one schedule with
 * a 16-byte capture. The queue is warm (slots, buckets), as in a long
 * simulation; reports ns per schedule+execute.
 */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    EventQueue eq;
    for (std::uint64_t i = 0; i < 200; ++i)
        eq.scheduleIn(1 + i % 80, SteadyHop{&eq, i});
    for (int i = 0; i < 10000; ++i) // warm the slot arena and buckets
        eq.step();
    for (auto _ : state)
        eq.step();
    benchmark::DoNotOptimize(eq.eventsExecuted());
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyState);

/**
 * Event-queue tick burst, the barrier-release pattern: 256 events (one
 * wake-up per waiting thread) scheduled for one tick 200 ticks ahead,
 * then executed back to back. One iteration is one release; the queue
 * is warm (the first releases grow the slot arena). Reports ns per
 * event, schedule and execute included.
 */
void
BM_EventQueueTickBurst(benchmark::State &state)
{
    constexpr int burst = 256;
    EventQueue eq;
    std::uint64_t woken = 0;
    auto release = [&] {
        Tick at = eq.now() + 200;
        for (int i = 0; i < burst; ++i)
            eq.scheduleAt(at, [&woken] { ++woken; });
        eq.run();
    };
    for (int i = 0; i < 100; ++i)
        release();
    for (auto _ : state)
        release();
    benchmark::DoNotOptimize(woken);
    state.SetItemsProcessed(std::int64_t(state.iterations()) * burst);
}
BENCHMARK(BM_EventQueueTickBurst);

/**
 * Router hop without contention: an 8x8 mesh, dimension-order routing,
 * unbounded VCs. Each iteration sends four corner-to-corner messages
 * (0->63, 63->0, 7->56, 56->7: 14 hops each, on disjoint directed
 * links) and runs them to delivery, so every grant finds its link
 * idle. Reports host time per hop, including each message's NI and
 * delivery events.
 */
void
BM_RouterHopUncongested(benchmark::State &state)
{
    EventQueue eq;
    StatGroup stats;
    NetworkParams p;
    p.topology = TopologyKind::Mesh2D;
    p.routing = RoutingPolicy::DimensionOrder;
    p.vcDepth = 0;
    RoutedNetwork net(eq, 64, p, stats);
    for (NodeId n = 0; n < 64; ++n)
        net.setSink(n, [](const Message &) {});
    const Counter &hops = stats.counter("net.hops");
    const std::pair<NodeId, NodeId> corners[] = {
        {0, 63}, {63, 0}, {7, 56}, {56, 7}};

    std::uint64_t sent = 0;
    for (auto _ : state) {
        for (auto [src, dst] : corners) {
            Message m;
            m.type = MsgType::GetS;
            m.src = src;
            m.dst = dst;
            m.addr = Addr(sent++);
            net.send(m);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(eq.eventsExecuted());
    state.counters["time_per_hop"] = benchmark::Counter(
        double(hops.value()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RouterHopUncongested);

/**
 * Router hop under backlog: one bounded link (2-node mesh, adaptive
 * routing, depth-1 VCs) with N requests queued on its adaptive VC. The
 * adaptive VC's head is blocked most of the time, so each credit return
 * drains the link by rerouting the oldest request onto the escape VC
 * and granting it. One network serves every iteration, so pool slabs
 * and FIFO blocks are warm. Reports host time per grant (one drain
 * each) over the whole backlog, including the message's NI and arrival
 * events; the arbitration reads VC FIFO heads only, so this stays flat
 * in N.
 */
void
BM_RouterCongestedDrain(benchmark::State &state)
{
    const auto n = std::size_t(state.range(0));
    EventQueue eq;
    StatGroup stats;
    NetworkParams p;
    p.topology = TopologyKind::Mesh2D;
    p.routing = RoutingPolicy::MinimalAdaptive;
    p.vcDepth = 1;
    RoutedNetwork net(eq, 2, p, stats);
    net.setSink(1, [](const Message &) {});
    const Counter &grants = stats.counter("net.hops");

    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
            Message m;
            m.type = MsgType::GetS;
            m.src = 0;
            m.dst = 1;
            m.addr = Addr(i);
            net.send(m);
        }
        eq.run();
        benchmark::DoNotOptimize(eq.eventsExecuted());
    }
    // Grants per second of timed loop, inverted: seconds per drain.
    state.counters["time_per_drain"] = benchmark::Counter(
        double(grants.value()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RouterCongestedDrain)->RangeMultiplier(16)->Range(16, 4096);

void
BM_EndToEndEm3d(benchmark::State &state)
{
    for (auto _ : state) {
        ExperimentSpec spec;
        spec.kernel = "em3d";
        spec.predictor = PredictorKind::LtpPerBlock;
        spec.mode = PredictorMode::Passive;
        spec.iterScale = 0.1;
        RunResult r = runExperiment(spec);
        benchmark::DoNotOptimize(r.cycles);
        state.counters["simCycles"] = double(r.cycles);
    }
}
BENCHMARK(BM_EndToEndEm3d)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
