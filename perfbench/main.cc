/**
 * @file
 * ltpbench: the repository benchmark program (see README.md).
 *
 *   ltpbench --workload p2p32-paper|mesh64-dor|noc64-hotspot
 *            --seed N --seconds S --trace 0|1 [--smoke] [--spans FILE]
 *
 * A pass runs the workload's fixed set of cells once: experiment cells
 * for the two DSM workloads, offered-rate phases for noc64-hotspot.
 * It repeats passes for S seconds (at least three), checks
 * every cell's simulated digest against its first pass, and prints one
 * line per cell, one line per metric and, last, one JSON object:
 *
 *  - --trace 0: the end-to-end metrics, medians over plain passes;
 *  - --trace 1: the per-layer metrics. Traced passes (spans, per-call
 *    tallies, the predictor timing wrapper) alternate with plain passes
 *    so the trace overhead is measured, and one more pass runs with
 *    every invariant checker armed. All digests must agree.
 *
 * It builds SystemParams itself with one simulation thread and
 * observability and guards off, so LTP_* variables in the environment
 * cannot change what is measured. --smoke shortens every cell for the
 * self-test; its numbers are not comparable with full runs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsm/system.hh"
#include "net/topo/routed_network.hh"
#include "obs/categories.hh"
#include "sim/guard/checkers.hh"
#include "sim/rng.hh"
#include "trace.hh"

using namespace ltp;
using namespace ltpbench;

namespace
{

// ---- options ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    std::string spanFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "ltpbench: %s\nusage: ltpbench --workload "
                 "p2p32-paper|mesh64-dor|noc64-hotspot --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        auto number = [&](const std::string &v) {
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0)
                usage("bad number '" + v + "' for " + a);
            return d;
        };
        if (a == "--workload") {
            o.workload = value();
            haveWorkload = true;
        } else if (a == "--seed") {
            std::string v = value();
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("bad seed '" + v + "'");
        } else if (a == "--seconds") {
            o.seconds = number(value());
        } else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--spans") {
            o.spanFile = value();
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

// ---- small helpers ---------------------------------------------------------

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return double(nsBetween(a, b)) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** First and third quartile, as Python's statistics.quantiles(n=4). */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2) {
        double m = median(v);
        return {m, m};
    }
    std::sort(v.begin(), v.end());
    long n = long(v.size());
    long m = n + 1;
    auto q = [&](long i) {
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        return (v[j - 1] * double(4 - delta) + v[j] * double(delta)) / 4.0;
    };
    return {q(1), q(3)};
}

/** FNV-1a 64 over @p text. */
std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Resident-set high-water mark of this process image in MB (VmHWM).
 * getrusage's ru_maxrss would also count the parent's image from
 * before exec.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return double(kb) / 1024.0;
}

// ---- per-pass results ------------------------------------------------------

/**
 * Simulated counts of one pass, summed over its cells. They are model
 * outputs: every pass of one run (and every run of one commit at one
 * seed) yields the same values.
 */
struct LayerCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t memOps = 0;
    std::uint64_t events = 0;
    std::uint64_t overflowMigrations = 0;
    std::uint64_t parRounds = 0;
    std::uint64_t parEvents = 0; //!< events of the cells that count rounds
    std::uint64_t netMsgs = 0;
    std::uint64_t dataMsgs = 0;
    std::uint64_t reorderHeld = 0;
    std::uint64_t hops = 0;
    std::uint64_t routedMsgs = 0; //!< samples of net.hopsPerMsg
    std::uint64_t escapeReroutes = 0;
    std::uint64_t undelivered = 0; //!< injected, never delivered (noc64)
    double peakLinkUtil = 0.0;
    std::uint64_t dirRequests = 0;
    Average dirQueueing;
    Average dirService;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    Average missLatency;
    // Active cells (Table 4).
    std::uint64_t selfInvIssued = 0;
    std::uint64_t selfInvTimely = 0;
    std::uint64_t selfInvLate = 0;
    std::uint64_t selfInvPremature = 0;
    // Passive cells (Fig 6, Table 3).
    std::uint64_t invalidations = 0;
    std::uint64_t predicted = 0;
    std::uint64_t mispredicted = 0;
    std::uint64_t storageEntries = 0;
    /**
     * Send-to-delivery latency merged over cells: net.endToEndLatency
     * for DSM cells, the sinks' post-warm-up histogram for noc64 (where
     * every message is sent at its due time).
     */
    std::optional<Histogram> netLatency;
};

/** Host time of one pass, summed over its cells. */
struct PassTiming
{
    double wallS = 0.0;  //!< set-up + run + tear-down of every cell
    double setupS = 0.0; //!< per cell: median of its set-up samples
    double runS = 0.0;   //!< inside DsmSystem::run / EventQueue::run
    PredictorTally pred;
    CallTally send;   //!< Interconnect::send (noc64)
    CallTally inject; //!< injector events, sends included (noc64)
    CallTally sink;   //!< delivery callbacks (noc64)
};

struct CellOutcome
{
    bool ok = true;
    std::string error;
    std::uint64_t digest = 0;
    Tick cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t ops = 1;       //!< operations this cell attempted
    std::uint64_t failedOps = 0; //!< of which failed
};

enum class PassKind
{
    Plain,   //!< untraced: what the end-to-end metrics measure
    Traced,  //!< spans, per-call tallies, predictor wrapper
    Guarded, //!< every invariant checker armed; digests only
};

struct PassResult
{
    PassTiming t;
    LayerCounts layer;
    std::vector<CellOutcome> cells;
};

void
addAverage(Average &into, StatGroup &stats, const std::string &name)
{
    // Merged for its sum and count: a mean of per-cell means would
    // weight every cell equally.
    if (stats.hasAverage(name))
        into.merge(stats.average(name));
}

void
addHistogram(std::optional<Histogram> &into, const Histogram *h)
{
    if (!h)
        return;
    if (into)
        into->merge(*h);
    else
        into = *h;
}

/** Counters every interconnect registers, read after a run. */
void
addNetCounts(LayerCounts &l, StatGroup &stats)
{
    l.netMsgs += stats.counterValue("net.msgs");
    l.dataMsgs += stats.counterValue("net.dataMsgs");
    l.reorderHeld += stats.counterValue("net.reorderHeld");
    l.hops += stats.counterValue("net.hops");
    l.escapeReroutes += stats.counterValue("net.escapeReroutes");
    if (stats.hasAverage("net.hopsPerMsg")) {
        l.routedMsgs += stats.average("net.hopsPerMsg").count();
    }
}

std::string
dumpOf(const StatGroup &stats)
{
    std::ostringstream os;
    stats.dump(os);
    return os.str();
}

// ---- the workloads ---------------------------------------------------------

constexpr int setupRepeats = 4; //!< extra set-ups per cell and pass

/**
 * Set-up is a few milliseconds per workload, so every cell is built
 * setupRepeats more times and reports the median. Each object @p build
 * returns is destroyed outside the timed interval.
 */
template <typename Build>
std::vector<double>
extraSetups(SpanLog *log, int cell, int parent, Build build)
{
    std::vector<double> samples;
    for (int k = 0; k < setupRepeats; ++k) {
        Stopwatch sw(log, "setup", cell, parent);
        auto built = build();
        samples.push_back(sw.stop());
    }
    return samples;
}

/** Add one cell's host times to its pass. */
void
addTimes(PassTiming &t, const std::vector<double> &setups, double wallS,
         double runS)
{
    t.wallS += wallS;
    t.setupS += median(setups);
    t.runS += runS;
}

/** One experiment cell of a DSM workload. */
struct DsmCell
{
    std::string kernel;
    std::string config; //!< base | ltp-passive | ltp-active
    SystemParams params;
};

/** A workload: a fixed list of cells and how to run one pass of them. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual std::vector<std::string> cellNames() const = 0;
    virtual PassResult runPass(PassKind kind, SpanLog *log) = 0;
    /** Model checks on the first plain pass; false marks the run wrong. */
    virtual bool checkModel(const PassResult &first) const = 0;
};

class DsmWorkload final : public Workload
{
  public:
    DsmWorkload(std::vector<DsmCell> cells, std::uint64_t seed, bool smoke)
        : cells_(std::move(cells)), seed_(seed), smoke_(smoke)
    {
    }

    std::vector<std::string>
    cellNames() const override
    {
        std::vector<std::string> names;
        for (const DsmCell &c : cells_)
            names.push_back(c.kernel + "/" + c.config);
        return names;
    }

    PassResult
    runPass(PassKind kind, SpanLog *log) override
    {
        PassResult p;
        Stopwatch pass(log, "pass", -1, -1);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            p.cells.push_back(
                runCell(cells_[i], int(i), kind, log, pass.span(), p));
        }
        pass.stop();
        return p;
    }

    bool
    checkModel(const PassResult &first) const override
    {
        // Passive predictors observe without perturbing: every passive
        // cell must simulate exactly what its base cell simulates.
        bool ok = true;
        int passiveCells = 0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (cells_[i].config != "ltp-passive")
                continue;
            ++passiveCells;
            for (std::size_t j = 0; j < cells_.size(); ++j) {
                if (cells_[j].kernel != cells_[i].kernel ||
                    cells_[j].config != "base")
                    continue;
                const CellOutcome &a = first.cells[i];
                const CellOutcome &b = first.cells[j];
                if (a.cycles != b.cycles || a.events != b.events) {
                    std::printf("check FAIL passive-equals-base %s: "
                                "cycles %llu vs %llu, events %llu vs "
                                "%llu\n",
                                cells_[i].kernel.c_str(),
                                (unsigned long long)a.cycles,
                                (unsigned long long)b.cycles,
                                (unsigned long long)a.events,
                                (unsigned long long)b.events);
                    ok = false;
                }
            }
        }
        if (passiveCells)
            std::printf("check %s passive-equals-base\n", ok ? "ok" : "FAIL");
        return ok;
    }

    /** Fig 9: geomean over kernels of base cycles / active cycles. */
    double
    fig9Geomean(const PassResult &p) const
    {
        double logSum = 0.0;
        int n = 0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (cells_[i].config != "ltp-active")
                continue;
            for (std::size_t j = 0; j < cells_.size(); ++j) {
                if (cells_[j].kernel == cells_[i].kernel &&
                    cells_[j].config == "base" && p.cells[i].cycles) {
                    logSum += std::log(double(p.cells[j].cycles) /
                                       double(p.cells[i].cycles));
                    ++n;
                }
            }
        }
        return n ? std::exp(logSum / n) : 0.0;
    }

  private:
    KernelConfig
    configFor(const DsmCell &c) const
    {
        KernelConfig cfg = defaultConfig(c.kernel);
        cfg.nodes = c.params.numNodes;
        cfg.seed = seed_;
        if (smoke_)
            cfg.iters = std::max(1u, cfg.iters / 8);
        return cfg;
    }

    CellOutcome
    runCell(const DsmCell &c, int id, PassKind kind, SpanLog *log,
            int passSpan, PassResult &p)
    {
        SystemParams sp = c.params;
        if (kind == PassKind::Guarded)
            sp.guard.checkMask = obs::allCatsMask;
        KernelConfig cfg = configFor(c);
        auto build = [&] {
            return std::make_pair(std::make_unique<DsmSystem>(sp),
                                  makeKernel(c.kernel));
        };
        Stopwatch cell(log, "cell", id, passSpan);
        std::vector<double> setups =
            extraSetups(log, id, cell.span(), build);
        Stopwatch setup(log, "setup", id, cell.span());
        auto [sys, kernel] = build();
        double setupS = setup.stop();
        setups.push_back(setupS);

        PredictorTally tally;
        std::vector<std::unique_ptr<TimedPredictor>> wrappers;
        if (kind == PassKind::Traced && sp.mode != PredictorMode::Off) {
            // The base system's controllers bypass the predictor, so
            // only predictor cells get the wrapper.
            for (NodeId n = 0; n < sp.numNodes; ++n) {
                DsmNode &node = sys->node(n);
                wrappers.push_back(std::make_unique<TimedPredictor>(
                    *node.predictor, tally));
                node.cacheCtrl->setPredictor(wrappers.back().get(),
                                             sp.mode);
            }
        }

        CellOutcome out;
        Stopwatch runSw(log, "run", id, cell.span());
        RunResult r;
        try {
            r = sys->run(*kernel, cfg);
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = std::string("threw: ") + e.what();
        }
        double runS = runSw.stop();
        if (log) {
            log->tally(id, "predictor.onTouch", tally.touch);
            log->tally(id, "predictor.other", tally.other);
        }
        if (out.ok && !r.completed) {
            out.ok = false;
            out.error = "incomplete: " + r.abortReason;
        }

        StatGroup &stats = sys->stats();
        std::string dump = dumpOf(stats);
        out.cycles = r.cycles;
        out.events = r.eventsExecuted;
        out.digest = fnv1a(dump + "\ncycles " + std::to_string(r.cycles) +
                           "\nmemOps " + std::to_string(r.memOps) +
                           "\ncompleted " + std::to_string(r.completed));
        if (!out.ok)
            out.failedOps = 1;
        countLayers(c, r, stats, p.layer);

        Stopwatch teardown(log, "teardown", id, cell.span());
        sys.reset();
        kernel.reset();
        double teardownS = teardown.stop();
        cell.stop();

        // Digests, counts and wrapper installation are the benchmark's
        // own work and stay out of the cell's wall time.
        addTimes(p.t, setups, setupS + runS + teardownS, runS);
        p.t.pred.touch += tally.touch;
        p.t.pred.other += tally.other;
        return out;
    }

    void
    countLayers(const DsmCell &c, const RunResult &r,
                StatGroup &stats, LayerCounts &l) const
    {
        l.cycles += r.cycles;
        l.memOps += r.memOps;
        l.events += r.eventsExecuted;
        l.overflowMigrations += r.engineProfile.overflowMigrations;
        if (r.engineProfile.rounds) {
            l.parRounds += r.engineProfile.rounds;
            l.parEvents += r.eventsExecuted;
        }
        addNetCounts(l, stats);
        addHistogram(l.netLatency, stats.findHistogram("net.endToEndLatency"));
        l.peakLinkUtil = std::max(l.peakLinkUtil, r.peakLinkUtilization());
        l.dirRequests += stats.counterValue("dir.requests");
        addAverage(l.dirQueueing, stats, "dir.queueing");
        addAverage(l.dirService, stats, "dir.service");
        l.cacheHits += stats.counterValue("cache.hits");
        l.cacheMisses += stats.counterValue("cache.misses");
        addAverage(l.missLatency, stats, "cache.missLatency");
        if (c.config == "ltp-active") {
            l.selfInvIssued += r.selfInvsIssued;
            l.selfInvTimely += r.selfInvTimelyCorrect;
            l.selfInvLate += r.selfInvLateCorrect;
            l.selfInvPremature += r.selfInvPremature;
        } else if (c.config == "ltp-passive") {
            l.invalidations += r.invalidations;
            l.predicted += r.predicted;
            l.mispredicted += r.mispredicted;
            l.storageEntries += r.storage.totalEntries;
        }
    }

    std::vector<DsmCell> cells_;
    std::uint64_t seed_;
    bool smoke_;
};

/** One offered-rate phase of noc64-hotspot. */
struct NocPhase
{
    const char *name;
    double rate; //!< offered msgs/node/cycle
};

/** Per-phase results beyond the shared layer counts. */
struct NocPhaseStats
{
    double acceptedRate = 0.0;
    double latencyP99 = 0.0;
};

/**
 * The network alone: a 64-node 8x8 mesh, minimal-adaptive routing,
 * bounded VCs, hotspot traffic from seeded open-loop injectors.
 */
class NocWorkload final : public Workload
{
  public:
    static constexpr NodeId nodes = 64;
    static constexpr NocPhase phases[] = {{"low", 0.01}, {"high", 0.03}};

    NocWorkload(std::uint64_t seed, bool smoke)
        : seed_(seed), injectEnd_(smoke ? 12000 : 150000),
          warmup_(smoke ? 2000 : 15000)
    {
        params_.topology = TopologyKind::Mesh2D;
        params_.routing = RoutingPolicy::MinimalAdaptive;
        params_.vcDepth = 8;
    }

    std::vector<std::string>
    cellNames() const override
    {
        std::vector<std::string> names;
        for (const NocPhase &ph : phases) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "hotspot/%s@%g", ph.name,
                          ph.rate);
            names.push_back(buf);
        }
        return names;
    }

    PassResult
    runPass(PassKind kind, SpanLog *log) override
    {
        PassResult p;
        Stopwatch pass(log, "pass", -1, -1);
        for (std::size_t i = 0; i < std::size(phases); ++i) {
            p.cells.push_back(
                runPhase(phases[i], int(i), kind, log, pass.span(), p));
        }
        pass.stop();
        return p;
    }

    bool
    checkModel(const PassResult &) const override
    {
        // Below saturation the mesh must accept what is offered.
        const NocPhase &low = phases[0];
        bool ok = phaseStats_[0].acceptedRate >= 0.9 * low.rate;
        std::printf("check %s below-saturation-accepts-offered "
                    "(accepted %.5f of offered %.5f)\n",
                    ok ? "ok" : "FAIL", phaseStats_[0].acceptedRate,
                    low.rate);
        return ok;
    }

    const NocPhaseStats &phaseStats(std::size_t i) const
    {
        return phaseStats_[i];
    }

  private:
    /** One phase's network, sinks and injectors. */
    struct Run
    {
        EventQueue eq;
        StatGroup stats;
        std::unique_ptr<Interconnect> net;
        std::vector<Rng> rng;
        NodeId hotspot = 0;
        double logStay = 0.0; //!< log1p(-rate), for geometric gaps
        Tick injectEnd = 0;
        Tick warmup = 0;
        bool traced = false;
        PassTiming *timing = nullptr;

        std::uint64_t injected = 0;
        std::uint64_t delivered = 0;
        std::uint64_t deliveredInWindow = 0;
        double latencySum = 0.0;
        Histogram latency{256.0, 4096}; //!< from due time, post-warmup

        Tick
        gap(NodeId src)
        {
            double u = rng[src].uniform();
            return Tick(1 + std::floor(std::log1p(-u) / logStay));
        }

        void
        arm(NodeId src, Tick due)
        {
            if (due < injectEnd)
                eq.scheduleAt(due, [this, src, due] { inject(src, due); });
        }

        void
        inject(NodeId src, Tick due)
        {
            auto t0 = traced ? Clock::now() : Clock::time_point{};
            NodeId dst = rng[src].below(5) == 0
                             ? hotspot
                             : NodeId(rng[src].below(nodes));
            if (dst != src) {
                Message m;
                m.type = MsgType::GetS;
                m.src = src;
                m.dst = dst;
                m.addr = Addr(due); // latency is measured from here
                ++injected;
                if (traced) {
                    auto s0 = Clock::now();
                    net->send(m);
                    timing->send.add(s0, Clock::now());
                } else {
                    net->send(m);
                }
            }
            arm(src, due + gap(src));
            if (traced)
                timing->inject.add(t0, Clock::now());
        }

        void
        deliver(const Message &m)
        {
            auto t0 = traced ? Clock::now() : Clock::time_point{};
            Tick now = eq.now();
            Tick due = Tick(m.addr);
            ++delivered;
            if (due >= warmup) {
                latency.sample(double(now - due));
                latencySum += double(now - due);
                if (now < injectEnd)
                    ++deliveredInWindow;
            }
            if (traced)
                timing->sink.add(t0, Clock::now());
        }
    };

    void
    buildRun(Run &run, double rate)
    {
        run.net = makeInterconnect(run.eq, nodes, params_, run.stats);
        TopologyGeometry geom(params_.topology, nodes, params_.meshWidth);
        run.hotspot =
            geom.idOf(Coord{geom.width() / 2, geom.height() / 2});
        for (NodeId n = 0; n < nodes; ++n)
            run.net->setSink(n, [&run](const Message &m) { run.deliver(m); });
        run.logStay = std::log1p(-rate);
        run.injectEnd = injectEnd_;
        run.warmup = warmup_;
    }

    CellOutcome
    runPhase(const NocPhase &ph, int id, PassKind kind, SpanLog *log,
             int passSpan, PassResult &p)
    {
        auto build = [&] {
            auto run = std::make_unique<Run>();
            buildRun(*run, ph.rate);
            return run;
        };
        Stopwatch cell(log, "cell", id, passSpan);
        std::vector<double> setups =
            extraSetups(log, id, cell.span(), build);
        Stopwatch setup(log, "setup", id, cell.span());
        auto run = build();
        double setupS = setup.stop();
        setups.push_back(setupS);

        PassTiming timing;
        run->traced = kind == PassKind::Traced;
        run->timing = &timing;
        for (NodeId src = 0; src < nodes; ++src) {
            // One independent stream per injector, derived from the
            // benchmark seed and the phase.
            run->rng.emplace_back(
                counterHash(seed_, std::uint64_t(id), src));
        }
        for (NodeId src = 0; src < nodes; ++src)
            run->arm(src, run->gap(src));

        bool guarded = kind == PassKind::Guarded;
        if (guarded)
            guard::Checks::instance().arm(obs::allCatsMask, nodes, true);
        CellOutcome out;
        Stopwatch runSw(log, "run", id, cell.span());
        try {
            run->eq.run();
            if (guarded) {
                guard::Checks::instance().checkMessageConservation();
                if (auto *rn = dynamic_cast<RoutedNetwork *>(run->net.get()))
                    rn->guardCheckQuiesce();
            }
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = std::string("threw: ") + e.what();
        }
        double runS = runSw.stop();
        if (guarded)
            guard::Checks::instance().disarm();
        if (log) {
            log->tally(id, "net.send", timing.send);
            log->tally(id, "injector", timing.inject);
            log->tally(id, "sink", timing.sink);
        }

        std::uint64_t undelivered = run->injected - run->delivered;
        out.ops = run->injected;
        if (!out.ok) {
            out.failedOps = out.ops;
        } else if (undelivered) {
            out.ok = false;
            out.error = std::to_string(undelivered) +
                        " messages injected but never delivered";
            out.failedOps = undelivered;
        }
        out.cycles = run->eq.now();
        out.events = run->eq.eventsExecuted();
        std::ostringstream tail;
        tail << "\ninjected " << run->injected << "\ndelivered "
             << run->delivered << "\nlatencySum " << run->latencySum
             << "\ncycles " << out.cycles;
        out.digest = fnv1a(dumpOf(run->stats) + tail.str());

        LayerCounts &l = p.layer;
        l.cycles += out.cycles;
        l.events += out.events;
        l.undelivered += undelivered;
        l.overflowMigrations += run->eq.overflowMigrations();
        addNetCounts(l, run->stats);
        // The network's own latency histogram ends at 8192 cycles, which
        // saturated traffic exceeds; the sinks' histogram reaches 1M.
        addHistogram(l.netLatency, &run->latency);
        double busiest = double(
            run->stats.maxCounterValueWithPrefix("net.linkBusy."));
        l.peakLinkUtil =
            std::max(l.peakLinkUtil, ratio(busiest, double(out.cycles)));
        if (kind == PassKind::Plain) {
            phaseStats_[std::size_t(id)].acceptedRate =
                ratio(double(run->deliveredInWindow),
                      double(nodes) * double(injectEnd_ - warmup_));
            phaseStats_[std::size_t(id)].latencyP99 =
                run->latency.percentile(0.99);
        }

        Stopwatch teardown(log, "teardown", id, cell.span());
        run.reset();
        double teardownS = teardown.stop();
        cell.stop();
        addTimes(p.t, setups, setupS + runS + teardownS, runS);
        p.t.send += timing.send;
        p.t.inject += timing.inject;
        p.t.sink += timing.sink;
        return out;
    }

    std::uint64_t seed_;
    Tick injectEnd_;
    Tick warmup_;
    NetworkParams params_;
    NocPhaseStats phaseStats_[std::size(phases)];
};

SystemParams
pinned(SystemParams sp)
{
    // Everything a caller's environment could otherwise select.
    sp.simThreads = 1;
    sp.obs = obs::ObsParams{};
    sp.guard = guard::GuardParams{};
    return sp;
}

std::vector<DsmCell>
p2pPaperCells()
{
    std::vector<DsmCell> cells;
    for (const std::string &k : allKernelNames()) {
        cells.push_back({k, "base", pinned(SystemParams::base())});
        cells.push_back(
            {k, "ltp-passive",
             pinned(SystemParams::withPredictor(PredictorKind::LtpPerBlock,
                                                PredictorMode::Passive))});
        cells.push_back(
            {k, "ltp-active",
             pinned(SystemParams::withPredictor(PredictorKind::LtpPerBlock,
                                                PredictorMode::Active))});
    }
    return cells;
}

std::vector<DsmCell>
mesh64DorCells()
{
    SystemParams sp = SystemParams::withTopology(TopologyKind::Mesh2D, 64);
    sp.net.routing = RoutingPolicy::DimensionOrder;
    sp.net.vcDepth = 0;
    std::vector<DsmCell> cells;
    for (const std::string &k : allKernelNames())
        cells.push_back({k, "base", pinned(sp)});
    return cells;
}

// ---- metric output ---------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::vector<double> samples; //!< per-pass values (end-to-end only)
    bool applies = true;         //!< false: not measured on this workload
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        if (!m.samples.empty()) {
            auto [q1, q3] = quartiles(m.samples);
            std::printf("metric %-34s %-14s median=%.6g q1=%.6g q3=%.6g "
                        "n=%zu samples=",
                        m.name.c_str(), m.unit.c_str(), m.value, q1, q3,
                        m.samples.size());
            for (std::size_t i = 0; i < m.samples.size(); ++i)
                std::printf("%s%.6g", i ? "," : "", m.samples[i]);
            std::printf("\n");
        } else {
            std::printf("metric %-34s %-14s value=%.6g%s\n", m.name.c_str(),
                        m.unit.c_str(), m.value,
                        m.applies ? "" : "  (n/a on this workload)");
        }
    }
}

template <typename Fn>
std::vector<double>
perPass(const std::vector<PassResult> &passes, Fn fn)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(fn(p));
    return v;
}

Metric
sampled(const char *name, const char *unit, std::vector<double> samples)
{
    Metric m{name, unit, median(samples), std::move(samples), true};
    return m;
}

std::vector<Metric>
endToEnd(const std::vector<PassResult> &plain, double rssMb)
{
    std::vector<Metric> ms;
    ms.push_back(sampled("wall_s", "s", perPass(plain, [](auto &p) {
                             return p.t.wallS;
                         })));
    ms.push_back(sampled("setup_s", "s", perPass(plain, [](auto &p) {
                             return p.t.setupS;
                         })));
    ms.push_back(
        sampled("sim_cycles_per_s", "cycles/s", perPass(plain, [](auto &p) {
                    return ratio(double(p.layer.cycles), p.t.runS);
                })));
    ms.push_back(Metric{"peak_rss_mb", "MB", rssMb, {}, true});
    return ms;
}

struct LayerInputs
{
    bool dsm = false;
    bool p2p = false;
    bool noc = false;
    double emptyNs = 0.0;
    double fig9Geomean = 0.0;
    std::uint64_t cellsFailed = 0;
    const NocWorkload *nocWorkload = nullptr;
};

std::vector<Metric>
perLayer(const LayerInputs &in, const PassResult &first,
         const std::vector<PassResult> &plain,
         const std::vector<PassResult> &traced)
{
    const LayerCounts &l = first.layer;
    auto tmed = [&](auto fn) { return median(perPass(traced, fn)); };
    double e = in.emptyNs;
    auto predNs = [e](const PassResult &p) {
        return p.t.pred.touch.netNs(e) + p.t.pred.other.netNs(e);
    };
    // Self time of the run: the run span minus the benchmark's own
    // tallies nested inside it (predictor calls; injectors and sinks).
    double selfNs = tmed([&](const PassResult &p) {
        return std::max(0.0, p.t.runS * 1e9 - predNs(p) -
                                 p.t.inject.netNs(e) - p.t.sink.netNs(e));
    });
    double runS = tmed([](auto &p) { return p.t.runS; });
    double predShare =
        tmed([&](auto &p) { return ratio(predNs(p), p.t.runS * 1e9); });
    std::uint64_t predCalls = traced.front().t.pred.calls();
    double plainWall = median(perPass(plain, [](auto &p) {
        return p.t.wallS;
    }));
    double tracedWall = tmed([](auto &p) { return p.t.wallS; });
    double latP50 = l.netLatency ? l.netLatency->percentile(0.5) : 0.0;
    double latP99 = l.netLatency ? l.netLatency->percentile(0.99) : 0.0;
    bool routed = l.routedMsgs > 0;

    std::vector<Metric> ms;
    auto add = [&](const char *name, const char *unit, double v,
                   bool applies = true) {
        ms.push_back(Metric{name, unit, applies ? v : 0.0, {}, applies});
    };
    add("dsm.setup_ms", "ms",
        tmed([](auto &p) { return p.t.setupS; }) * 1e3, in.dsm);
    add("dsm.run_s", "s", runS, in.dsm);
    add("dsm.sim_cycles", "cycles", double(l.cycles), in.dsm);
    add("dsm.fig9_speedup_geomean", "ratio", in.fig9Geomean, in.p2p);
    add("dsm.cells_failed", "count", double(in.cellsFailed), in.dsm);
    add("kernel.mem_ops", "count", double(l.memOps), in.dsm);
    add("sim.events", "count", double(l.events));
    add("sim.events_per_kcycle", "events/kcycle",
        1e3 * ratio(double(l.events), double(l.cycles)));
    add("sim.ns_per_event", "ns", ratio(selfNs, double(l.events)));
    add("sim.overflow_migrations", "count", double(l.overflowMigrations));
    add("sim.par.rounds", "count", double(l.parRounds), in.dsm);
    add("sim.par.events_per_round", "events",
        ratio(double(l.parEvents), double(l.parRounds)), in.dsm);
    add("net.msgs", "count", double(l.netMsgs));
    add("net.data_msgs", "count", double(l.dataMsgs));
    add("net.msgs_per_kcycle", "msgs/kcycle",
        1e3 * ratio(double(l.netMsgs), double(l.cycles)));
    add("net.latency_p50_cyc", "cycles", latP50);
    add("net.latency_p99_cyc", "cycles", latP99);
    add("net.reorder_held", "count", double(l.reorderHeld), routed);
    add("net.topo.hops", "count", double(l.hops), routed);
    add("net.topo.hops_mean", "hops",
        ratio(double(l.hops), double(l.routedMsgs)), routed);
    add("net.topo.peak_link_util", "frac", l.peakLinkUtil, routed);
    add("net.topo.escape_reroutes", "count", double(l.escapeReroutes),
        routed);
    add("net.topo.send_ns", "ns",
        tmed([&](auto &p) {
            return ratio(p.t.send.netNs(e), double(p.t.send.calls));
        }),
        in.noc);
    add("net.topo.ns_per_hop", "ns", ratio(selfNs, double(l.hops)), in.noc);
    for (std::size_t i = 0; i < std::size(NocWorkload::phases); ++i) {
        NocPhaseStats s;
        if (in.nocWorkload)
            s = in.nocWorkload->phaseStats(i);
        std::string phase = NocWorkload::phases[i].name;
        ms.push_back(Metric{"net.topo.accepted_rate." + phase,
                            "msgs/node/cyc", s.acceptedRate, {}, in.noc});
        ms.push_back(Metric{"net.topo.latency_p99_cyc." + phase, "cycles",
                            s.latencyP99, {}, in.noc});
    }
    add("net.topo.undelivered", "count", double(l.undelivered), in.noc);
    add("proto.dir_requests", "count", double(l.dirRequests), in.dsm);
    add("proto.dir_queueing_mean_cyc", "cycles", l.dirQueueing.mean(),
        in.dsm);
    add("proto.dir_service_mean_cyc", "cycles", l.dirService.mean(), in.dsm);
    add("proto.selfinv_issued", "count", double(l.selfInvIssued), in.p2p);
    add("proto.selfinv_timely_frac", "frac",
        ratio(double(l.selfInvTimely),
              double(l.selfInvTimely + l.selfInvLate)),
        in.p2p);
    add("proto.selfinv_premature", "count", double(l.selfInvPremature),
        in.p2p);
    add("mem.cache_hit_rate", "frac",
        ratio(double(l.cacheHits), double(l.cacheHits + l.cacheMisses)),
        in.dsm);
    add("mem.miss_latency_mean_cyc", "cycles", l.missLatency.mean(), in.dsm);
    add("predictor.calls", "count", double(predCalls), in.dsm);
    add("predictor.touch_ns", "ns",
        tmed([&](auto &p) {
            return ratio(p.t.pred.touch.netNs(e),
                         double(p.t.pred.touch.calls));
        }),
        in.p2p);
    add("predictor.host_share", "frac", predShare, in.dsm);
    add("predictor.accuracy", "frac",
        ratio(double(l.predicted), double(l.invalidations)), in.p2p);
    add("predictor.mispredict_rate", "frac",
        ratio(double(l.mispredicted), double(l.invalidations)), in.p2p);
    add("predictor.storage_entries", "count", double(l.storageEntries),
        in.p2p);
    add("trace.overhead_frac", "frac", ratio(tracedWall, plainWall) - 1.0);
    return ms;
}

// ---- main ------------------------------------------------------------------

int
run(const Options &opt)
{
#ifndef NDEBUG
    std::fprintf(stderr, "ltpbench: refusing to measure a build without "
                         "NDEBUG (configure with -DCMAKE_BUILD_TYPE="
                         "Release)\n");
    return 3;
#endif
    const auto start = Clock::now();
    std::unique_ptr<Workload> w;
    DsmWorkload *dsm = nullptr;
    LayerInputs in;
    if (opt.workload == "p2p32-paper" || opt.workload == "mesh64-dor") {
        in.p2p = opt.workload == "p2p32-paper";
        auto d = std::make_unique<DsmWorkload>(
            in.p2p ? p2pPaperCells() : mesh64DorCells(), opt.seed,
            opt.smoke);
        dsm = d.get();
        w = std::move(d);
        in.dsm = true;
    } else if (opt.workload == "noc64-hotspot") {
        auto n = std::make_unique<NocWorkload>(opt.seed, opt.smoke);
        in.noc = true;
        in.nocWorkload = n.get();
        w = std::move(n);
    } else {
        usage("unknown workload '" + opt.workload + "'");
    }

    std::printf("build compiler=\"%s\" flags=\"%s\" build_type=%s "
                "ndebug=1\n",
                LTPB_COMPILER, LTPB_CXX_FLAGS, LTPB_BUILD_TYPE);
    std::printf("workload %s seed=%llu seconds=%g trace=%d smoke=%d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, int(opt.trace), int(opt.smoke));

    const std::size_t minPasses = opt.smoke ? 2 : 3;
    auto elapsed = [&] { return secondsBetween(start, Clock::now()); };
    std::unique_ptr<SpanLog> log;
    std::vector<PassResult> plain, traced;
    std::vector<PassResult> all; // every pass, for digests and failures
    // Peak RSS through the first pass: one run of the workload, not a
    // figure that creeps with the number of passes a host fits in.
    double firstPassRssMb = 0.0;
    auto runPass = [&](PassKind kind) {
        auto t0 = Clock::now();
        PassResult p =
            w->runPass(kind, kind == PassKind::Traced ? log.get() : nullptr);
        all.push_back(p);
        if (all.size() == 1)
            firstPassRssMb = peakRssMb();
        if (kind == PassKind::Plain)
            plain.push_back(std::move(p));
        else if (kind == PassKind::Traced)
            traced.push_back(std::move(p));
        return secondsBetween(t0, Clock::now());
    };

    if (!opt.trace) {
        double last = 0.0;
        while (plain.size() < minPasses || elapsed() + last <= opt.seconds)
            last = runPass(PassKind::Plain);
    } else {
        in.emptyNs = emptySpanNs();
        log = std::make_unique<SpanLog>(start);
        double plainS = runPass(PassKind::Plain);
        double tracedS = runPass(PassKind::Traced);
        runPass(PassKind::Guarded);
        while (elapsed() + plainS + tracedS <= opt.seconds) {
            plainS = runPass(PassKind::Plain);
            tracedS = runPass(PassKind::Traced);
        }
    }

    // Digests: every pass of every kind must reproduce the first plain
    // pass cell for cell.
    std::vector<std::string> names = w->cellNames();
    const PassResult &first = plain.front();
    std::uint64_t attempted = 0, failed = 0, cellsFailed = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const CellOutcome &c = first.cells[i];
        std::printf("cell %s %s cycles=%llu events=%llu digest=%016llx%s\n",
                    opt.workload.c_str(), names[i].c_str(),
                    (unsigned long long)c.cycles,
                    (unsigned long long)c.events,
                    (unsigned long long)c.digest, c.ok ? "" : " FAILED");
    }
    for (std::size_t pi = 0; pi < all.size(); ++pi) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            const CellOutcome &c = all[pi].cells[i];
            bool sameDigest = c.digest == first.cells[i].digest;
            if (!c.ok) {
                std::printf("FAIL cell %s pass %zu: %s\n", names[i].c_str(),
                            pi, c.error.c_str());
            } else if (!sameDigest) {
                std::printf("FAIL cell %s pass %zu: digest %016llx differs "
                            "from %016llx\n",
                            names[i].c_str(), pi,
                            (unsigned long long)c.digest,
                            (unsigned long long)first.cells[i].digest);
            }
            attempted += c.ops;
            failed += !c.ok ? c.failedOps : sameDigest ? 0 : c.ops;
            cellsFailed += c.ok && sameDigest ? 0 : 1;
        }
    }
    std::printf("passes plain=%zu traced=%zu guarded=%zu\n", plain.size(),
                traced.size(), all.size() - plain.size() - traced.size());

    bool modelOk = w->checkModel(first);
    std::vector<Metric> metrics;
    if (dsm)
        in.fig9Geomean = dsm->fig9Geomean(first);
    if (in.p2p) {
        std::printf("fig9 LTP speedup geomean %.4f (paper: +11%% average, "
                    "best +30%%, worst -<1%%)\n",
                    in.fig9Geomean);
    }
    if (!opt.trace) {
        metrics = endToEnd(plain, firstPassRssMb);
    } else {
        in.cellsFailed = cellsFailed;
        metrics = perLayer(in, first, plain, traced);
        std::string spans = opt.spanFile;
        if (!spans.empty() && !log->write(spans)) {
            std::fprintf(stderr, "ltpbench: cannot write spans to %s\n",
                         spans.c_str());
            return 1;
        }
    }
    printMetrics(metrics);

    bool correct = failed == 0 && modelOk;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    jsonNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltpbench: fatal: %s\n", e.what());
        return 1;
    }
}
