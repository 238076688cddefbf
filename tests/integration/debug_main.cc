// Ad-hoc diagnostic driver (not a test): runs one kernel and dumps stats.
//
//   ltp_debug [kernel] [iterScale] [nodes] [pred] [mode] [topo] [routing]
//
// Observability (all observer-only — the dump does not change):
//   LTP_TRACE=t.json            capture a Chrome/Perfetto trace
//   LTP_TRACE_CATS=link,engine  restrict traced categories
//   LTP_METRICS=m.jsonl         stream periodic StatGroup deltas
//   LTP_METRICS_INTERVAL=5000   sampling period in ticks
//   LTP_ENGINE_PROFILE=1        print the engine self-profile to stderr
//
// Harness guards (src/sim/guard/; watchdog/checkers/recorder are
// observer-only too):
//   LTP_CHECK=all               arm protocol invariant checkers
//   LTP_FAULT=<spec>            deterministic fault injection
//   LTP_WATCHDOG_MS / LTP_MAX_WALL_MS / LTP_MAX_EVENTS /
//   LTP_MAX_RSS_MB              progress/resource budgets
//   LTP_FLIGHT_RECORDER=f.json  crash/abort flight-record dump
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "dsm/experiment.hh"

namespace
{

int
runDebug(int argc, char **argv)
{
    ltp::ExperimentSpec spec;
    spec.kernel = argc > 1 ? argv[1] : "tomcatv";
    spec.predictor = ltp::PredictorKind::Base;
    spec.mode = ltp::PredictorMode::Off;
    if (argc > 2)
        spec.iterScale = std::atof(argv[2]);

    ltp::SystemParams sp;
    sp.numNodes = argc > 3 ? std::atoi(argv[3]) : 32;
    if (argc > 4) {
        std::string pred = argv[4];
        if (pred == "ltp")
            sp.predictor = ltp::PredictorKind::LtpPerBlock;
        else if (pred == "dsi")
            sp.predictor = ltp::PredictorKind::Dsi;
        else if (pred == "last-pc")
            sp.predictor = ltp::PredictorKind::LastPc;
        else if (pred == "ltp-global")
            sp.predictor = ltp::PredictorKind::LtpGlobal;
        sp.mode = argc > 5 && std::string(argv[5]) == "passive"
                      ? ltp::PredictorMode::Passive
                      : ltp::PredictorMode::Active;
    }
    if (argc > 6) {
        auto topo = ltp::parseTopologyKind(argv[6]);
        if (!topo) {
            std::cerr << "unknown topology '" << argv[6] << "'\n";
            return 2;
        }
        sp.net.topology = *topo;
    }
    if (argc > 7) {
        auto routing = ltp::parseRoutingPolicy(argv[7]);
        if (!routing) {
            std::cerr << "unknown routing '" << argv[7] << "'\n";
            return 2;
        }
        sp.net.routing = *routing;
    }
    try {
        sp.obs = ltp::obs::obsParamsFromEnv();
        sp.guard = ltp::guard::guardParamsFromEnv();
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    ltp::KernelConfig cfg = ltp::defaultConfig(spec.kernel);
    cfg.nodes = sp.numNodes;
    if (spec.iterScale != 1.0) {
        cfg.iters = std::max(
            1u, unsigned(std::llround(cfg.iters * spec.iterScale)));
    }

    ltp::DsmSystem sys(sp);
    auto kernel = ltp::makeKernel(spec.kernel);
    ltp::RunResult r = sys.run(*kernel, cfg);

    std::cout << "completed=" << r.completed << " cycles=" << r.cycles
              << " memOps=" << r.memOps
              << " invalidations=" << r.invalidations << "\n";
    if (r.outcome == ltp::RunOutcome::Aborted)
        std::cout << "aborted=\"" << r.abortReason << "\"\n";
    if (!r.completed) {
        for (ltp::NodeId n = 0; n < sp.numNodes; ++n) {
            auto &node = sys.node(n);
            std::cout << "node " << n << ": done=" << node.task.done()
                      << " outstanding=" << node.cacheCtrl->hasOutstanding();
            if (node.cacheCtrl->hasOutstanding())
                std::cout << " blk=0x" << std::hex
                          << node.cacheCtrl->outstandingBlock() << std::dec;
            std::cout << "\n";
        }
    }
    sys.stats().dump(std::cout);
    if (const char *prof = std::getenv("LTP_ENGINE_PROFILE");
        prof && std::string(prof) == "1") {
        // Engine bookkeeping — stderr, so stdout stays the model's
        // output.
        const auto &ep = r.engineProfile;
        std::cerr << "engineProfile: rounds=" << ep.rounds
                  << " windowTicks=" << ep.windowTicks
                  << " overflowMigrations=" << ep.overflowMigrations
                  << "\n";
    }
    return r.completed ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Fail loudly but structured: a throwing run (a violated LTP_CHECK
    // invariant, a bad spec, a harness bug) prints one parseable line
    // and exits 1 instead of aborting with an unhandled exception.
    try {
        return runDebug(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "ltp_debug: fatal: " << e.what() << "\n";
        return 1;
    }
}
