#include "dsm/experiment.hh"

#include <algorithm>
#include <cmath>
#include <string>

namespace ltp
{

RunResult
runExperiment(const ExperimentSpec &spec)
{
    SystemParams sp = SystemParams::withPredictor(spec.predictor,
                                                  spec.mode, spec.sigBits);
    if (spec.nodes)
        sp.numNodes = *spec.nodes;
    if (spec.net) {
        sp.net = *spec.net;
    } else {
        sp.net.topology = spec.topology;
        sp.net.routing = spec.routing;
    }
    sp.obs = spec.obs ? *spec.obs : obs::obsParamsFromEnv();
    sp.guard = spec.guard ? *spec.guard : guard::guardParamsFromEnv();

    KernelConfig cfg =
        spec.config ? *spec.config : defaultConfig(spec.kernel);
    cfg.nodes = sp.numNodes;
    if (spec.iterScale != 1.0) {
        cfg.iters = std::max(
            1u, unsigned(std::llround(cfg.iters * spec.iterScale)));
    }

    DsmSystem sys(sp);
    auto kernel = makeKernel(spec.kernel);
    return sys.run(*kernel, cfg);
}

SpeedupResult
runSpeedup(const std::string &kernel, PredictorKind kind,
           unsigned sig_bits)
{
    ExperimentSpec base_spec;
    base_spec.kernel = kernel;
    base_spec.predictor = PredictorKind::Base;
    base_spec.mode = PredictorMode::Off;

    ExperimentSpec pred_spec;
    pred_spec.kernel = kernel;
    pred_spec.predictor = kind;
    pred_spec.mode = PredictorMode::Active;
    pred_spec.sigBits = sig_bits;

    SpeedupResult r;
    r.base = runExperiment(base_spec);
    r.pred = runExperiment(pred_spec);
    return r;
}

} // namespace ltp
