/**
 * @file
 * Experiment presets: one-call helpers that build a fresh DsmSystem,
 * run one benchmark kernel under a given predictor configuration, and
 * return the aggregate results. The bench/ binaries that regenerate the
 * paper's tables and figures are thin loops over these helpers.
 *
 * Each call runs one simulation on the calling thread. Runs are
 * independent, so parallelism comes from running processes side by
 * side (tools/regen_goldens.sh runs the six golden benches that way),
 * not threads: the tracer, fault injector, invariant checkers and
 * flight recorder are process-wide singletons armed per run.
 */

#ifndef LTP_DSM_EXPERIMENT_HH
#define LTP_DSM_EXPERIMENT_HH

#include <optional>
#include <string>

#include "dsm/system.hh"

namespace ltp
{

/** Everything needed to reproduce one (kernel, predictor) cell. */
struct ExperimentSpec
{
    std::string kernel;
    PredictorKind predictor = PredictorKind::Base;
    /** Passive = accuracy methodology (Figs 6-8, Table 3);
     *  Active = performance methodology (Fig 9, Table 4). */
    PredictorMode mode = PredictorMode::Passive;
    unsigned sigBits = 30;
    /** Scale factor applied to the kernel's default iteration count. */
    double iterScale = 1.0;
    std::optional<KernelConfig> config; //!< overrides defaultConfig()
    std::optional<NodeId> nodes;        //!< overrides 32
    /** Interconnect topology (paper's point-to-point by default). */
    TopologyKind topology = TopologyKind::PointToPoint;
    /** Routing policy for routed topologies (ignored by p2p). Safe under
     *  the protocol for all policies: the routed network restores
     *  pairwise FIFO delivery with an ingress reorder buffer. */
    RoutingPolicy routing = RoutingPolicy::DimensionOrder;
    /** Full network-knob override (wins over `topology`/`routing`). */
    std::optional<NetworkParams> net;
    /**
     * Observability (tracing + metrics sampling, src/obs/). When unset,
     * the LTP_TRACE / LTP_TRACE_CATS / LTP_METRICS /
     * LTP_METRICS_INTERVAL environment variables apply
     * (obs::obsParamsFromEnv); setting a value — including a default
     * ObsParams, i.e. everything off — pins it and ignores the
     * environment. Observer-only either way: results are identical.
     */
    std::optional<obs::ObsParams> obs;
    /**
     * Harness guards (watchdog, invariant checkers, fault injection,
     * flight recorder — src/sim/guard/). When unset, the LTP_CHECK /
     * LTP_FAULT / LTP_WATCHDOG_MS / LTP_MAX_WALL_MS / LTP_MAX_EVENTS /
     * LTP_MAX_RSS_MB /
     * LTP_FLIGHT_RECORDER environment variables apply
     * (guard::guardParamsFromEnv); setting a value — including a
     * default GuardParams, i.e. everything off — pins it and ignores
     * the environment.
     */
    std::optional<guard::GuardParams> guard;
};

/** Run one experiment on a fresh system. */
RunResult runExperiment(const ExperimentSpec &spec);

/**
 * Run the base system and one active predictor on the same kernel and
 * inputs; returns (base cycles / predictor cycles) — Figure 9's speedup.
 */
struct SpeedupResult
{
    RunResult base;
    RunResult pred;

    double
    speedup() const
    {
        return pred.cycles ? double(base.cycles) / double(pred.cycles)
                           : 0.0;
    }
};

SpeedupResult runSpeedup(const std::string &kernel, PredictorKind kind,
                         unsigned sig_bits = 30);

} // namespace ltp

#endif // LTP_DSM_EXPERIMENT_HH
