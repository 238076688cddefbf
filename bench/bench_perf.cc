/**
 * @file
 * Simulation-core performance benchmark: the tracked perf trajectory.
 *
 * Runs every registered kernel under the two standard configurations —
 * the base system (no predictor) and the Active per-block LTP (the
 * Figure 9 methodology) — and records wall-clock seconds, simulated
 * events per second, and protocol messages per second for each run in a
 * machine-diffable JSON file (`BENCH_core.json` by default).
 *
 * Every perf-affecting PR from this one onward reruns this bench in
 * Release mode and diffs the JSON against the previous trajectory point.
 *
 *   $ ./bench_perf [--out FILE] [--scale S] [--filter REGEX]
 *                  [--repeat N] [kernel...]
 *
 * --scale multiplies every kernel's default iteration count (use < 1 for
 * a quick smoke run, > 1 for more stable numbers). Wall-clock timing
 * covers system construction + run (the steady-state schedule/execute
 * loop dominates).
 *
 * --filter runs only the cells whose "kernel/config" id matches the
 * ECMAScript regex (searched, not anchored): `--filter 'moldyn/mesh'`
 * reruns one cell instead of the whole matrix while iterating on an
 * optimization. --repeat N runs every selected cell N times and records
 * the minimum-wall sample — min, not mean, because scheduling noise
 * only ever adds time.
 *
 * A third section runs every kernel on a 64-node mesh (base system),
 * recorded as config "mesh64-t1": the routed-network trajectory.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <regex>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace ltp;

namespace
{

struct Sample
{
    std::string kernel;
    std::string config;
    bool completed = false;
    double wallSeconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t msgs = 0;
    /** Engine self-profile (extra JSON keys; ignored by perf_gate). */
    obs::EngineProfile profile;

    double rate(std::uint64_t n) const
    {
        return wallSeconds > 0.0 ? double(n) / wallSeconds : 0.0;
    }
};

Sample
runSpec(ExperimentSpec spec, const std::string &config_name)
{
    auto t0 = std::chrono::steady_clock::now();
    RunResult r = runExperiment(spec);
    auto t1 = std::chrono::steady_clock::now();

    Sample s;
    s.kernel = spec.kernel;
    s.config = config_name;
    s.completed = r.completed;
    s.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    s.cycles = r.cycles;
    s.events = r.eventsExecuted;
    s.msgs = r.netMsgs;
    s.profile = r.engineProfile;
    return s;
}

Sample
runOne(const std::string &kernel, PredictorKind kind, PredictorMode mode,
       const char *config_name, double scale)
{
    ExperimentSpec spec;
    spec.kernel = kernel;
    spec.predictor = kind;
    spec.mode = mode;
    spec.iterScale = scale;
    return runSpec(std::move(spec), config_name);
}

/** One mesh64 cell: base system on a 64-node mesh. */
Sample
runMesh64(const std::string &kernel, double scale)
{
    ExperimentSpec spec;
    spec.kernel = kernel;
    spec.predictor = PredictorKind::Base;
    spec.mode = PredictorMode::Off;
    spec.iterScale = scale;
    spec.nodes = 64;
    spec.topology = TopologyKind::Mesh2D;
    return runSpec(std::move(spec), "mesh64-t1");
}

void
writeJson(const std::string &path, const std::vector<Sample> &samples,
          double scale)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"bench_core/v1\",\n");
    std::fprintf(f, "  \"build\": \"%s\",\n",
#ifdef NDEBUG
                 "release"
#else
                 "debug"
#endif
    );
    std::fprintf(f, "  \"iterScale\": %g,\n", scale);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"config\": \"%s\", "
                     "\"completed\": %s, "
                     "\"wallSeconds\": %.4f, "
                     "\"cycles\": %llu, \"events\": %llu, \"msgs\": %llu, "
                     "\"eventsPerSec\": %.0f, \"msgsPerSec\": %.0f, "
                     "\"engineRounds\": %llu, \"windowTicks\": %llu, "
                     "\"overflowMigrations\": %llu}%s\n",
                     s.kernel.c_str(), s.config.c_str(),
                     s.completed ? "true" : "false", s.wallSeconds,
                     (unsigned long long)s.cycles,
                     (unsigned long long)s.events,
                     (unsigned long long)s.msgs, s.rate(s.events),
                     s.rate(s.msgs),
                     (unsigned long long)s.profile.rounds,
                     (unsigned long long)s.profile.windowTicks,
                     (unsigned long long)s.profile.overflowMigrations,
                     i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

/** Selected cells rerun `repeat` times; the min-wall sample survives. */
Sample
bestOf(int repeat, const std::function<Sample()> &run_cell)
{
    Sample best = run_cell();
    for (int i = 1; i < repeat; ++i) {
        Sample s = run_cell();
        if (s.wallSeconds < best.wallSeconds)
            best = std::move(s);
    }
    return best;
}

} // namespace

static int
run(int argc, char **argv)
{
    std::string out = "BENCH_core.json";
    double scale = 1.0;
    int repeat = 1;
    std::string filter;
    std::vector<std::string> kernels;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            scale = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--filter") && i + 1 < argc) {
            filter = argv[++i];
        } else if (!std::strcmp(argv[i], "--repeat") && i + 1 < argc) {
            repeat = std::atoi(argv[++i]);
            if (repeat < 1) {
                std::fprintf(stderr, "bad --repeat count '%s'\n", argv[i]);
                return 1;
            }
        } else {
            kernels.push_back(argv[i]);
        }
    }
    if (kernels.empty())
        kernels = allKernelNames();
    std::regex filterRe;
    if (!filter.empty()) {
        try {
            filterRe = std::regex(filter);
        } catch (const std::regex_error &e) {
            std::fprintf(stderr, "bad --filter regex '%s': %s\n",
                         filter.c_str(), e.what());
            return 1;
        }
    }
    auto selected = [&](const std::string &kernel,
                        const std::string &config) {
        return filter.empty() ||
               std::regex_search(kernel + "/" + config, filterRe);
    };
    for (const auto &kernel : kernels) {
        bool known = false;
        for (const auto &name : allKernelNames())
            known |= name == kernel;
        if (!known) {
            std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
            return 1;
        }
    }

#ifndef NDEBUG
    std::fprintf(stderr,
                 "warning: bench_perf built without NDEBUG; numbers are "
                 "not comparable to the tracked Release trajectory\n");
#endif

    bench::printSystemBanner();
    std::printf("# core perf trajectory -> %s\n", out.c_str());
    std::printf("%-12s %-10s | %8s %12s %12s | %12s %12s\n", "kernel",
                "config", "wall s", "events", "msgs", "events/s", "msgs/s");

    std::vector<Sample> samples;
    for (const auto &kernel : kernels) {
        for (int cfg = 0; cfg < 2; ++cfg) {
            const char *config = cfg == 0 ? "base" : "ltp-active";
            if (!selected(kernel, config))
                continue;
            Sample s = bestOf(repeat, [&] {
                return cfg == 0
                           ? runOne(kernel, PredictorKind::Base,
                                    PredictorMode::Off, "base", scale)
                           : runOne(kernel, PredictorKind::LtpPerBlock,
                                    PredictorMode::Active, "ltp-active",
                                    scale);
            });
            std::printf("%-12s %-10s | %8.3f %12llu %12llu | %12.0f "
                        "%12.0f%s\n",
                        s.kernel.c_str(), s.config.c_str(), s.wallSeconds,
                        (unsigned long long)s.events,
                        (unsigned long long)s.msgs, s.rate(s.events),
                        s.rate(s.msgs), s.completed ? "" : "  (incomplete)");
            samples.push_back(std::move(s));
        }
    }

    // The routed section: every kernel on a 64-node mesh.
    for (const auto &kernel : kernels) {
        if (!selected(kernel, "mesh64-t1"))
            continue;
        Sample s = bestOf(repeat, [&] { return runMesh64(kernel, scale); });
        std::printf("%-12s %-10s | %8.3f %12llu %12llu | %12.0f "
                    "%12.0f%s\n",
                    s.kernel.c_str(), s.config.c_str(), s.wallSeconds,
                    (unsigned long long)s.events,
                    (unsigned long long)s.msgs, s.rate(s.events),
                    s.rate(s.msgs), s.completed ? "" : "  (incomplete)");
        samples.push_back(std::move(s));
    }

    writeJson(out, samples, scale);
    return 0;
}

int
main(int argc, char **argv)
{
    return ltp::bench::guardedMain("bench_perf",
                                   [&] { return run(argc, argv); });
}
