#include "dsm/system.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "net/topo/routed_network.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "predictor/dsi.hh"
#include "predictor/last_pc.hh"
#include "predictor/ltp_global.hh"
#include "predictor/ltp_per_block.hh"
#include "sim/guard/checkers.hh"
#include "sim/guard/fault.hh"
#include "sim/guard/flight_recorder.hh"
#include "sim/guard/watchdog.hh"

namespace ltp
{

namespace
{

/**
 * The engine's window width for @p params: the network's lookahead,
 * clamped by the barrier latency (barrier wakeups are posted that far
 * ahead). A configuration with no lookahead is rejected.
 */
Tick
engineWindow(const SystemParams &params)
{
    if (params.simThreads != 1) {
        throw std::invalid_argument(
            "SystemParams::simThreads must be 1 (every run executes on "
            "one thread; run simulations side by side instead), got " +
            std::to_string(params.simThreads));
    }
    // Reject invalid network knobs with the descriptive error before
    // deriving a lookahead from them (makeInterconnect would only get
    // to say so later).
    validateNetworkParams(params.net, params.numNodes);
    Tick net = networkLookahead(params.net);
    if (net == 0) {
        throw std::invalid_argument(
            "interconnect timing leaves no cross-node lookahead");
    }
    if (params.barrierLatency == 0) {
        throw std::invalid_argument(
            "barrierLatency must be >= 1 tick (it bounds the engine's "
            "window)");
    }
    return std::min(net, params.barrierLatency);
}

} // namespace

const char *
predictorKindName(PredictorKind k)
{
    switch (k) {
      case PredictorKind::Base: return "base";
      case PredictorKind::Dsi: return "dsi";
      case PredictorKind::LastPc: return "last-pc";
      case PredictorKind::LtpPerBlock: return "ltp";
      case PredictorKind::LtpGlobal: return "ltp-global";
    }
    return "?";
}

SystemParams
SystemParams::base()
{
    return SystemParams{};
}

SystemParams
SystemParams::withPredictor(PredictorKind kind, PredictorMode mode,
                            unsigned sig_bits)
{
    SystemParams p;
    p.predictor = kind;
    p.mode = kind == PredictorKind::Base ? PredictorMode::Off : mode;
    p.ltp.sigBits = sig_bits;
    return p;
}

SystemParams
SystemParams::withTopology(TopologyKind kind, NodeId nodes)
{
    SystemParams p;
    p.numNodes = nodes;
    p.net.topology = kind;
    return p;
}

DsmSystem::DsmSystem(SystemParams params)
    : params_(params),
      sim_(std::make_unique<WindowedScheduler>(engineWindow(params))),
      homes_(params.pageSize, params.numNodes),
      as_(std::make_unique<AddressSpace>(homes_, params.cache.blockSize)),
      net_(makeInterconnect(*sim_, params.numNodes, params.net)),
      sync_(std::make_unique<SyncDomain>(*sim_, params.numNodes,
                                         params.barrierLatency))
{
    EventQueue &eq = sim_->queue();
    StatGroup &stats = sim_->stats();
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        auto node = std::make_unique<DsmNode>();
        node->predictor = makePredictor();
        node->cacheCtrl = std::make_unique<CacheController>(
            n, eq, *net_, homes_, params_.cache, stats);
        node->cacheCtrl->setPredictor(node->predictor.get(), params_.mode);
        node->dirCtrl = std::make_unique<DirController>(
            n, eq, *net_, params_.dir, stats);
        nodes_.push_back(std::move(node));
    }

    // Route inbound messages: requests, acks, writebacks and
    // self-invalidations go to the home directory; invalidations and
    // data replies go to the cache controller.
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        net_->setSink(n, [this, n](const Message &msg) {
            switch (msg.type) {
              case MsgType::GetS:
              case MsgType::GetX:
              case MsgType::InvAck:
              case MsgType::WbData:
              case MsgType::SelfInvS:
              case MsgType::SelfInvX:
              case MsgType::EvictS:
              case MsgType::EvictX:
                nodes_[n]->dirCtrl->receive(msg);
                break;
              default:
                nodes_[n]->cacheCtrl->receive(msg);
                break;
            }
        });
        // Verification outcomes train the self-invalidating node's
        // predictor (hardware piggybacks these bits; see DESIGN.md).
        nodes_[n]->dirCtrl->setVerifyHook(
            [this](NodeId who, Addr blk, bool premature, bool timely) {
                nodes_[who]->cacheCtrl->onDirVerify(blk, premature,
                                                    timely);
            });
    }
}

DsmSystem::~DsmSystem() = default;

std::unique_ptr<InvalidationPredictor>
DsmSystem::makePredictor() const
{
    switch (params_.predictor) {
      case PredictorKind::Base:
        return std::make_unique<NullPredictor>();
      case PredictorKind::Dsi:
        return std::make_unique<DsiPredictor>();
      case PredictorKind::LastPc:
        return std::make_unique<LastPcPredictor>(params_.ltp);
      case PredictorKind::LtpPerBlock:
        return std::make_unique<LtpPerBlock>(params_.ltp);
      case PredictorKind::LtpGlobal:
        return std::make_unique<LtpGlobal>(params_.ltp);
    }
    return std::make_unique<NullPredictor>();
}

RunResult
DsmSystem::run(KernelBase &kernel, const KernelConfig &cfg)
{
    if (!nodes_.front()->task.valid() && finished_ == 0) {
        // first (and only) run on this system instance
    } else {
        throw std::logic_error("DsmSystem::run may only be called once");
    }

    KernelConfig actual = cfg;
    actual.nodes = params_.numNodes;
    kernel.setup(*as_, mem_, actual);

    for (NodeId n = 0; n < params_.numNodes; ++n) {
        DsmNode &node = *nodes_[n];
        node.thread = std::make_unique<ThreadCtx>(
            n, sim_->queue(), *node.cacheCtrl, mem_, *sync_,
            actual.seed);
        node.onDone = [this] { ++finished_; };
        node.task = kernel.run(*node.thread);
        node.task.start(&node.onDone);
    }

    // Guard bring-up (src/sim/guard/): the fault injector and the
    // invariant checkers are process-wide singletons (like the tracer),
    // armed for exactly this run and disarmed on every exit path so a
    // throwing checker cannot leak armed state into the next run.
    const guard::GuardParams &gp = params_.guard;
    struct GuardDisarm
    {
        bool checks = false;
        bool faults = false;
        bool recorder = false;
        ~GuardDisarm()
        {
            if (checks)
                guard::Checks::instance().disarm();
            if (faults)
                guard::Faults::instance().disarm();
            if (recorder)
                guard::FlightRecorder::instance().disarm();
        }
    } disarm;
    if (gp.faultsEnabled()) {
        guard::Faults::instance().arm(guard::parseFaultSpec(gp.faultSpec));
        disarm.faults = true;
    }
    if (gp.checksEnabled()) {
        // The pairwise-FIFO check reads netSeq, which only the routed
        // network stamps (the p2p model delivers in order by design).
        bool pair_fifo =
            dynamic_cast<RoutedNetwork *>(net_.get()) != nullptr;
        guard::Checks::instance().arm(gp.checkMask, params_.numNodes,
                                      pair_fifo);
        disarm.checks = true;
    }
    if (gp.recorderEnabled()) {
        guard::RecorderContext rc;
        rc.tick = [this] { return sim_->tickApprox(); };
        rc.events = [this] { return sim_->executedApprox(); };
        rc.profile = [this] { return sim_->profile(); };
        guard::FlightRecorder::instance().arm(gp.flightRecorderFile,
                                              std::move(rc));
        disarm.recorder = true;
    }

    // Observability bring-up, all observer-only: the tracer buffers
    // compact records (flushed to Chrome JSON after the run) and the
    // sampler reads statistics at quiescent points. Neither
    // schedules events or touches simulated state, so results are
    // byte-identical with or without them.
    if (params_.obs.traceEnabled()) {
        obs::TraceConfig tc;
        tc.path = params_.obs.traceFile;
        tc.categories = params_.obs.tracerCategories;
        tc.eventCap = params_.obs.traceEventCap;
        obs::Tracer::instance().start(tc, params_.numNodes);
    }
    if (params_.obs.metricsEnabled()) {
        sampler_ = std::make_unique<obs::MetricsSampler>(
            params_.obs.metricsFile, params_.obs.metricsIntervalTicks);
        // The tick watcher fires between events, rearmed from the
        // sampler's own due-tick grid.
        sim_->queue().armTickWatcher(
            sampler_->nextDue(), [this](Tick now) {
                return sampler_->maybeSample(now, sim_->stats(),
                                             sim_->eventsExecuted());
            });
    }

    {
        // The watchdog scope brackets exactly the engine run: its
        // destructor joins the monitor thread before any result is
        // collected, so nothing below races with a late detector.
        guard::WatchdogHooks hooks;
        hooks.tick = [this] { return sim_->tickApprox(); };
        hooks.events = [this] { return sim_->executedApprox(); };
        hooks.abort = [this](const std::string &reason) {
            sim_->requestAbort(reason);
        };
        guard::Watchdog watchdog(gp, std::move(hooks));

        try {
            sim_->runUntil(params_.maxTicks);
        } catch (const std::exception &e) {
            // A checker (or anything else) threw mid-run: leave a
            // flight record behind before the exception unwinds the
            // harness.
            guard::FlightRecorder::instance().dumpNow(
                std::string("exception: ") + e.what());
            throw;
        }
    }

    bool completed = finished_ == params_.numNodes;
    std::string abortReason;
    if (!completed) {
        abortReason = sim_->abortReason();
        if (abortReason.empty()) {
            if (sim_->now() >= params_.maxTicks) {
                abortReason = "maxTicks exceeded: tick " +
                              std::to_string(sim_->now()) +
                              " reached the " +
                              std::to_string(params_.maxTicks) +
                              "-cycle budget";
            } else {
                abortReason =
                    "idle deadlock: the event queue drained at tick " +
                    std::to_string(sim_->now()) + " with " +
                    std::to_string(params_.numNodes - finished_) + " of " +
                    std::to_string(params_.numNodes) +
                    " threads unfinished";
            }
        }
        // The clean-path flight record: the engine has returned, so
        // this dump is complete and race-free. It must land before
        // Tracer::stop() below drains the trace buffers the dump's
        // traceTail reads.
        guard::FlightRecorder::instance().dumpNow("aborted: " +
                                                  abortReason);
    }

    if (sampler_) {
        sampler_->finish(sim_->now(), sim_->stats(),
                         sim_->eventsExecuted());
        sim_->queue().disarmTickWatcher();
    }
    if (params_.obs.traceEnabled())
        obs::Tracer::instance().stop();

    RunResult r = collect(completed);
    if (completed) {
        // Quiesce invariants only make sense on a drained machine; an
        // aborted run legitimately has messages in flight and busy
        // directory entries.
        if (disarm.checks)
            guardQuiesceChecks();
    } else {
        r.outcome = RunOutcome::Aborted;
        r.abortReason = std::move(abortReason);
    }
    return r;
}

void
DsmSystem::guardQuiesceChecks() const
{
    if (guard::Checks::on(obs::Cat::Message))
        guard::Checks::instance().checkMessageConservation();

    if (guard::Checks::on(obs::Cat::Link)) {
        if (auto *rn = dynamic_cast<RoutedNetwork *>(net_.get()))
            rn->guardCheckQuiesce();
    }

    // Directory -> cache: every sharer bit maps to a Shared copy, every
    // owner to an Exclusive copy, nothing still busy. Valid at quiesce
    // because evictions and self-invalidations all notify home
    // (EvictS/EvictX, SelfInvS/SelfInvX).
    if (guard::Checks::on(obs::Cat::Directory)) {
        for (NodeId h = 0; h < params_.numNodes; ++h) {
            nodes_[h]->dirCtrl->directory().forEach([&](Addr blk,
                                                        const DirEntry &e) {
                auto fail = [&](const std::string &what) {
                    char addr[32];
                    std::snprintf(addr, sizeof(addr), "0x%llx",
                                  (unsigned long long)blk);
                    throw guard::CheckFailure(
                        "directory<->cache: " + what + " (home " +
                        std::to_string(h) + ", block " + addr +
                        ", dir state " + dirStateName(e.state) + ")");
                };
                if (e.busy)
                    fail("entry still busy at quiesce");
                switch (e.state) {
                  case DirState::Idle:
                    if (e.sharers != 0)
                        fail("Idle entry with sharer bits set");
                    break;
                  case DirState::Shared:
                    for (NodeId n = 0; n < params_.numNodes; ++n) {
                        if (!e.isSharer(n))
                            continue;
                        if (nodes_[n]->cacheCtrl->cache().state(blk) !=
                            CacheState::Shared) {
                            fail("sharer bit for node " +
                                 std::to_string(n) +
                                 " but its cached copy is not Shared");
                        }
                    }
                    break;
                  case DirState::Exclusive:
                    if (e.owner == invalidNode ||
                        e.owner >= params_.numNodes)
                        fail("Exclusive entry with no valid owner");
                    else if (nodes_[e.owner]->cacheCtrl->cache().state(
                                 blk) != CacheState::Exclusive) {
                        fail("owner node " + std::to_string(e.owner) +
                             " does not hold the block Exclusive");
                    }
                    break;
                }
            });
        }
    }

    // Cache -> directory: every resident line is backed by the home's
    // bookkeeping (the converse direction catches a directory that
    // dropped a copy it should still track).
    if (guard::Checks::on(obs::Cat::Cache)) {
        for (NodeId n = 0; n < params_.numNodes; ++n) {
            nodes_[n]->cacheCtrl->cache().forEachResident(
                [&](Addr blk, const CacheLine &line) {
                    NodeId h = homes_.home(blk);
                    const DirEntry *e =
                        nodes_[h]->dirCtrl->directory().find(blk);
                    auto fail = [&](const std::string &what) {
                        char addr[32];
                        std::snprintf(addr, sizeof(addr), "0x%llx",
                                      (unsigned long long)blk);
                        throw guard::CheckFailure(
                            "cache<->directory: " + what + " (node " +
                            std::to_string(n) + ", block " + addr +
                            ", home " + std::to_string(h) + ")");
                    };
                    if (!e)
                        fail("resident line with no directory entry");
                    if (line.state == CacheState::Shared) {
                        if (e->state != DirState::Shared)
                            fail("Shared line but dir state is " +
                                 std::string(dirStateName(e->state)));
                        else if (!e->isSharer(n))
                            fail("Shared line but home's sharer bit "
                                 "is clear");
                    } else if (line.state == CacheState::Exclusive) {
                        if (e->state != DirState::Exclusive)
                            fail("Exclusive line but dir state is " +
                                 std::string(dirStateName(e->state)));
                        else if (e->owner != n)
                            fail("Exclusive line but home's owner is " +
                                 std::to_string(e->owner));
                    }
                });
        }
    }
}

RunResult
DsmSystem::collect(bool completed) const
{
    StatGroup &stats = sim_->stats();
    RunResult r;
    r.completed = completed;
    r.cycles = sim_->now();
    r.eventsExecuted = sim_->eventsExecuted();
    r.invalidations = stats.counterValue("pred.invalidations");
    r.predicted = stats.counterValue("pred.predicted");
    r.notPredicted = stats.counterValue("pred.notPredicted");
    r.mispredicted = stats.counterValue("pred.mispredicted");
    r.dirQueueingMean = stats.averageMean("dir.queueing");
    r.dirServiceMean = stats.averageMean("dir.service");
    r.selfInvTimelyCorrect = stats.counterValue("dir.selfInvTimelyCorrect");
    r.selfInvLateCorrect = stats.counterValue("dir.selfInvLateCorrect");
    r.selfInvPremature = stats.counterValue("dir.selfInvPremature");
    r.selfInvsIssued = stats.counterValue("pred.selfInvsIssued");

    r.netMsgs = stats.counterValue("net.msgs");
    r.netLatencyMean = stats.averageMean("net.endToEndLatency");
    if (const Histogram *h = stats.findHistogram("net.endToEndLatency")) {
        r.netLatencyP50 = h->percentile(0.5);
        r.netLatencyP99 = h->percentile(0.99);
        r.netLatencyOverflow = h->overflow();
    }
    r.netHopMean = stats.averageMean("net.hopsPerMsg");
    r.netPeakLinkBusy = stats.maxCounterValueWithPrefix("net.linkBusy.");

    r.engineProfile = sim_->profile();

    for (const auto &node : nodes_) {
        if (node->thread)
            r.memOps += node->thread->memOps();
        if (auto s = node->predictor->storage()) {
            r.storage.sigBits = s->sigBits;
            r.storage.activeBlocks += s->activeBlocks;
            r.storage.totalEntries += s->totalEntries;
        }
    }
    return r;
}

} // namespace ltp
