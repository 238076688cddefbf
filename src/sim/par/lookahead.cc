#include "sim/par/lookahead.hh"

#include <algorithm>
#include <stdexcept>

namespace ltp
{

ShardPlan
resolveShardPlan(const LookaheadInputs &in)
{
    if (in.netLookahead == 0) {
        throw std::invalid_argument(
            "interconnect timing leaves no cross-node lookahead");
    }
    if (in.barrierLatency == 0) {
        // Barrier wakeups are posted barrierLatency ticks after the
        // last arrival, so they bound the window alongside the network.
        throw std::invalid_argument(
            "barrierLatency must be >= 1 tick (it bounds the engine's "
            "lookahead window)");
    }

    ShardPlan plan;
    plan.shards = std::max(1u, std::min<unsigned>(in.requestedThreads,
                                                  in.numNodes));
    plan.window = std::min(in.netLookahead, in.barrierLatency);
    return plan;
}

} // namespace ltp
