#include "sim/guard/checkers.hh"

namespace ltp
{
namespace guard
{

std::atomic<std::uint32_t> Checks::mask_{0};

Checks &
Checks::instance()
{
    static Checks c;
    return c;
}

void
Checks::arm(std::uint32_t mask, NodeId num_nodes, bool pair_fifo)
{
    numNodes_ = num_nodes;
    pairFifo_ = pair_fifo;
    injected_ = 0;
    delivered_ = 0;
    nextSeq_.assign(pair_fifo ? std::size_t(num_nodes) * num_nodes : 0, 0);
    mask_.store(mask, std::memory_order_release);
}

void
Checks::disarm()
{
    mask_.store(0, std::memory_order_release);
    nextSeq_.clear();
    numNodes_ = 0;
    pairFifo_ = false;
}

void
Checks::countDeliver(NodeId src, NodeId dst, std::uint32_t net_seq,
                     Tick now)
{
    ++delivered_;
    if (!pairFifo_ || src == dst)
        return; // local bypass never enters the fabric: no netSeq
    std::uint32_t &next = nextSeq_[std::size_t(src) * numNodes_ + dst];
    if (net_seq != next) {
        throw CheckFailure(
            "pairwise FIFO violated: pair " + std::to_string(src) + "->" +
            std::to_string(dst) + " delivered netSeq " +
            std::to_string(net_seq) + " but expected " +
            std::to_string(next) + " at tick " + std::to_string(now) +
            " (the ingress reorder buffer let a message overtake)");
    }
    ++next;
}

void
Checks::checkMessageConservation() const
{
    std::uint64_t in = injected();
    std::uint64_t out = delivered();
    if (in != out) {
        throw CheckFailure(
            "message conservation violated at quiesce: injected " +
            std::to_string(in) + " != delivered " + std::to_string(out) +
            " (" + std::to_string(in > out ? in - out : out - in) +
            (in > out ? " lost in flight)" : " delivered from nowhere)"));
    }
}

} // namespace guard
} // namespace ltp
