/**
 * @file
 * Runtime protocol invariant checkers (LTP_CHECK).
 *
 * The category vocabulary is the obs taxonomy (obs/categories.hh) —
 * "turn on the directory" means the same word to LTP_DEBUG, LTP_TRACE
 * and LTP_CHECK:
 *
 *   message    message conservation (injected == delivered at quiesce)
 *              and pairwise-FIFO delivery order (per (src, dst) netSeq
 *              monotonicity through the reorder buffer; routed only)
 *   link       per-link VC credit conservation at quiesce (every credit
 *              returned, no stranded queue/reorder entries) plus the
 *              on-the-fly over-return check at each credit arrival
 *   directory  directory -> cache cross-check at quiesce: every sharer
 *              bit maps to a Shared copy, every owner to an Exclusive
 *              copy, no entry left busy
 *   cache      cache -> directory cross-check at quiesce: every
 *              resident line is backed by the home's bookkeeping
 *
 * Checkers are observer-only until they fire: counters live OUTSIDE
 * StatGroup (the obs::EngineProfile precedent), so stats dumps stay
 * byte-identical whether checks are armed or not. A violated invariant
 * throws CheckFailure with full context — the run fails loudly at the
 * first corrupt state instead of three goldens later.
 *
 * Checks is a process-wide singleton armed per run by DsmSystem (the
 * obs::Tracer pattern); the disarmed fast path is one relaxed atomic
 * load. The injection/delivery totals are only compared at quiesce,
 * after the run returned.
 */

#ifndef LTP_SIM_GUARD_CHECKERS_HH
#define LTP_SIM_GUARD_CHECKERS_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/categories.hh"
#include "sim/types.hh"

namespace ltp
{
namespace guard
{

/** A violated protocol/engine invariant; what() carries full context. */
class CheckFailure : public std::runtime_error
{
  public:
    explicit CheckFailure(const std::string &what)
        : std::runtime_error("LTP_CHECK: " + what)
    {
    }
};

/** Process-wide invariant-checker switchboard and counters. */
class Checks
{
  public:
    static Checks &instance();

    /**
     * Arm the checkers in @p mask (obs category bits) for a run over
     * @p num_nodes nodes. @p pair_fifo additionally arms the per-pair
     * delivery-order check (routed topologies only: the p2p model does
     * not stamp netSeq).
     */
    void arm(std::uint32_t mask, NodeId num_nodes, bool pair_fifo);
    void disarm();

    /** Fast path: is category @p c armed? One relaxed atomic load. */
    static bool
    on(obs::Cat c)
    {
        return mask_.load(std::memory_order_relaxed) & obs::catBit(c);
    }

    /** Hot hook: a message entered the network (any topology). */
    void
    countInject() { ++injected_; }

    /**
     * Hot hook: a message reached its destination sink. Also enforces
     * pairwise FIFO when armed: the routed network stamps netSeq per
     * (src, dst) from 0, so delivery order on a pair must be exactly
     * 0, 1, 2, ... — anything else means the ingress reorder buffer
     * let a message overtake.
     */
    void countDeliver(NodeId src, NodeId dst, std::uint32_t net_seq,
                      Tick now);

    std::uint64_t injected() const { return injected_; }
    std::uint64_t delivered() const { return delivered_; }

    /**
     * Quiesce check: with the run complete every injected message must
     * have been delivered (in-flight == 0). Throws CheckFailure naming
     * both counts otherwise.
     */
    void checkMessageConservation() const;

  private:
    Checks() = default;

    static std::atomic<std::uint32_t> mask_;

    NodeId numNodes_ = 0;
    bool pairFifo_ = false;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    /** Next expected netSeq per (src, dst). */
    std::vector<std::uint32_t> nextSeq_;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_CHECKERS_HH
