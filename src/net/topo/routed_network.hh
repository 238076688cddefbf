/**
 * @file
 * Topology-aware interconnect: mesh / torus / ring with a virtual-channel
 * router pipeline, credit-based backpressure, and pluggable routing.
 *
 * A message's life:
 *
 *   egress NI (FIFO, controlOccupancy/dataOccupancy)
 *     -> [ VC allocation + link serialization (messageBytes /
 *          linkBandwidth cycles) -> wire (hopLatency) -> router
 *          (routerLatency) ] x hops
 *     -> ingress reorder buffer -> ingress NI -> sink
 *
 * Each directed link serializes one message at a time; waiting messages
 * sit in the upstream router's input buffers, modeled per (link, VC).
 * With a finite vcDepth a message only starts serializing when the
 * downstream (link, VC) buffer has a free slot (a credit), so congestion
 * propagates backpressure upstream instead of growing queues without
 * bound; the credit travels back over the wire (hopLatency) when the
 * slot frees.
 *
 * Virtual channels double as the deadlock-avoidance mechanism:
 *  - escape VCs (VC0, plus VC1 on wrap topologies under the dateline
 *    rule) carry dimension-order traffic, which is deadlock-free;
 *  - adaptive/oblivious traffic rides the remaining VCs and, when its
 *    chosen port is credit-blocked while the link sits idle, falls back
 *    onto the escape path (Duato-style), so forward progress never
 *    depends on a cyclic buffer dependency.
 *
 * Adaptive and oblivious routing can reorder a (src, dst) pair's
 * messages in flight; a per-pair sequence number stamped at injection
 * and an ingress reorder buffer restore the pairwise FIFO delivery
 * order the coherence protocol relies on. Dimension-order routing never
 * reorders, so it allocates no reorder buffer and delivers straight to
 * the ingress NI (the stamp still feeds the pairwise-FIFO checker) — with
 * the default unbounded buffers that configuration is tick-for-tick
 * identical to the original per-link FIFO model.
 *
 * Per-link utilization is exported as `net.linkBusy.<from>-<to>` (busy
 * cycles) and `net.linkMsgs.<from>-<to>`; `net.escapeReroutes` counts
 * adaptive messages that fell back to the escape path and
 * `net.reorderHeld` messages parked in the ingress reorder buffer. The
 * NI model and latency statistics are shared with the point-to-point
 * network (see net/ni_interconnect.hh).
 */

#ifndef LTP_NET_TOPO_ROUTED_NETWORK_HH
#define LTP_NET_TOPO_ROUTED_NETWORK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/ni_interconnect.hh"
#include "net/topo/topology.hh"
#include "sim/rng.hh"

namespace ltp
{

/** Mesh/torus/ring interconnect with VC routers and credited links. */
class RoutedNetwork : public NiInterconnect
{
  public:
    RoutedNetwork(SimContext &ctx, NodeId num_nodes,
                  NetworkParams params);

    RoutedNetwork(EventQueue &eq, NodeId num_nodes, NetworkParams params,
                  StatGroup &stats);

    void send(Message msg) override;

    TopologyKind topology() const override { return params_.topology; }

    const TopologyGeometry &geometry() const { return geom_; }
    std::size_t numLinks() const { return links_.size(); }

    /** Total virtual channels per link (escape + adaptive). */
    unsigned numVcs() const { return numVcs_; }
    /** Leading VCs reserved for deadlock-free dimension-order traffic. */
    unsigned numEscapeVcs() const { return escapeVcs_; }
    /** True when vcDepth is finite, i.e. credits gate transmission. */
    bool bounded() const { return params_.vcDepth > 0; }

    /**
     * Free downstream input-buffer slots of (link @p l, VC @p vc); equals
     * vcDepth whenever the buffer is idle. @pre bounded().
     */
    unsigned creditsAvailable(std::size_t l, unsigned vc) const
    {
        return links_[l].credits[vc];
    }

    /** Wire size of @p m: headerBytes (+ blockBytes when data). */
    unsigned messageBytes(const Message &m) const
    {
        return params_.headerBytes +
               (carriesData(m.type) ? params_.blockBytes : 0);
    }

    /** Link serialization delay: ceil(messageBytes / linkBandwidth). */
    Tick serializationTicks(const Message &m) const
    {
        return (messageBytes(m) + params_.linkBandwidth - 1) /
               params_.linkBandwidth;
    }

    /**
     * LTP_CHECK=link quiesce invariant: with the run complete, every
     * link must be drained (no waiting messages, no parked reorder
     * entries) and every credit returned (credits == vcDepth on every
     * (link, VC) when bounded). Throws guard::CheckFailure naming the
     * offending link and its oldest waiting message otherwise. Call
     * only after runUntil() returned with the simulation quiescent.
     */
    void guardCheckQuiesce() const;

  private:
    RoutedNetwork(std::unique_ptr<SimContext> owned, NodeId num_nodes,
                  NetworkParams params);

    /** A message waiting in an input buffer for one output link —
     *  24 bytes of handle + routing state, not a 56-byte Message copy. */
    struct Entry
    {
        MsgHandle h;
        /** Link-local arrival number: request order across the link's
         *  VC FIFOs (set by enqueue(); kept by a same-link escape). */
        std::uint64_t seq = 0;
        std::int32_t inLink = -1; //!< upstream link whose buffer holds the
                                  //!< message (-1: injection queue)
        std::uint8_t vc = 0;      //!< VC requested on this output link
        std::uint8_t inVc = 0;
    };

    /**
     * One directed physical channel between adjacent routers: the
     * geometry's link (ends, dimension, dateline) plus its router state.
     *
     * Serialization is modeled with a coalesced "link engine" instead
     * of a per-message link-free event: `freeAt` records when the
     * current serialization ends, and a single drain event is armed at
     * that tick only while traffic is actually waiting (`armed`). An
     * uncongested grant therefore schedules no bookkeeping event at
     * all — the arrival post is the only event per hop.
     *
     * Waiting messages sit in one FIFO per requested VC. Every entry is
     * stamped with the link's next arrival number (`nextSeq`), so each
     * FIFO is sorted by `seq` and request order across the link is the
     * merge of the FIFOs by `seq`: the oldest request of any VC subset
     * is the smallest-`seq` head among those VCs. Arbitration therefore
     * reads at most numVcs heads per decision, never the whole backlog.
     */
    struct Link : TopoLink
    {
        /** Waiting messages per requested VC, each ascending in seq. */
        std::vector<std::deque<Entry>> vcq;
        std::size_t waiting = 0;   //!< entries across all of vcq
        std::uint64_t nextSeq = 0; //!< seq of the next enqueue()
        Tick freeAt = 0;      //!< serializing until this tick
        bool armed = false;   //!< drain event scheduled at freeAt
        bool draining = false; //!< re-entrancy guard for drainLink()
        /** Free slots in the downstream input buffer, per VC. */
        std::vector<unsigned> credits;
        Counter *msgs = nullptr;
        Counter *busyCycles = nullptr;
        /** Grants so far: the link-stall fault's per-site counter. */
        std::uint64_t faultGrants = 0;
    };

    /** Per-(src, dst) ingress reordering state. Parked messages stay in
     *  the pool; the sorted map keys netSeq -> handle (quiesce reporting
     *  reads the smallest parked sequence off begin()). */
    struct PairState
    {
        std::uint32_t nextSeq = 0;
        std::map<std::uint32_t, MsgHandle> pending;
    };

    std::size_t pairKey(NodeId src, NodeId dst) const
    {
        return std::size_t(src) * numNodes() + dst;
    }

    bool hasCredit(const Link &link, unsigned vc) const
    {
        return !bounded() || link.credits[vc] > 0;
    }

    /** Escape VC of @p msg on output link @p link (dateline rule: VC1
     *  once the message crossed a dateline in the link's dimension). */
    std::uint8_t
    escapeVc(const Link &link, const Message &msg) const
    {
        if (escapeVcs_ < 2)
            return 0;
        return std::uint8_t((msg.netVcFlags >> link.dim) & 1u);
    }
    /** Adaptive VC with the most free downstream slots on link @p l. */
    std::uint8_t adaptiveVc(const Link &link) const;
    /** Congestion score of the output link @p l (queue + buffer fill). */
    std::size_t congestion(std::size_t l);

    /** True when link @p l is not serializing at the current tick. */
    bool
    linkIdle(const Link &link)
    {
        return q(link.from).now() >= link.freeAt;
    }

    /** Route @p h's message (now at router @p at) onto its next output
     *  link. */
    void forward(NodeId at, MsgHandle h, std::int32_t in_link,
                 std::uint8_t in_vc);
    /**
     * Request link @p l for @p e. An idle, non-draining link with no
     * waiting entry and a credit on @p e's VC grants it on the spot:
     * that is the one state in which drainLink() would make exactly
     * this single grant at now and stop, so the shortcut changes no
     * outcome. Every other state queues the entry and pumps the link.
     */
    void enqueue(std::size_t l, Entry e);
    /**
     * VC whose FIFO head is the oldest request among VCs
     * [@p first_vc, numVcs) — only credited ones when @p need_credit;
     * -1 when there is none. O(numVcs).
     */
    int oldestHead(const Link &link, unsigned first_vc,
                   bool need_credit) const;
    /** Remove and return the head of @p link's VC @p vc FIFO. */
    Entry popHead(Link &link, unsigned vc);
    /** Arbitrate now if the link is idle, else arm the link engine. */
    void pump(std::size_t l);
    /** Schedule the coalesced drain event at freeAt (once). */
    void armEngine(std::size_t l);
    /**
     * Batched arbitration: retire the link's entire provably-ordered
     * eligible queue in one event — repeated grants of the oldest
     * request at advancing virtual start times — stopping at the first
     * decision (an overtake of the oldest request, an exhausted credit
     * view, an escape candidate) that a real drain event at freeAt must
     * re-make with fresh credit state. Each decision compares the VC
     * FIFO heads only: O(numVcs), whatever the backlog.
     * @pre link is idle.
     */
    void drainLink(std::size_t l);
    /** Grant @p e the wire at tick @p start (>= now within a batch). */
    void grantAt(std::size_t l, Entry e, Tick start);
    /** The wire-delayed credit for one freed (link, VC) buffer slot,
     *  departing at tick @p from (the grant's virtual start). */
    void scheduleCreditReturn(std::size_t l, std::uint8_t vc, Tick from);
    void arriveAtRouter(std::size_t l, std::uint8_t vc, MsgHandle h);
    /** Pairwise-FIFO restoration in front of the ingress NI. */
    void reorderDeliver(MsgHandle h);

    /** Adds the route-length sample to the shared delivery stats. */
    void deliver(MsgHandle h) override;

    TopologyGeometry geom_;
    unsigned numVcs_ = 1;
    unsigned escapeVcs_ = 1;

    /** Router state per geometry link (same index as geom_.link()). */
    std::vector<Link> links_;

    /** Per-(src, dst) next injection sequence number. */
    std::vector<std::uint32_t> sendSeq_;
    /** Per-(src, dst) ingress reorder buffers; empty under
     *  dimension-order routing, which never reorders a pair. */
    std::vector<PairState> pairs_;

    /** Oblivious-routing coin flip for @p msg leaving router @p at: a
     *  pure counterHash of (seed, src, dst, netSeq, at). Counter-based
     *  per-(src, dst) streams — no shared RNG state, no consumption
     *  order — so oblivious routing shards like any other policy and
     *  stays bit-identical for every simThreads value. */
    unsigned obliviousPick(NodeId at, const Message &msg,
                           unsigned n) const;

    // Shared stat names, one handle per shard (merged after the run).
    // Router-side stats index by the link owner's shard, delivery-side
    // stats by the destination's shard.
    std::vector<Counter *> hops_;
    std::vector<Average *> hopsPerMsg_;
    std::vector<Counter *> escapeReroutes_;
    std::vector<Counter *> reorderHeld_;
};

} // namespace ltp

#endif // LTP_NET_TOPO_ROUTED_NETWORK_HH
