/**
 * @file
 * The abstract interconnect every DSM component talks to, plus the
 * timing/topology knobs shared by all implementations.
 *
 * Implementations:
 *  - Network (net/network.hh): the paper's point-to-point model —
 *    constant flight latency, contention only at the network interfaces.
 *    This is the default; it keeps every figure benchmark bit-identical.
 *  - RoutedNetwork (net/topo/routed_network.hh): topology-aware
 *    mesh/torus/ring where every router/link is a FIFO server, so
 *    latency depends on hop count and congestion.
 *
 * Every implementation preserves the pairwise (src, dst) FIFO delivery
 * invariant the coherence protocol relies on.
 */

#ifndef LTP_NET_TOPO_INTERCONNECT_HH
#define LTP_NET_TOPO_INTERCONNECT_HH

#include <functional>
#include <memory>

#include "net/message.hh"
#include "net/topo/topology.hh"
#include "sim/types.hh"

namespace ltp
{

class EventQueue;
class SimContext;
class StatGroup;

/** Timing and topology knobs for the interconnect. */
struct NetworkParams
{
    Tick flightLatency = 80;   //!< node-to-node wire latency (p2p only)
    Tick controlOccupancy = 4; //!< NI serialization of a header-only msg
    Tick dataOccupancy = 12;   //!< NI serialization of a data-carrying msg

    // Topology-aware knobs (ignored by the point-to-point model).
    // Calibrated so one unloaded routed hop costs a control message
    //   headerBytes / linkBandwidth + hopLatency + routerLatency
    //     = 16/4 + 68 + 8 = 80 cycles,
    // exactly the paper's point-to-point flight latency: adjacent-node
    // control traffic times identically under p2p and routed models, and
    // topology runs differ only through hop count and congestion.
    TopologyKind topology = TopologyKind::PointToPoint;
    unsigned meshWidth = 0;  //!< X extent of mesh/torus; 0 = most-square
    Tick hopLatency = 68;    //!< per-hop wire flight (cycles)
    Tick routerLatency = 8;  //!< per-hop routing/pipeline delay (cycles)

    // Link bandwidth in bytes/cycle: a message serializes onto a link for
    // ceil(messageBytes / linkBandwidth) cycles, where messageBytes is
    // headerBytes plus blockBytes when the message carries a cache block.
    unsigned linkBandwidth = 4; //!< link bandwidth (bytes/cycle)
    unsigned headerBytes = 16;  //!< wire size of a header-only message
    unsigned blockBytes = 32;   //!< payload of a data-carrying message

    // Router microarchitecture. vcDepth 0 models unbounded input buffers
    // (no backpressure) and, with DimensionOrder routing, reproduces the
    // original per-link FIFO model tick for tick. A non-zero depth turns
    // on credit-based backpressure: a message only starts serializing
    // when the downstream (link, VC) input buffer has a free slot, so
    // congestion stalls senders instead of growing queues without bound.
    RoutingPolicy routing = RoutingPolicy::DimensionOrder;
    unsigned vcCount = 0; //!< virtual channels per link; 0 = auto
                          //!< (escape VCs + 1 adaptive VC when needed)
    unsigned vcDepth = 0; //!< input-buffer slots per (link, VC); 0 = inf
};

/**
 * Validate @p params for a system of @p num_nodes, throwing
 * std::invalid_argument with a descriptive message on bad combinations
 * (non-dividing meshWidth, zero link bandwidth, too few VCs for the
 * topology/routing). makeInterconnect() calls this; CLIs may call it
 * early to fail before a long run starts.
 */
void validateNetworkParams(const NetworkParams &params, NodeId num_nodes);

/**
 * The interconnect's guaranteed minimum cross-node latency in ticks —
 * the lookahead that bounds the engine's window width (0 when the
 * timing knobs leave none, or linkBandwidth is invalid).
 *
 * Point-to-point: egress serialization + wire flight. Routed: every
 * cross-router interaction is at least one link serialization plus the
 * wire and router pipeline; with finite vcDepth the wire-delayed credit
 * return (hopLatency) bounds it instead.
 */
Tick networkLookahead(const NetworkParams &params);

/**
 * Abstract message transport between DSM nodes.
 *
 * Contract (all implementations):
 *  - send() never delivers synchronously; the sink runs in a later event.
 *  - Local (src == dst) messages bypass the network and arrive after a
 *    nominal 1-cycle delay.
 *  - Messages of one (src, dst) pair are delivered in send order.
 */
class Interconnect
{
  public:
    using Sink = std::function<void(const Message &)>;

    virtual ~Interconnect() = default;

    /** Register the message consumer for @p node. */
    virtual void setSink(NodeId node, Sink sink) = 0;

    /** Inject @p msg; it will be delivered to msg.dst's sink later. */
    virtual void send(Message msg) = 0;

    virtual NodeId numNodes() const = 0;
    virtual TopologyKind topology() const = 0;
    virtual const NetworkParams &params() const = 0;
};

/** Build the interconnect selected by @p params.topology. */
std::unique_ptr<Interconnect> makeInterconnect(SimContext &ctx,
                                               NodeId num_nodes,
                                               NetworkParams params);

/** Standalone overload over one borrowed queue (drivers/tests). */
std::unique_ptr<Interconnect> makeInterconnect(EventQueue &eq,
                                               NodeId num_nodes,
                                               NetworkParams params,
                                               StatGroup &stats);

} // namespace ltp

#endif // LTP_NET_TOPO_INTERCONNECT_HH
