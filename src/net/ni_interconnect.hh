/**
 * @file
 * Shared network-interface machinery for Interconnect implementations:
 * injection accounting, the local-delivery bypass, the egress/ingress
 * NI FIFO servers, and end-to-end latency sampling (Average plus
 * Histogram, both named `net.endToEndLatency`).
 *
 * Subclasses only model what happens between the egress NI and the
 * ingress NI — a constant flight (Network) or a routed walk over FIFO
 * links (RoutedNetwork) — which keeps the NI contention and latency
 * accounting of all models identical by construction.
 *
 * The only cross-node step, handing a message from the sender's fabric
 * to the receiver, is the subclass's SimContext::post() call; every
 * other event is a plain scheduleAt() on the run's queue.
 */

#ifndef LTP_NET_NI_INTERCONNECT_HH
#define LTP_NET_NI_INTERCONNECT_HH

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/message.hh"
#include "net/message_pool.hh"
#include "net/topo/interconnect.hh"
#include "sim/sim_context.hh"
#include "sim/stats.hh"

namespace ltp
{

/** Interconnect base handling everything at the network interfaces. */
class NiInterconnect : public Interconnect
{
  public:
    void setSink(NodeId node, Sink sink) override;
    NodeId numNodes() const override { return NodeId(sinks_.size()); }
    const NetworkParams &params() const override { return params_; }

  protected:
    NiInterconnect(SimContext &ctx, NodeId num_nodes,
                   NetworkParams params);

    /** Standalone use: owns a SequentialContext over @p eq/@p stats. */
    NiInterconnect(EventQueue &eq, NodeId num_nodes, NetworkParams params,
                   StatGroup &stats);

    /** The run's event queue (a cached load, no virtual call). */
    EventQueue &q() { return *eq_; }

    SimContext &ctx() { return *ctx_; }

    /** Take ownership of the context a subclass built for a legacy
     *  (EventQueue, StatGroup) constructor. @pre ctx() is *owned. */
    void
    adoptContext(std::unique_ptr<SimContext> owned)
    {
        assert(owned.get() == ctx_);
        ownedCtx_ = std::move(owned);
    }

    Tick niOccupancy(const Message &m) const
    {
        return carriesData(m.type) ? params_.dataOccupancy
                                   : params_.controlOccupancy;
    }

    /**
     * Stamp and count an injected message; when src == dst, schedule the
     * 1-cycle local-delivery bypass and return true (nothing further for
     * the subclass to do).
     */
    bool injectLocalOrCount(Message &msg);

    /** Serialize @p msg through its egress NI; returns the clear tick. */
    Tick egressDone(const Message &msg);

    /**
     * The in-flight message arena. Subclasses alloc at injection and
     * every later hop moves only the handle; deliver() frees it after
     * the sink ran.
     */
    MessagePool &pool() { return pool_; }
    const MessagePool &pool() const { return pool_; }

    /** Hand @p h (arriving from the subclass's fabric) to dst's NI. */
    void arriveAtIngress(MsgHandle h);

    /** Sample latency stats, hand the message to its sink, free @p h. */
    virtual void deliver(MsgHandle h);

    NetworkParams params_;

  private:
    NiInterconnect(std::unique_ptr<SimContext> owned, NodeId num_nodes,
                   NetworkParams params);

    /** Schedule @p h's ingress-NI service (ends occupancy from now). */
    void serveIngress(NodeId node, MsgHandle h);

    SimContext *ctx_;
    std::unique_ptr<SimContext> ownedCtx_; //!< legacy-constructor shim

    EventQueue *eq_;
    MessagePool pool_;

    Counter *msgsSent_;
    Counter *dataMsgs_;
    Average *endToEndLatency_;
    Histogram *latencyHist_;

    /** Earliest tick each egress NI is free. */
    std::vector<Tick> niEgressFree_;
    /** Per-ingress-NI FIFO of arrived-but-undelivered messages. */
    std::vector<std::deque<MsgHandle>> ingressQueue_;
    /** Nonzero while an ingress NI drain event is scheduled. */
    std::vector<std::uint8_t> ingressBusy_;
    std::vector<Sink> sinks_;
};

} // namespace ltp

#endif // LTP_NET_NI_INTERCONNECT_HH
