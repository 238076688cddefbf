#include "net/ni_interconnect.hh"

#include <cassert>

#include "obs/trace.hh"
#include "sim/guard/checkers.hh"

namespace ltp
{

NiInterconnect::NiInterconnect(SimContext &ctx, NodeId num_nodes,
                               NetworkParams params)
    : params_(params),
      ctx_(&ctx),
      eq_(&ctx.queue()),
      msgsSent_(&ctx.stats().counter("net.msgs")),
      dataMsgs_(&ctx.stats().counter("net.dataMsgs")),
      endToEndLatency_(&ctx.stats().average("net.endToEndLatency")),
      latencyHist_(&ctx.stats().histogram("net.endToEndLatency", 32.0, 256)),
      niEgressFree_(num_nodes, 0),
      ingressQueue_(num_nodes),
      ingressBusy_(num_nodes, 0),
      sinks_(num_nodes)
{
}

NiInterconnect::NiInterconnect(std::unique_ptr<SimContext> owned,
                               NodeId num_nodes, NetworkParams params)
    : NiInterconnect(*owned, num_nodes, params)
{
    ownedCtx_ = std::move(owned);
}

NiInterconnect::NiInterconnect(EventQueue &eq, NodeId num_nodes,
                               NetworkParams params, StatGroup &stats)
    : NiInterconnect(std::make_unique<SequentialContext>(eq, stats),
                     num_nodes, params)
{
}

void
NiInterconnect::setSink(NodeId node, Sink sink)
{
    assert(node < sinks_.size());
    sinks_[node] = std::move(sink);
}

bool
NiInterconnect::injectLocalOrCount(Message &msg)
{
    assert(msg.src < sinks_.size() && msg.dst < sinks_.size());
    EventQueue &eq = q();
    msg.injectedAt = eq.now();
    obs::Tracer::instant(obs::Cat::Message, msg.src, "inject", eq.now(),
                         msg.dst, std::uint64_t(msg.type));
    msgsSent_->inc();
    if (carriesData(msg.type))
        dataMsgs_->inc();
    if (guard::Checks::on(obs::Cat::Message))
        guard::Checks::instance().countInject();

    if (msg.src != msg.dst)
        return false;
    // Local delivery: no NI serialization, a nominal 1-cycle hop. The
    // pooled handle keeps even this event's capture at two words.
    MsgHandle h = pool_.alloc(msg);
    eq.scheduleIn(1, [this, h] { deliver(h); });
    return true;
}

Tick
NiInterconnect::egressDone(const Message &msg)
{
    Tick occ = niOccupancy(msg);
    Tick start = std::max(q().now(), niEgressFree_[msg.src]);
    niEgressFree_[msg.src] = start + occ;
    return start + occ;
}

void
NiInterconnect::arriveAtIngress(MsgHandle h)
{
    NodeId dst = pool_.at(h).dst;
    if (ingressBusy_[dst]) {
        ingressQueue_[dst].push_back(h);
        return;
    }
    // Idle NI: service starts immediately — skip the queue round-trip.
    ingressBusy_[dst] = 1;
    serveIngress(dst, h);
}

void
NiInterconnect::serveIngress(NodeId node, MsgHandle h)
{
    // The busy flag serializes the NI: this event runs at (or, when the
    // NI went idle, after) the previous message's finish tick, so the
    // next service always starts now.
    q().scheduleIn(niOccupancy(pool_.at(h)), [this, node, h] {
        deliver(h);
        std::deque<MsgHandle> &queue = ingressQueue_[node];
        if (queue.empty()) {
            ingressBusy_[node] = 0;
            return;
        }
        MsgHandle next = queue.front();
        queue.pop_front();
        serveIngress(node, next);
    });
}

void
NiInterconnect::deliver(MsgHandle h)
{
    // Slabs never move, so this reference survives anything the sink
    // does (including injecting new messages); free only after it ran.
    const Message &msg = pool_.at(h);
    Tick now = q().now();
    Tick lat = now - msg.injectedAt;
    // The end-to-end message-lifecycle span, named by type, on the
    // destination node's track: inject -> (NI, flight, hops) -> deliver.
    obs::Tracer::span(obs::Cat::Message, msg.dst, msgTypeName(msg.type),
                      msg.injectedAt, now, msg.src, msg.dst);
    endToEndLatency_->sample(double(lat));
    latencyHist_->sample(double(lat));
    if (guard::Checks::on(obs::Cat::Message))
        guard::Checks::instance().countDeliver(msg.src, msg.dst,
                                               msg.netSeq, now);
    sinks_[msg.dst](msg);
    pool_.free(h);
}

} // namespace ltp
