#include "net/topo/routed_network.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/trace.hh"
#include "sim/guard/checkers.hh"
#include "sim/guard/fault.hh"

namespace ltp
{

namespace
{

std::string
linkStatName(const char *what, NodeId from, NodeId to)
{
    return std::string("net.") + what + "." + std::to_string(from) + "-" +
           std::to_string(to);
}

} // namespace

RoutedNetwork::RoutedNetwork(SimContext &ctx, NodeId num_nodes,
                             NetworkParams params)
    : NiInterconnect(ctx, num_nodes, params),
      geom_(params.topology, num_nodes, params.meshWidth),
      sendSeq_(std::size_t(num_nodes) * num_nodes, 0),
      // Dimension-order routing sends every message of a pair down the
      // same path and VCs, in FIFO order: nothing to reorder.
      pairs_(params.routing == RoutingPolicy::DimensionOrder
                 ? 0
                 : std::size_t(num_nodes) * num_nodes)
{
    assert(params_.topology != TopologyKind::PointToPoint &&
           "use Network for the point-to-point model");

    StatGroup &stats = ctx.stats();
    hops_ = &stats.counter("net.hops");
    hopsPerMsg_ = &stats.average("net.hopsPerMsg");
    escapeReroutes_ = &stats.counter("net.escapeReroutes");
    reorderHeld_ = &stats.counter("net.reorderHeld");

    escapeVcs_ = geom_.wraps() ? 2 : 1;
    unsigned auto_vcs =
        escapeVcs_ +
        (params_.routing == RoutingPolicy::DimensionOrder ? 0 : 1);
    numVcs_ = params_.vcCount ? params_.vcCount : auto_vcs;
    assert(numVcs_ >= auto_vcs && "validateNetworkParams missed");

    links_.reserve(geom_.numLinks());
    for (std::size_t l = 0; l < geom_.numLinks(); ++l) {
        const TopoLink &tl = geom_.link(l);
        Link link;
        static_cast<TopoLink &>(link) = tl;
        link.vcq.resize(numVcs_);
        if (bounded())
            link.credits.assign(numVcs_, params_.vcDepth);
        link.msgs = &stats.counter(linkStatName("linkMsgs", tl.from, tl.to));
        link.busyCycles =
            &stats.counter(linkStatName("linkBusy", tl.from, tl.to));
        links_.push_back(std::move(link));
    }
}

RoutedNetwork::RoutedNetwork(std::unique_ptr<SimContext> owned,
                             NodeId num_nodes, NetworkParams params)
    : RoutedNetwork(*owned, num_nodes, params)
{
    adoptContext(std::move(owned));
}

RoutedNetwork::RoutedNetwork(EventQueue &eq, NodeId num_nodes,
                             NetworkParams params, StatGroup &stats)
    : RoutedNetwork(std::make_unique<SequentialContext>(eq, stats),
                    num_nodes, params)
{
}

unsigned
RoutedNetwork::obliviousPick(NodeId at, const Message &msg,
                             unsigned n) const
{
    // A pure draw per (injection, hop): the message's (src, dst, netSeq)
    // names the injection, and productive routing visits any router at
    // most once, so `at` names the hop. No router consumes anyone
    // else's stream, so a pick never depends on event order.
    constexpr std::uint64_t seed = 0x0B11'0B11'0B11'0B11ull;
    return unsigned(counterHash(seed, msg.src, msg.dst, msg.netSeq, at) %
                    n);
}

std::uint8_t
RoutedNetwork::adaptiveVc(const Link &link) const
{
    assert(numVcs_ > escapeVcs_);
    if (!bounded() || numVcs_ == escapeVcs_ + 1)
        return std::uint8_t(escapeVcs_);
    // Several adaptive VCs: pick the emptiest downstream buffer.
    unsigned best = escapeVcs_;
    for (unsigned vc = escapeVcs_ + 1; vc < numVcs_; ++vc)
        if (link.credits[vc] > link.credits[best])
            best = vc;
    return std::uint8_t(best);
}

std::size_t
RoutedNetwork::congestion(std::size_t l)
{
    const Link &link = links_[l];
    std::size_t score = link.waiting + (linkIdle(link) ? 0 : 1);
    if (bounded()) {
        // Count the filled downstream slots too: a drained queue whose
        // buffers are full is still a poor choice.
        for (unsigned vc = 0; vc < numVcs_; ++vc)
            score += params_.vcDepth - link.credits[vc];
    }
    return score;
}

void
RoutedNetwork::send(Message msg)
{
    if (injectLocalOrCount(msg))
        return;

    msg.netSeq = sendSeq_[pairKey(msg.src, msg.dst)]++;
    msg.netVcFlags = 0;
    NodeId src = msg.src;
    Tick clear = egressDone(msg);
    MsgHandle h = pool().alloc(msg);
    q().scheduleAt(clear, [this, src, h] { forward(src, h, -1, 0); });
}

void
RoutedNetwork::forward(NodeId at, MsgHandle h, std::int32_t in_link,
                       std::uint8_t in_vc)
{
    const Message &msg = pool().at(h);
    std::size_t l;
    std::uint8_t vc;
    if (params_.routing == RoutingPolicy::DimensionOrder) {
        // Per-node step tables: the output link, whose dimension picks
        // the dateline VC, without coordinate arithmetic.
        l = geom_.dorLink(at, msg.dst);
        vc = escapeVc(links_[l], msg);
    } else {
        std::size_t cands[2] = {};
        unsigned n = geom_.productiveLinksInto(at, msg.dst, cands);
        unsigned pick = 0;
        if (n > 1) {
            if (params_.routing == RoutingPolicy::Oblivious) {
                pick = obliviousPick(at, msg, n);
            } else if (congestion(cands[1]) < congestion(cands[0])) {
                // Minimal-adaptive: the less congested productive port;
                // ties go to the dimension-order choice (element 0).
                pick = 1;
            }
        }
        l = cands[pick];
        vc = adaptiveVc(links_[l]);
    }
    enqueue(l, Entry{.h = h, .inLink = in_link, .vc = vc, .inVc = in_vc});
}

void
RoutedNetwork::enqueue(std::size_t l, Entry e)
{
    Link &link = links_[l];
    e.seq = link.nextSeq++;
    if (link.waiting == 0 && !link.draining && linkIdle(link) &&
        hasCredit(link, e.vc)) {
        grantAt(l, e, q().now());
        return;
    }
    link.vcq[e.vc].push_back(e);
    ++link.waiting;
    pump(l);
}

int
RoutedNetwork::oldestHead(const Link &link, unsigned first_vc,
                          bool need_credit) const
{
    int best = -1;
    for (unsigned vc = first_vc; vc < numVcs_; ++vc) {
        const std::deque<Entry> &fifo = link.vcq[vc];
        if (fifo.empty() || (need_credit && !hasCredit(link, vc)))
            continue;
        if (best < 0 || fifo.front().seq < link.vcq[best].front().seq)
            best = int(vc);
    }
    return best;
}

RoutedNetwork::Entry
RoutedNetwork::popHead(Link &link, unsigned vc)
{
    Entry e = link.vcq[vc].front();
    link.vcq[vc].pop_front();
    --link.waiting;
    return e;
}

void
RoutedNetwork::pump(std::size_t l)
{
    Link &link = links_[l];
    if (link.draining)
        return;
    if (!linkIdle(link)) {
        // Serializing: no arbitration until the wire clears. Arm the
        // link engine so exactly one drain event exists at freeAt —
        // this replaces the unconditional per-grant link-free event.
        armEngine(l);
        return;
    }
    drainLink(l);
}

void
RoutedNetwork::armEngine(std::size_t l)
{
    Link &link = links_[l];
    if (link.armed || link.waiting == 0)
        return;
    link.armed = true;
    q().scheduleAt(link.freeAt, [this, l] {
        links_[l].armed = false;
        // pump(), not drainLink(): a credit that landed earlier this
        // tick may already have granted and re-busied the link.
        pump(l);
    });
}

void
RoutedNetwork::drainLink(std::size_t l)
{
    Link &link = links_[l];
    if (link.draining)
        return;
    assert(linkIdle(link));
    link.draining = true;

    // Batched drain: one event retires every grant whose outcome is
    // already decided, walking a virtual clock `start` forward by one
    // serialization per grant. The first grant happens at real time
    // (start == now) with the full single-grant arbitration below.
    // Later grants happen at virtual times, where only one decision is
    // provably identical to what a real drain event at that tick would
    // make: granting the *oldest request* because its VC is credited.
    // Credits seen here are a lower bound (returns landing inside
    // (now, start] are invisible to the batch, and a return can never
    // be *lost*), so an oldest request credited under the batch's view
    // is credited for the real event too — and being the oldest, it is
    // the entry the real event would pick. Everything else — a credited
    // VC overtaking a blocked oldest request (the real event might
    // instead grant the freshly-credited oldest one), no credited VC at
    // all (the real event might grant or escape-reroute) — ends the
    // batch; armEngine re-decides at freeAt with fresh state. Grant
    // outcomes, ticks and VCs are therefore identical to the
    // one-event-per-grant engine; only the posting event differs.
    Tick now = q().now();
    Tick start = now;
    for (;;) {
        int oldest = oldestHead(link, 0, false);
        if (oldest < 0)
            break; // drained
        // Grant the oldest request whose VC has a free downstream slot.
        // Later requests of *other* VCs may overtake a blocked one (that
        // is what virtual channels are for); same-VC order is preserved
        // because only FIFO heads are candidates. An overtake is a real-
        // time decision only: at a virtual time it must be re-made at
        // freeAt, as must the case where no VC is credited.
        int vc = oldest;
        if (!hasCredit(link, unsigned(oldest)))
            vc = start == now ? oldestHead(link, 0, true) : -1;
        if (vc >= 0) {
            grantAt(l, popHead(link, unsigned(vc)), start);
            start = link.freeAt;
            continue;
        }
        if (start != now)
            break; // virtual time: re-decide at freeAt

        // Nothing can move. Duato-style escape: hand the oldest blocked
        // adaptive request over to the deadlock-free dimension-order
        // path, then re-arbitrate (a same-link downgrade may now be
        // grantable).
        int blocked = oldestHead(link, escapeVcs_, false);
        if (blocked < 0)
            break; // only escape traffic left; credits will re-kick us

        Entry e = popHead(link, unsigned(blocked));
        const Message &msg = pool().at(e.h);
        escapeReroutes_->inc();
        obs::Tracer::instant(obs::Cat::Link, link.from, "escape reroute",
                             now, msg.dst);
        std::size_t el = geom_.dorLink(link.from, msg.dst);
        e.vc = escapeVc(links_[el], msg);
        if (el == l) {
            // Same link: the request keeps its arrival number, so it
            // takes its request-order place in the escape FIFO, ahead
            // of every escape request that arrived after it.
            std::deque<Entry> &fifo = link.vcq[e.vc];
            auto older = [&e](const Entry &x) { return x.seq < e.seq; };
            auto at = std::partition_point(fifo.begin(), fifo.end(), older);
            fifo.insert(at, e);
            ++link.waiting;
        } else {
            enqueue(el, e);
        }
    }

    link.draining = false;
    // Re-arm only when this drain actually busied the wire: with the
    // link still idle (nothing granted — every VC credit-blocked), a
    // drain at freeAt <= now would re-run this same arbitration in the
    // same tick forever. The credit return (scheduleCreditReturn) or
    // the next enqueue() pumps the link instead, as before batching.
    if (link.waiting != 0 && !linkIdle(link))
        armEngine(l);
}

void
RoutedNetwork::grantAt(std::size_t l, Entry e, Tick start)
{
    Link &link = links_[l];
    if (bounded()) {
        --link.credits[e.vc];
        // The upstream input-buffer slot frees as the message leaves it;
        // its credit flies back over the wire.
        if (e.inLink >= 0)
            scheduleCreditReturn(std::size_t(e.inLink), e.inVc, start);
    }

    Message &msg = pool().at(e.h);
    Tick ser = serializationTicks(msg);
    if (guard::Faults::on(guard::FaultKind::LinkStall)) {
        // Deterministic jitter: a pure hash of (seed, link, grant
        // index). The grant sequence on a link is itself deterministic,
        // so fault-injected runs stay bit-reproducible.
        ser += guard::Faults::instance().linkStallTicks(l,
                                                        link.faultGrants++);
    }
    link.msgs->inc();
    link.busyCycles->inc(ser);
    hops_->inc();
    // The wire-busy span on the upstream router's track: one grant =
    // one serialization window on link from->to via the allocated VC.
    obs::Tracer::span(obs::Cat::Link, link.from, "grant", start,
                      start + ser, link.to, e.vc);

    // The in-flight message has exactly one logical owner (this grant),
    // so the dateline stamp mutates it in place.
    if (link.wrap)
        msg.netVcFlags |= std::uint8_t(1u << link.dim);

    // Serialize on the link, then fly one hop and clear the next router's
    // pipeline. Departures from a link are credit-gated but same-VC FIFO,
    // and the downstream delay is constant, so per-(src, dst) order is
    // preserved along any deterministic route.
    //
    // Serialization end is pure bookkeeping (`freeAt`), not an event:
    // the batched link engine (armEngine) only materializes a drain
    // event when traffic is actually waiting for the wire. The arrival
    // mutates the downstream router and is posted on the link's channel
    // with serialization + wire + pipeline of lookahead.
    Tick done = start + ser;
    link.freeAt = done;

    Tick arrive = done + params_.hopLatency + params_.routerLatency;
    std::uint8_t vc = e.vc;
    MsgHandle h = e.h;
    ctx().post(arrive, chan::link(l),
               [this, l, vc, h] { arriveAtRouter(l, vc, h); });
}

void
RoutedNetwork::scheduleCreditReturn(std::size_t l, std::uint8_t vc,
                                    Tick from)
{
    // Both callers (a downstream grant, an ejection) free a buffer slot
    // at router links_[l].to; the credit flies one wire hop back to
    // links_[l].from. @p from is the freeing grant's (possibly
    // virtual) start tick, >= the posting event's now.
    Tick when = from + params_.hopLatency;
    ctx().post(when, chan::credit(l), [this, l, vc] {
        Link &link = links_[l];
        ++link.credits[vc];
        assert(link.credits[vc] <= params_.vcDepth &&
               "credit conservation violated");
        if (guard::Checks::on(obs::Cat::Link) &&
            link.credits[vc] > params_.vcDepth) {
            // The assert's always-on twin: catches credit over-return
            // in Release builds the moment it happens.
            throw guard::CheckFailure(
                "credit over-return on link " + std::to_string(link.from) +
                "->" + std::to_string(link.to) + " vc " +
                std::to_string(vc) + ": " +
                std::to_string(link.credits[vc]) + " credits > vcDepth " +
                std::to_string(params_.vcDepth));
        }
        if (linkIdle(link))
            drainLink(l);
    });
}

void
RoutedNetwork::arriveAtRouter(std::size_t l, std::uint8_t vc, MsgHandle h)
{
    NodeId at = links_[l].to;
    if (at == pool().at(h).dst) {
        // Ejection is always available, so the input-buffer slot frees
        // immediately.
        if (bounded())
            scheduleCreditReturn(l, vc, q().now());
        if (pairs_.empty())
            arriveAtIngress(h); // dimension-order: already pairwise FIFO
        else
            reorderDeliver(h);
        return;
    }
    forward(at, h, std::int32_t(l), vc);
}

void
RoutedNetwork::reorderDeliver(MsgHandle h)
{
    const Message &msg = pool().at(h);
    PairState &ps = pairs_[pairKey(msg.src, msg.dst)];
    if (msg.netSeq != ps.nextSeq) {
        // An earlier injection of this pair is still in flight (adaptive
        // or oblivious routing took a different path); park this one.
        reorderHeld_->inc();
        ps.pending.emplace(msg.netSeq, h);
        return;
    }
    arriveAtIngress(h);
    ++ps.nextSeq;
    for (auto it = ps.pending.find(ps.nextSeq); it != ps.pending.end();
         it = ps.pending.find(ps.nextSeq)) {
        arriveAtIngress(it->second);
        ps.pending.erase(it);
        ++ps.nextSeq;
    }
}

void
RoutedNetwork::deliver(MsgHandle h)
{
    const Message &msg = pool().at(h);
    hopsPerMsg_->sample(
        double(geom_.hopCount(msg.src, msg.dst)));
    NiInterconnect::deliver(h);
}

void
RoutedNetwork::guardCheckQuiesce() const
{
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const Link &link = links_[l];
        std::string where = "link " + std::to_string(link.from) + "->" +
                            std::to_string(link.to);
        if (link.waiting != 0) {
            const Entry &oldest =
                link.vcq[unsigned(oldestHead(link, 0, false))].front();
            const Message &first = pool().at(oldest.h);
            throw guard::CheckFailure(
                where + " still holds " + std::to_string(link.waiting) +
                " waiting message(s) at quiesce (first: " +
                msgTypeName(first.type) + " " + std::to_string(first.src) +
                "->" + std::to_string(first.dst) + ")");
        }
        if (!bounded())
            continue;
        for (unsigned vc = 0; vc < numVcs_; ++vc) {
            if (link.credits[vc] != params_.vcDepth) {
                throw guard::CheckFailure(
                    "credit conservation violated at quiesce: " + where +
                    " vc " + std::to_string(vc) + " holds " +
                    std::to_string(link.credits[vc]) + "/" +
                    std::to_string(params_.vcDepth) + " credits");
            }
        }
    }
    // No reorder buffers under dimension-order routing (pairs_ empty).
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
        const PairState &ps = pairs_[p];
        if (!ps.pending.empty()) {
            NodeId src = NodeId(p / numNodes());
            NodeId dst = NodeId(p % numNodes());
            throw guard::CheckFailure(
                "reorder buffer for pair " + std::to_string(src) + "->" +
                std::to_string(dst) + " still parks " +
                std::to_string(ps.pending.size()) +
                " message(s) at quiesce (next expected netSeq " +
                std::to_string(ps.nextSeq) + ", first parked " +
                std::to_string(ps.pending.begin()->first) + ")");
        }
    }
}

} // namespace ltp
