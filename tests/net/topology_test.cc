/** @file Unit tests for topology geometry, routing, and the routed
 *  interconnect's hop/contention-dependent latency. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "net/topo/routed_network.hh"
#include "net/topo/topology.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace ltp
{
namespace
{

TEST(TopologyKindNames, RoundTrip)
{
    for (TopologyKind k : allTopologyKinds()) {
        auto parsed = parseTopologyKind(topologyKindName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_EQ(parseTopologyKind("MESH2D"), TopologyKind::Mesh2D);
    EXPECT_EQ(parseTopologyKind("point-to-point"),
              TopologyKind::PointToPoint);
    EXPECT_FALSE(parseTopologyKind("hypercube").has_value());
}

TEST(TopologyGeometry, MostSquareFactorization)
{
    TopologyGeometry g16(TopologyKind::Mesh2D, 16);
    EXPECT_EQ(g16.width(), 4u);
    EXPECT_EQ(g16.height(), 4u);

    TopologyGeometry g32(TopologyKind::Mesh2D, 32);
    EXPECT_EQ(g32.width(), 4u);
    EXPECT_EQ(g32.height(), 8u);

    // An explicit, dividing width wins over the auto choice.
    TopologyGeometry g32w8(TopologyKind::Mesh2D, 32, 8);
    EXPECT_EQ(g32w8.width(), 8u);
    EXPECT_EQ(g32w8.height(), 4u);
}

TEST(TopologyGeometry, NonDividingWidthIsAHardError)
{
    // A silently re-factorized layout would skew every hop-count result,
    // so a width that does not divide the node count must throw.
    EXPECT_THROW(TopologyGeometry(TopologyKind::Mesh2D, 32, 5),
                 std::invalid_argument);
    EXPECT_THROW(TopologyGeometry(TopologyKind::Torus2D, 16, 3),
                 std::invalid_argument);
    EXPECT_THROW(TopologyGeometry(TopologyKind::Mesh2D, 32, 33),
                 std::invalid_argument);
}

TEST(NetworkParamsValidation, RejectsBadCombinations)
{
    EventQueue eq;
    StatGroup stats;

    NetworkParams bad_width;
    bad_width.topology = TopologyKind::Mesh2D;
    bad_width.meshWidth = 5;
    EXPECT_THROW(makeInterconnect(eq, 32, bad_width, stats),
                 std::invalid_argument);

    NetworkParams no_bw;
    no_bw.linkBandwidth = 0;
    EXPECT_THROW(makeInterconnect(eq, 32, no_bw, stats),
                 std::invalid_argument);

    // A wrap topology needs two escape VCs; adaptive routing one more.
    NetworkParams few_vcs;
    few_vcs.topology = TopologyKind::Torus2D;
    few_vcs.vcCount = 1;
    EXPECT_THROW(makeInterconnect(eq, 16, few_vcs, stats),
                 std::invalid_argument);
    few_vcs.vcCount = 2;
    EXPECT_NO_THROW(makeInterconnect(eq, 16, few_vcs, stats));
    few_vcs.routing = RoutingPolicy::MinimalAdaptive;
    EXPECT_THROW(makeInterconnect(eq, 16, few_vcs, stats),
                 std::invalid_argument);

    // Dividing widths and the auto layout stay valid.
    NetworkParams good;
    good.topology = TopologyKind::Mesh2D;
    good.meshWidth = 8;
    EXPECT_NO_THROW(makeInterconnect(eq, 32, good, stats));
    good.meshWidth = 0;
    EXPECT_NO_THROW(makeInterconnect(eq, 32, good, stats));
}

TEST(TopologyGeometry, CoordRoundTrip)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 12, 4); // 4 x 3
    for (NodeId n = 0; n < 12; ++n)
        EXPECT_EQ(g.idOf(g.coordOf(n)), n);
    EXPECT_EQ(g.coordOf(5).x, 1u);
    EXPECT_EQ(g.coordOf(5).y, 1u);
}

TEST(TopologyGeometry, MeshHopCountIsManhattanDistance)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16); // 4 x 4
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            Coord cs = g.coordOf(s), cd = g.coordOf(d);
            unsigned manhattan =
                (cs.x > cd.x ? cs.x - cd.x : cd.x - cs.x) +
                (cs.y > cd.y ? cs.y - cd.y : cd.y - cs.y);
            EXPECT_EQ(g.hopCount(s, d), manhattan);
        }
    }
}

TEST(TopologyGeometry, TorusWrapShortensDistance)
{
    TopologyGeometry g(TopologyKind::Torus2D, 16); // 4 x 4
    // Corner to corner: one wrap hop per dimension.
    EXPECT_EQ(g.hopCount(0, 3), 1u);   // (0,0) -> (3,0)
    EXPECT_EQ(g.hopCount(0, 15), 2u);  // (0,0) -> (3,3)
    EXPECT_EQ(g.hopCount(0, 10), 4u);  // (0,0) -> (2,2): 2 + 2
}

TEST(TopologyGeometry, RingTakesShorterDirection)
{
    TopologyGeometry g(TopologyKind::Ring, 8);
    EXPECT_EQ(g.hopCount(0, 7), 1u);
    EXPECT_EQ(g.hopCount(0, 4), 4u);
    EXPECT_EQ(g.hopCount(0, 5), 3u);
    EXPECT_EQ(g.nextHop(0, 5), 7u); // backward around the ring
    EXPECT_EQ(g.nextHop(0, 2), 1u); // forward
}

TEST(TopologyGeometry, ProductiveHopsMatchDimensionCandidates)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16); // 4 x 4
    // (0,0) -> (2,2): X and Y both unresolved; X candidate first, so
    // element 0 is always the dimension-order next hop.
    EXPECT_EQ(g.productiveHops(0, 10), (std::vector<NodeId>{1, 4}));
    EXPECT_EQ(g.productiveHops(0, 10)[0], g.nextHop(0, 10));
    // Same row: only the X candidate remains.
    EXPECT_EQ(g.productiveHops(0, 3), (std::vector<NodeId>{1}));
    // Same column: only the Y candidate.
    EXPECT_EQ(g.productiveHops(0, 12), (std::vector<NodeId>{4}));
}

TEST(TopologyGeometry, WrapLinkAndDimQueries)
{
    TopologyGeometry g(TopologyKind::Torus2D, 16); // 4 x 4
    EXPECT_EQ(g.linkDim(0, 1), 0u);
    EXPECT_EQ(g.linkDim(0, 4), 1u);
    EXPECT_FALSE(g.isWrapLink(0, 1));
    EXPECT_TRUE(g.isWrapLink(0, 3));  // x: 0 -> 3 crosses the seam
    EXPECT_TRUE(g.isWrapLink(0, 12)); // y: 0 -> 12 crosses the seam
    TopologyGeometry m(TopologyKind::Mesh2D, 16);
    EXPECT_FALSE(m.isWrapLink(0, 1));
}

TEST(TopologyGeometry, PointToPointIsSingleHop)
{
    TopologyGeometry g(TopologyKind::PointToPoint, 8);
    EXPECT_EQ(g.hopCount(0, 7), 1u);
    EXPECT_EQ(g.nextHop(0, 7), 7u);
    EXPECT_EQ(g.neighbors(0).size(), 7u);
}

/** Walk nextHop() until dst; returns the visited node sequence. */
std::vector<NodeId>
route(const TopologyGeometry &g, NodeId src, NodeId dst)
{
    std::vector<NodeId> path{src};
    NodeId cur = src;
    while (cur != dst) {
        cur = g.nextHop(cur, dst);
        path.push_back(cur);
        EXPECT_LT(path.size(), std::size_t(g.numNodes()) + 1)
            << "routing loop";
        if (path.size() > g.numNodes())
            break;
    }
    return path;
}

TEST(TopologyGeometry, MeshRoutesDimensionOrder)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16); // 4 x 4
    // (0,0) -> (2,2): X first through (1,0), (2,0), then Y.
    std::vector<NodeId> expect = {0, 1, 2, 6, 10};
    EXPECT_EQ(route(g, 0, 10), expect);
}

TEST(TopologyGeometry, RouteLengthMatchesHopCountEverywhere)
{
    for (TopologyKind k :
         {TopologyKind::Mesh2D, TopologyKind::Torus2D, TopologyKind::Ring}) {
        TopologyGeometry g(k, 12);
        for (NodeId s = 0; s < 12; ++s)
            for (NodeId d = 0; d < 12; ++d)
                if (s != d)
                    EXPECT_EQ(route(g, s, d).size(), g.hopCount(s, d) + 1)
                        << topologyKindName(k) << " " << s << "->" << d;
    }
}

TEST(TopologyGeometry, NeighborsAreMutual)
{
    for (TopologyKind k :
         {TopologyKind::Mesh2D, TopologyKind::Torus2D, TopologyKind::Ring}) {
        TopologyGeometry g(k, 12);
        for (NodeId n = 0; n < 12; ++n) {
            for (NodeId m : g.neighbors(n)) {
                auto back = g.neighbors(m);
                EXPECT_NE(std::find(back.begin(), back.end(), n),
                          back.end());
            }
        }
    }
}

// ---- routing oracle: precomputed tables vs. coordinate arithmetic -------

/** Reference position: the division the geometry's table replaces. */
Coord
refCoord(const TopologyGeometry &g, NodeId node)
{
    return Coord{unsigned(node) % g.width(), unsigned(node) / g.width()};
}

/** Reference one-dimension step toward @p to (shorter wrap direction,
 *  ties toward the increasing coordinate). */
unsigned
refStep(unsigned from, unsigned to, unsigned extent, bool wraps)
{
    if (!wraps)
        return from < to ? from + 1 : from - 1;
    unsigned fwd = (to + extent - from) % extent;
    unsigned bwd = extent - fwd;
    return fwd <= bwd ? (from + 1) % extent : (from + extent - 1) % extent;
}

/** Reference minimal next nodes: one step per unresolved dimension,
 *  X first; element 0 is the dimension-order next hop. */
std::vector<NodeId>
refProductiveHops(const TopologyGeometry &g, NodeId at, NodeId dst)
{
    Coord c = refCoord(g, at);
    Coord d = refCoord(g, dst);
    std::vector<NodeId> hops;
    if (c.x != d.x)
        hops.push_back(NodeId(c.y * g.width() +
                              refStep(c.x, d.x, g.width(), g.wraps())));
    if (c.y != d.y)
        hops.push_back(NodeId(refStep(c.y, d.y, g.height(), g.wraps()) *
                                  g.width() +
                              c.x));
    return hops;
}

unsigned
refAxisDistance(unsigned a, unsigned b, unsigned extent, bool wraps)
{
    unsigned d = a > b ? a - b : b - a;
    return wraps ? std::min(d, extent - d) : d;
}

/** Reference route length: per-dimension (wrap-aware) distance. */
unsigned
refHopCount(const TopologyGeometry &g, NodeId src, NodeId dst)
{
    Coord s = refCoord(g, src);
    Coord d = refCoord(g, dst);
    return refAxisDistance(s.x, d.x, g.width(), g.wraps()) +
           refAxisDistance(s.y, d.y, g.height(), g.wraps());
}

/**
 * Every (at, dst) pair: the table-driven output links the router takes
 * (dorLink under DOR, productiveLinksInto under adaptive and oblivious
 * routing), the link dimension that picks the dateline VC, and the hop
 * count sampled into hopsPerMsg must equal the coordinate definitions
 * above. Stops at the first mismatch per geometry.
 */
void
checkRoutingOracle(const TopologyGeometry &g)
{
    const NodeId n = g.numNodes();
    for (NodeId node = 0; node < n; ++node) {
        ASSERT_EQ(g.coordOf(node), refCoord(g, node)) << "node " << node;
    }
    for (NodeId at = 0; at < n; ++at) {
        ASSERT_EQ(g.hopCount(at, at), 0u);
        for (NodeId dst = 0; dst < n; ++dst) {
            if (at == dst)
                continue;
            std::vector<NodeId> hops = refProductiveHops(g, at, dst);
            std::size_t links[2];
            unsigned n = g.productiveLinksInto(at, dst, links);
            ASSERT_EQ(n, hops.size()) << at << "->" << dst;
            ASSERT_EQ(g.dorLink(at, dst), links[0]) << at << "->" << dst;
            ASSERT_EQ(g.nextHop(at, dst), hops[0]) << at << "->" << dst;
            for (unsigned i = 0; i < n; ++i) {
                ASSERT_LT(links[i], g.numLinks()) << at << "->" << dst;
                const TopoLink &link = g.link(links[i]);
                Coord a = refCoord(g, at);
                Coord b = refCoord(g, hops[i]);
                unsigned dim = a.x != b.x ? 0 : 1;
                unsigned dx = a.x > b.x ? a.x - b.x : b.x - a.x;
                unsigned dy = a.y > b.y ? a.y - b.y : b.y - a.y;
                ASSERT_EQ(link.from, at) << at << "->" << dst;
                ASSERT_EQ(link.to, hops[i]) << at << "->" << dst;
                ASSERT_EQ(g.linkIndex(at, hops[i]), int(links[i]))
                    << at << "->" << dst;
                ASSERT_EQ(unsigned(link.dim), dim) << at << "->" << dst;
                ASSERT_EQ(link.wrap, dx > 1 || dy > 1) << at << "->" << dst;
            }
            ASSERT_EQ(g.hopCount(at, dst), refHopCount(g, at, dst))
                << at << "->" << dst;
        }
    }
}

TEST(TopologyGeometry, RouteTablesMatchCoordinateArithmetic)
{
    const std::pair<unsigned, unsigned> shapes[] = {
        {4, 4}, {2, 8}, {8, 8}, {32, 32}};
    for (auto [w, h] : shapes) {
        for (TopologyKind k : {TopologyKind::Mesh2D, TopologyKind::Torus2D,
                               TopologyKind::Ring}) {
            SCOPED_TRACE(std::string(topologyKindName(k)) + " " +
                         std::to_string(w) + "x" + std::to_string(h));
            TopologyGeometry g(k, NodeId(w * h),
                               k == TopologyKind::Ring ? 0 : w);
            if (k != TopologyKind::Ring) {
                ASSERT_EQ(g.width(), w);
                ASSERT_EQ(g.height(), h);
            }
            checkRoutingOracle(g);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(TopologyGeometry, LinkEnumerationAndPointToPointHasNoTables)
{
    // Four links per torus router, enumerated by source node.
    // Point-to-point geometries enumerate no links at all.
    TopologyGeometry g(TopologyKind::Torus2D, 64);
    EXPECT_EQ(g.numLinks(), 256u);
    for (std::size_t l = 0; l < g.numLinks(); ++l)
        EXPECT_EQ(g.linkIndex(g.link(l).from, g.link(l).to), int(l));
    EXPECT_EQ(g.linkIndex(0, 9), -1); // diagonal: not adjacent
    TopologyGeometry p2p(TopologyKind::PointToPoint, 64);
    EXPECT_EQ(p2p.numLinks(), 0u);
    EXPECT_EQ(p2p.linkIndex(0, 1), -1);
}

// ---- RoutedNetwork timing ------------------------------------------------

class RoutedNetworkTest : public ::testing::Test
{
  protected:
    static NetworkParams
    meshParams()
    {
        NetworkParams p;
        p.topology = TopologyKind::Mesh2D;
        return p;
    }

    /** Link serialization in cycles: ceil(message bytes / bandwidth). */
    static Tick
    serTicks(const NetworkParams &p, bool data)
    {
        unsigned bytes = p.headerBytes + (data ? p.blockBytes : 0);
        return (bytes + p.linkBandwidth - 1) / p.linkBandwidth;
    }

    /** Per-hop cost with default knobs (no contention). */
    static Tick
    hopCost(const NetworkParams &p, bool data)
    {
        return serTicks(p, data) + p.hopLatency + p.routerLatency;
    }

    Message
    msg(MsgType t, NodeId src, NodeId dst, Addr a = 0x100)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.addr = a;
        return m;
    }

    /** Deliver one message on a fresh 4x4 mesh; returns its latency. */
    Tick
    oneMessageLatency(NodeId src, NodeId dst)
    {
        EventQueue eq;
        StatGroup stats;
        RoutedNetwork net(eq, 16, meshParams(), stats);
        Tick arrived = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.setSink(n, [&, n](const Message &) { arrived = eq.now(); });
        net.send(msg(MsgType::GetS, src, dst));
        eq.run();
        return arrived;
    }
};

TEST_F(RoutedNetworkTest, LatencyIsNiPlusPerHopCosts)
{
    NetworkParams p = meshParams();
    // 0 -> 1 on a 4x4 mesh: one hop.
    EXPECT_EQ(oneMessageLatency(0, 1),
              p.controlOccupancy + 1 * hopCost(p, false) +
                  p.controlOccupancy);
    // 0 -> 10 ((0,0) -> (2,2)): four hops.
    EXPECT_EQ(oneMessageLatency(0, 10),
              p.controlOccupancy + 4 * hopCost(p, false) +
                  p.controlOccupancy);
}

/**
 * Calibration pin (ROADMAP): the default byte-bandwidth knobs are chosen
 * so one unloaded routed hop costs a control message exactly the paper's
 * 80-cycle point-to-point flight (16 B header / 4 B-per-cycle link = 4
 * cycles of serialization, plus wire and router). Adjacent-node latency
 * must therefore be identical under the p2p model and every routed
 * topology.
 */
TEST_F(RoutedNetworkTest, DefaultKnobsMatchPaperFlightLatencyAtOneHop)
{
    NetworkParams p = meshParams();
    EXPECT_EQ(serTicks(p, false), 4u);
    EXPECT_EQ(serTicks(p, true), 12u);
    EXPECT_EQ(serTicks(p, false) + p.hopLatency + p.routerLatency,
              p.flightLatency);
    EXPECT_EQ(hopCost(p, false), 80u);

    // p2p end-to-end for a control message: egress NI + flight + ingress.
    Tick p2p;
    {
        EventQueue eq;
        StatGroup stats;
        Network net(eq, 16, NetworkParams{}, stats);
        Tick arrived = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.setSink(n, [&](const Message &) { arrived = eq.now(); });
        net.send(msg(MsgType::GetS, 0, 1));
        eq.run();
        p2p = arrived;
    }
    EXPECT_EQ(p2p, p.controlOccupancy + p.flightLatency +
                       p.controlOccupancy);
    // One routed hop on the mesh times identically.
    EXPECT_EQ(oneMessageLatency(0, 1), p2p);
}

TEST_F(RoutedNetworkTest, MeshLatencyGrowsWithManhattanDistance)
{
    TopologyGeometry g(TopologyKind::Mesh2D, 16);
    // 0 -> 1, 2, 3, 7, 11, 15: distances 1, 2, 3, 4, 5, 6.
    Tick prev = 0;
    for (NodeId dst : {1, 2, 3, 7, 11, 15}) {
        Tick lat = oneMessageLatency(0, dst);
        EXPECT_GT(lat, prev) << "dst " << dst << " (distance "
                             << g.hopCount(0, dst) << ")";
        prev = lat;
    }
}

TEST_F(RoutedNetworkTest, SharedLinkContentionSerializes)
{
    EventQueue eq;
    StatGroup stats;
    RoutedNetwork net(eq, 16, meshParams(), stats);
    std::vector<std::pair<Addr, Tick>> arrivals;
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, [&](const Message &m) {
            arrivals.push_back({m.addr, eq.now()});
        });

    // A slow data message followed by a control message on the same
    // route (0 -> 1 -> 2). The control message catches up and queues
    // behind the data message at every link and at the ingress NI.
    net.send(msg(MsgType::DataS, 0, 2, 0xA));
    net.send(msg(MsgType::GetS, 0, 2, 0xB));
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    NetworkParams p = meshParams();

    // Data message sails through unloaded.
    EXPECT_EQ(arrivals[0].first, 0xAu);
    EXPECT_EQ(arrivals[0].second, p.dataOccupancy + 2 * hopCost(p, true) +
                                      p.dataOccupancy);

    // The control message arrives later (pairwise FIFO preserved) and
    // later than NI serialization alone explains: it also queued on the
    // links behind the data message.
    EXPECT_EQ(arrivals[1].first, 0xBu);
    EXPECT_GT(arrivals[1].second, arrivals[0].second);
    Tick egress_wait = p.dataOccupancy;
    Tick unloaded_ctrl = p.controlOccupancy + 2 * hopCost(p, false) +
                         p.controlOccupancy;
    EXPECT_GT(arrivals[1].second, egress_wait + unloaded_ctrl);
}

TEST_F(RoutedNetworkTest, LinkAndHopStatsPopulated)
{
    EventQueue eq;
    StatGroup stats;
    RoutedNetwork net(eq, 16, meshParams(), stats);
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, [](const Message &) {});

    net.send(msg(MsgType::GetS, 0, 2)); // route 0 -> 1 -> 2
    eq.run();

    EXPECT_EQ(stats.counterValue("net.hops"), 2u);
    NetworkParams p = meshParams();
    EXPECT_EQ(stats.counterValue("net.linkBusy.0-1"), serTicks(p, false));
    EXPECT_EQ(stats.counterValue("net.linkMsgs.0-1"), 1u);
    EXPECT_EQ(stats.counterValue("net.linkBusy.1-2"), serTicks(p, false));
    EXPECT_EQ(stats.counterValue("net.linkMsgs.2-3"), 0u);

    ASSERT_TRUE(stats.hasHistogram("net.endToEndLatency"));
    EXPECT_EQ(stats.findHistogram("net.endToEndLatency")->totalSamples(),
              1u);
    EXPECT_DOUBLE_EQ(stats.averageMean("net.hopsPerMsg"), 2.0);
}

TEST_F(RoutedNetworkTest, LinkCountsMatchTopology)
{
    EventQueue eq;
    StatGroup stats;

    NetworkParams mesh = meshParams();
    EXPECT_EQ(RoutedNetwork(eq, 16, mesh, stats).numLinks(), 48u);

    NetworkParams torus;
    torus.topology = TopologyKind::Torus2D;
    EXPECT_EQ(RoutedNetwork(eq, 16, torus, stats).numLinks(), 64u);

    NetworkParams ring;
    ring.topology = TopologyKind::Ring;
    EXPECT_EQ(RoutedNetwork(eq, 8, ring, stats).numLinks(), 16u);
}

/**
 * On an even-extent torus the two wrap directions tie; the tie-break is
 * pinned toward the increasing coordinate for every routing policy, so
 * even-extent torus routes stay deterministic per (src, dst).
 */
TEST_F(RoutedNetworkTest, TorusEvenExtentTieBreakPinnedForAllPolicies)
{
    TopologyGeometry g(TopologyKind::Torus2D, 16); // 4 x 4: extent 4
    // 0 -> 2 in X: forward and backward are both 2 hops.
    EXPECT_EQ(g.hopCount(0, 2), 2u);
    EXPECT_EQ(g.nextHop(0, 2), 1u);
    EXPECT_EQ(g.productiveHops(0, 2), (std::vector<NodeId>{1}));
    // 0 -> 8 in Y: same tie, pinned to +Y.
    EXPECT_EQ(g.nextHop(0, 8), 4u);
    // Both dimensions tied: still one pinned candidate per dimension.
    EXPECT_EQ(g.productiveHops(0, 10), (std::vector<NodeId>{1, 4}));

    for (RoutingPolicy routing : allRoutingPolicies()) {
        EventQueue eq;
        StatGroup stats;
        NetworkParams p;
        p.topology = TopologyKind::Torus2D;
        p.routing = routing;
        RoutedNetwork net(eq, 16, p, stats);
        unsigned arrived = 0;
        for (NodeId n = 0; n < 16; ++n)
            net.setSink(n, [&](const Message &) { ++arrived; });
        net.send(msg(MsgType::GetS, 0, 2));
        eq.run();
        EXPECT_EQ(arrived, 1u) << routingPolicyName(routing);
        // The pinned route is 0 -> 1 -> 2; the backward wrap must stay
        // untouched under every policy.
        EXPECT_EQ(stats.counterValue("net.linkMsgs.0-1"), 1u)
            << routingPolicyName(routing);
        EXPECT_EQ(stats.counterValue("net.linkMsgs.1-2"), 1u)
            << routingPolicyName(routing);
        EXPECT_EQ(stats.counterValue("net.linkMsgs.0-3"), 0u)
            << routingPolicyName(routing);
        EXPECT_EQ(stats.counterValue("net.linkMsgs.3-2"), 0u)
            << routingPolicyName(routing);
    }
}

TEST_F(RoutedNetworkTest, LocalDeliveryBypassesNetwork)
{
    EventQueue eq;
    StatGroup stats;
    RoutedNetwork net(eq, 16, meshParams(), stats);
    Tick arrived = 0;
    for (NodeId n = 0; n < 16; ++n)
        net.setSink(n, [&](const Message &) { arrived = eq.now(); });
    net.send(msg(MsgType::GetS, 5, 5));
    eq.run();
    EXPECT_EQ(arrived, 1u);
}

} // namespace
} // namespace ltp
