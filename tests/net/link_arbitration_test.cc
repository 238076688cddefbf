/**
 * @file
 * Golden digests for the router link arbitration (RoutedNetwork's
 * per-VC request FIFOs, net/topo/routed_network.cc, drainLink).
 *
 * Pinned here:
 *  - saturated hotspot traffic on bounded {mesh, torus} x {dor,
 *    adaptive, oblivious} x vcDepth {1, 2}, plus a 4-VC adaptive mesh
 *    where adaptiveVc() chooses among three adaptive VCs: the stats
 *    dump digest, the final tick and the executed-event count must equal
 *    the values the scan-based arbiter (a single request-ordered queue
 *    per link) produced at commit 9ba5b1f. The offered load is far
 *    above saturation, so injection queues hold hundreds of entries and
 *    every drain decision — first credited request, virtual-time stop,
 *    oldest adaptive request for the escape path — is exercised;
 *  - a directed same-link escape reroute: the downgraded request keeps
 *    its request-order place in the escape VC, ahead of an escape
 *    request that arrived after it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "net/topo/routed_network.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace ltp
{
namespace
{

constexpr NodeId kNodes = 16;
constexpr NodeId kHotspot = 5;
constexpr Tick kInjectCycles = 4000;
constexpr double kRate = 0.1; //!< msgs/node/cycle, far above saturation

/** FNV-1a 64 over @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Case
{
    TopologyKind topology;
    RoutingPolicy routing;
    unsigned vcDepth;
    unsigned vcCount;
    std::uint64_t digest; //!< fnv1a of the stats dump
    Tick cycles;
    std::uint64_t events;
};

struct Outcome
{
    std::uint64_t digest = 0;
    Tick cycles = 0;
    std::uint64_t events = 0;
    std::size_t backlog = 0; //!< undelivered messages when injection ends
    std::size_t sent = 0;
    std::size_t delivered = 0;
};

Outcome
runHotspot(const Case &c)
{
    EventQueue eq;
    StatGroup stats;
    NetworkParams p;
    p.topology = c.topology;
    p.routing = c.routing;
    p.vcDepth = c.vcDepth;
    p.vcCount = c.vcCount;
    RoutedNetwork net(eq, kNodes, p, stats);

    Outcome out;
    for (NodeId n = 0; n < kNodes; ++n)
        net.setSink(n, [&out](const Message &) { ++out.delivered; });

    // Open-loop Bernoulli injection: 20% of messages target the hotspot.
    Rng rng(0x11A7 + std::uint64_t(c.topology) * 7 +
            std::uint64_t(c.routing));
    for (Tick t = 0; t < kInjectCycles; ++t) {
        for (NodeId src = 0; src < kNodes; ++src) {
            if (!rng.chance(kRate))
                continue;
            Message m;
            m.type = rng.below(2) ? MsgType::DataS : MsgType::GetS;
            m.src = src;
            m.dst = rng.chance(0.2) ? kHotspot : NodeId(rng.below(kNodes));
            m.addr = Addr(out.sent++);
            eq.scheduleAt(t, [&net, m] { net.send(m); });
        }
    }
    eq.scheduleAt(kInjectCycles,
                  [&out] { out.backlog = out.sent - out.delivered; });
    eq.run();

    std::ostringstream dump;
    stats.dump(dump);
    out.digest = fnv1a(dump.str());
    out.cycles = eq.now();
    out.events = eq.eventsExecuted();
    net.guardCheckQuiesce();
    return out;
}

class LinkArbitrationGolden : public ::testing::TestWithParam<Case>
{
};

TEST_P(LinkArbitrationGolden, MatchesScanArbiter)
{
    const Case &c = GetParam();
    Outcome o = runHotspot(c);
    EXPECT_EQ(o.delivered, o.sent);
    // The premise: queues must be deep for the digest to cover the
    // arbitration paths (hundreds of waiting requests per source).
    EXPECT_GE(o.backlog, std::size_t(kNodes) * 200);
    EXPECT_EQ(o.digest, c.digest) << std::hex << "0x" << o.digest;
    EXPECT_EQ(o.cycles, c.cycles);
    EXPECT_EQ(o.events, c.events);
}

constexpr TopologyKind kMesh = TopologyKind::Mesh2D;
constexpr TopologyKind kTorus = TopologyKind::Torus2D;
constexpr RoutingPolicy kDor = RoutingPolicy::DimensionOrder;
constexpr RoutingPolicy kAdaptive = RoutingPolicy::MinimalAdaptive;
constexpr RoutingPolicy kOblivious = RoutingPolicy::Oblivious;

// Captured at commit 9ba5b1f (scan-based arbitration over one
// request-ordered std::deque per link).
const Case kCases[] = {
    {kMesh, kDor, 1, 0, 0xd27f7bd8a9e15e66ull, 168894, 56944},
    {kMesh, kDor, 2, 0, 0xa983a1cb6e31d9b3ull, 85158, 57503},
    {kMesh, kAdaptive, 1, 0, 0x475d232698dc1bd9ull, 130032, 55796},
    {kMesh, kAdaptive, 2, 0, 0x858dc3ea2c3b36dfull, 62916, 56284},
    {kMesh, kOblivious, 1, 0, 0x95f8d99d98ec0985ull, 129173, 55963},
    {kMesh, kOblivious, 2, 0, 0x705b2108b708442bull, 61811, 56623},
    {kTorus, kDor, 1, 0, 0x6e70e037f85f8ac4ull, 181087, 50985},
    {kTorus, kDor, 2, 0, 0x18857b8b3220de76ull, 88067, 51200},
    {kTorus, kAdaptive, 1, 0, 0x96c465c6550e0e58ull, 171153, 51481},
    {kTorus, kAdaptive, 2, 0, 0x99d3f521f2773a0full, 83738, 51971},
    {kTorus, kOblivious, 1, 0, 0x3ffca9e4206b7a80ull, 171261, 51462},
    {kTorus, kOblivious, 2, 0, 0xd621ab2adfd0da13ull, 75119, 51810},
    {kMesh, kAdaptive, 2, 4, 0x87298b8ea06364baull, 44425, 56891},
};

INSTANTIATE_TEST_SUITE_P(
    SaturatedHotspot, LinkArbitrationGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case> &info) {
        const Case &c = info.param;
        std::string name = std::string(topologyKindName(c.topology)) + "_" +
                           routingPolicyName(c.routing) + "_d" +
                           std::to_string(c.vcDepth);
        if (c.vcCount != 0)
            name += "_" + std::to_string(c.vcCount) + "vc";
        return name;
    });

TEST(LinkArbitration, SameLinkEscapeKeepsRequestOrder)
{
    // 2x2 mesh, one adaptive VC, depth 1, 1 byte/cycle links (16-cycle
    // control serialization). All five messages leave node 0's egress
    // NI 4 cycles apart:
    //   @4  m0a 0->1  granted on 0->1 VC1 (busy until 20)
    //   @8  m2  0->2  granted on 0->2 VC1 (busy until 24)
    //   @12 m0b 0->1  waits on 0->1 VC1
    //   @16 a   0->1  waits on 0->1 VC1
    //   @20 0->1 drains: no credit anywhere, m0b escapes onto VC0 and
    //       is granted (busy until 36); a stays on VC1. b 0->3 prefers
    //       the less congested Y port and waits on 0->2 VC1
    //   @24 0->2 drains: no credit, b escapes onto its dimension-order
    //       hop, joining 0->1 VC0 *after* a's arrival
    //   @36 0->1 drains: no credit, a escapes onto VC0 on the same link
    // a requested 0->1 before b did, so a must win VC0's next credit.
    EventQueue eq;
    StatGroup stats;
    NetworkParams p;
    p.topology = TopologyKind::Mesh2D;
    p.routing = RoutingPolicy::MinimalAdaptive;
    p.vcDepth = 1;
    p.linkBandwidth = 1;
    RoutedNetwork net(eq, 4, p, stats);
    ASSERT_EQ(net.numVcs(), 2u);

    std::map<Addr, Tick> deliveredAt;
    for (NodeId n = 0; n < 4; ++n)
        net.setSink(n, [&deliveredAt, &eq](const Message &m) {
            deliveredAt[m.addr] = eq.now();
        });
    // Message tags (Message::addr), in send order.
    constexpr Addr m0a = 0, m2 = 1, m0b = 2, a = 3, b = 4;
    const NodeId dsts[] = {1, 2, 1, 1, 3};
    for (Addr tag : {m0a, m2, m0b, a, b}) {
        Message m;
        m.type = MsgType::GetS;
        m.src = 0;
        m.dst = dsts[tag];
        m.addr = tag;
        net.send(m);
    }
    eq.run();

    ASSERT_EQ(deliveredAt.size(), 5u);
    EXPECT_EQ(stats.counter("net.escapeReroutes").value(), 3u)
        << "the scenario no longer exercises a same-link escape";
    EXPECT_LT(deliveredAt[m0b], deliveredAt[a]);
    EXPECT_LT(deliveredAt[a], deliveredAt[b])
        << "the escaped request lost its place to a later escape request";
}

} // namespace
} // namespace ltp
