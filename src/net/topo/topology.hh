/**
 * @file
 * Interconnect topology descriptions and deterministic routing.
 *
 * TopologyGeometry maps node ids onto a topology (point-to-point crossbar,
 * 2D mesh, 2D torus, or ring), enumerates physical links, and computes
 * the deterministic route a message follows:
 *
 *  - Mesh2D:  dimension-order (X then Y) routing.
 *  - Torus2D: dimension-order routing, taking the shorter wrap direction
 *             per dimension (ties broken toward increasing coordinate).
 *  - Ring:    shorter direction around the ring (tie toward increasing).
 *  - PointToPoint: every pair is directly connected (the paper's model).
 *
 * Deterministic single-path routing is what lets the routed interconnect
 * preserve the pairwise (src, dst) FIFO delivery order the coherence
 * protocol relies on: messages of a pair traverse the same sequence of
 * FIFO links, so they can never overtake each other.
 */

#ifndef LTP_NET_TOPO_TOPOLOGY_HH
#define LTP_NET_TOPO_TOPOLOGY_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ltp
{

/** Which physical interconnect a system instantiates. */
enum class TopologyKind
{
    PointToPoint, //!< constant-latency crossbar (paper Table 1; default)
    Mesh2D,       //!< 2D mesh, dimension-order routed
    Torus2D,      //!< 2D torus, dimension-order routed with wrap links
    Ring,         //!< bidirectional ring, shortest-direction routed
};

/** Short stable name ("mesh", "torus", ...) for banners and CLIs. */
const char *topologyKindName(TopologyKind k);

/** Parse a CLI spelling ("p2p", "mesh", "torus2d", ...). */
std::optional<TopologyKind> parseTopologyKind(const std::string &name);

/** All kinds, in declaration order (sweep helpers). */
const std::vector<TopologyKind> &allTopologyKinds();

/**
 * How a router picks among the minimal (productive) output ports.
 *
 * DimensionOrder is the deterministic baseline every DSM run defaults
 * to. The other two add path diversity on 2D topologies; the routed
 * network restores pairwise (src, dst) delivery order behind them with
 * a sequence-numbered ingress reorder buffer, so all three are safe
 * under the coherence protocol.
 */
enum class RoutingPolicy
{
    DimensionOrder,  //!< X fully, then Y (deterministic; default)
    MinimalAdaptive, //!< least-congested productive port, DOR escape
    Oblivious,       //!< uniformly random productive port, DOR escape
};

/** Short stable name ("dor", "adaptive", "oblivious"). */
const char *routingPolicyName(RoutingPolicy p);

/** Parse a CLI spelling ("dor", "adaptive", "oblivious", ...). */
std::optional<RoutingPolicy> parseRoutingPolicy(const std::string &name);

/** All policies, in declaration order (sweep helpers). */
const std::vector<RoutingPolicy> &allRoutingPolicies();

/** Position of a node in the 2D layout (rings have y == 0). */
struct Coord
{
    unsigned x = 0;
    unsigned y = 0;

    bool operator==(const Coord &o) const { return x == o.x && y == o.y; }
};

/** One directed physical link between adjacent routers. */
struct TopoLink
{
    NodeId from = invalidNode;
    NodeId to = invalidNode;
    std::uint8_t dim = 0; //!< 0 = X, 1 = Y
    bool wrap = false;    //!< crosses the torus/ring dateline
};

/**
 * The static shape of one interconnect instance: node placement,
 * neighbor links, hop counts, and next-hop routing decisions.
 *
 * Routed kinds (mesh, torus, ring) also carry the per-hop tables the
 * router reads instead of recomputing coordinates: the enumerated
 * directed links and, per node, the output link one step toward every
 * column and every row (2 bytes per entry: 2 KB for an 8 x 8 mesh or
 * torus, 8 KB for a 64-node ring), filled at construction from the
 * coordinate arithmetic. Every routing query below reads them.
 * Point-to-point geometries have no links and no tables.
 */
class TopologyGeometry
{
  public:
    /**
     * Lay @p num_nodes out on topology @p kind.
     *
     * For Mesh2D/Torus2D, @p mesh_width fixes the X dimension; it must
     * divide the node count or the constructor throws
     * std::invalid_argument (a silently re-factorized layout would make
     * every hop-count result quietly wrong). When 0 the most-square
     * factorization is chosen (e.g. 32 nodes -> 4 x 8).
     */
    TopologyGeometry(TopologyKind kind, NodeId num_nodes,
                     unsigned mesh_width = 0);

    TopologyKind kind() const { return kind_; }
    NodeId numNodes() const { return n_; }
    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    /** Position of @p node: a table load (no division). */
    Coord
    coordOf(NodeId node) const
    {
        assert(node < n_);
        return coord_[node];
    }

    NodeId idOf(Coord c) const;

    /**
     * The next node on the deterministic dimension-order route from
     * @p cur to @p dst (the far end of dorLink() on routed kinds).
     * @pre cur != dst.
     */
    NodeId nextHop(NodeId cur, NodeId dst) const;

    /**
     * All minimal next hops from @p cur toward @p dst: at most one per
     * dimension, X candidate first (so element 0 is nextHop() whenever
     * X is unresolved). Wrap-distance ties are pinned toward the
     * increasing coordinate for every routing policy, keeping even-extent
     * torus/ring routes deterministic per (cur, dst).
     * @pre cur != dst.
     */
    std::vector<NodeId> productiveHops(NodeId cur, NodeId dst) const;

    /** Number of links the route from @p src to @p dst crosses
     *  (coordinate distance from the per-node table; no division). */
    unsigned hopCount(NodeId src, NodeId dst) const;

    /** Direct neighbors of @p node (each shared link appears once). */
    std::vector<NodeId> neighbors(NodeId node) const;

    /** Dimension (0 = X, 1 = Y) of the physical link @p from -> @p to.
     *  @pre the nodes are adjacent. */
    unsigned linkDim(NodeId from, NodeId to) const;

    /** True when @p from -> @p to is a wrap-around (dateline) link. */
    bool isWrapLink(NodeId from, NodeId to) const;

    /** True when wrap-around links exist (torus, ring). */
    bool wraps() const
    {
        return kind_ == TopologyKind::Torus2D || kind_ == TopologyKind::Ring;
    }

    /**
     * Directed physical links of a routed kind, enumerated by source
     * node, then in neighbors() order (0 for point-to-point). The index
     * is the link's identity everywhere: its router state, its stat
     * names, its post() channel.
     */
    std::size_t numLinks() const { return links_.size(); }
    const TopoLink &link(std::size_t l) const { return links_[l]; }

    /** Index of the link @p from -> @p to; -1 when not adjacent (and
     *  always for point-to-point). Scans @p from's own links. */
    int linkIndex(NodeId from, NodeId to) const;

    /**
     * The router's per-hop query: the minimal output links at @p cur
     * toward @p dst, X candidate first (productiveHops() as link
     * indices; element 0 is dorLink()). Two per-node table loads, no
     * division. @return the candidate count (1 or 2).
     * @pre cur != dst, routed kind.
     */
    unsigned
    productiveLinksInto(NodeId cur, NodeId dst, std::size_t (&out)[2]) const
    {
        Coord c = coord_[cur];
        Coord d = coord_[dst];
        unsigned n = 0;
        if (c.x != d.x)
            out[n++] = stepX_[std::size_t(cur) * width_ + d.x];
        if (c.y != d.y)
            out[n++] = stepY_[std::size_t(cur) * height_ + d.y];
        return n;
    }

    /**
     * The dimension-order output link at @p cur toward @p dst: one step
     * along X while X is unresolved, then along Y.
     * @pre cur != dst, routed kind.
     */
    std::size_t
    dorLink(NodeId cur, NodeId dst) const
    {
        Coord c = coord_[cur];
        Coord d = coord_[dst];
        return c.x != d.x ? stepX_[std::size_t(cur) * width_ + d.x]
                          : stepY_[std::size_t(cur) * height_ + d.y];
    }

  private:
    /** Step-table entry for a coordinate the node already has. */
    static constexpr std::uint16_t noLink = 0xFFFF;

    /** Enumerate the links and fill the step tables (routed kinds). */
    void buildLinkTables();

    /** Distance along one dimension of extent @p extent. */
    unsigned axisDistance(unsigned from, unsigned to, unsigned extent) const;
    /** Step (+1/-1, with wrap) along one dimension toward @p to. */
    unsigned axisStep(unsigned from, unsigned to, unsigned extent) const;

    TopologyKind kind_;
    NodeId n_;
    unsigned width_ = 1;
    unsigned height_ = 1;

    std::vector<Coord> coord_;              //!< node -> position
    std::vector<TopoLink> links_;           //!< routed kinds only
    std::vector<std::size_t> firstLink_;    //!< node -> its first link
    /** (cur * width + x) -> cur's link one X step toward column x. */
    std::vector<std::uint16_t> stepX_;
    /** (cur * height + y) -> cur's link one Y step toward row y. */
    std::vector<std::uint16_t> stepY_;
};

} // namespace ltp

#endif // LTP_NET_TOPO_TOPOLOGY_HH
