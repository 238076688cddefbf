#include "net/topo/topology.hh"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <stdexcept>

namespace ltp
{

const char *
topologyKindName(TopologyKind k)
{
    switch (k) {
      case TopologyKind::PointToPoint: return "p2p";
      case TopologyKind::Mesh2D: return "mesh";
      case TopologyKind::Torus2D: return "torus";
      case TopologyKind::Ring: return "ring";
    }
    return "?";
}

std::optional<TopologyKind>
parseTopologyKind(const std::string &name)
{
    std::string s;
    for (char c : name)
        s += char(std::tolower(static_cast<unsigned char>(c)));
    if (s == "p2p" || s == "pointtopoint" || s == "point-to-point" ||
        s == "crossbar")
        return TopologyKind::PointToPoint;
    if (s == "mesh" || s == "mesh2d")
        return TopologyKind::Mesh2D;
    if (s == "torus" || s == "torus2d")
        return TopologyKind::Torus2D;
    if (s == "ring")
        return TopologyKind::Ring;
    return std::nullopt;
}

const std::vector<TopologyKind> &
allTopologyKinds()
{
    static const std::vector<TopologyKind> kinds = {
        TopologyKind::PointToPoint,
        TopologyKind::Mesh2D,
        TopologyKind::Torus2D,
        TopologyKind::Ring,
    };
    return kinds;
}

const char *
routingPolicyName(RoutingPolicy p)
{
    switch (p) {
      case RoutingPolicy::DimensionOrder: return "dor";
      case RoutingPolicy::MinimalAdaptive: return "adaptive";
      case RoutingPolicy::Oblivious: return "oblivious";
    }
    return "?";
}

std::optional<RoutingPolicy>
parseRoutingPolicy(const std::string &name)
{
    std::string s;
    for (char c : name)
        s += char(std::tolower(static_cast<unsigned char>(c)));
    if (s == "dor" || s == "xy" || s == "dimension-order" ||
        s == "deterministic")
        return RoutingPolicy::DimensionOrder;
    if (s == "adaptive" || s == "minimal-adaptive" || s == "min-adaptive")
        return RoutingPolicy::MinimalAdaptive;
    if (s == "oblivious" || s == "random" || s == "randomized-oblivious")
        return RoutingPolicy::Oblivious;
    return std::nullopt;
}

const std::vector<RoutingPolicy> &
allRoutingPolicies()
{
    static const std::vector<RoutingPolicy> policies = {
        RoutingPolicy::DimensionOrder,
        RoutingPolicy::MinimalAdaptive,
        RoutingPolicy::Oblivious,
    };
    return policies;
}

TopologyGeometry::TopologyGeometry(TopologyKind kind, NodeId num_nodes,
                                   unsigned mesh_width)
    : kind_(kind), n_(num_nodes)
{
    assert(n_ > 0);
    switch (kind_) {
      case TopologyKind::PointToPoint:
        width_ = n_;
        height_ = 1;
        break;
      case TopologyKind::Ring:
        width_ = n_;
        height_ = 1;
        break;
      case TopologyKind::Mesh2D:
      case TopologyKind::Torus2D:
        if (mesh_width == 0) {
            // Most-square factorization: largest divisor <= sqrt(n).
            unsigned w = 1;
            for (unsigned c = 1; c * c <= n_; ++c)
                if (n_ % c == 0)
                    w = c;
            width_ = w;
        } else if (mesh_width <= n_ && n_ % mesh_width == 0) {
            width_ = mesh_width;
        } else {
            throw std::invalid_argument(
                "meshWidth " + std::to_string(mesh_width) +
                " does not divide the node count " + std::to_string(n_) +
                " (use 0 for the most-square factorization)");
        }
        height_ = n_ / width_;
        break;
    }
    coord_.resize(n_);
    for (NodeId node = 0; node < n_; ++node)
        coord_[node] = Coord{unsigned(node) % width_, unsigned(node) / width_};
    if (kind_ != TopologyKind::PointToPoint)
        buildLinkTables();
}

void
TopologyGeometry::buildLinkTables()
{
    firstLink_.reserve(std::size_t(n_) + 1);
    links_.reserve(std::size_t(n_) * 4); // at most 4 per router
    for (NodeId from = 0; from < n_; ++from) {
        firstLink_.push_back(links_.size());
        for (NodeId to : neighbors(from))
            links_.push_back(TopoLink{from, to,
                                      std::uint8_t(linkDim(from, to)),
                                      isWrapLink(from, to)});
    }
    firstLink_.push_back(links_.size());
    if (links_.size() >= noLink)
        throw std::invalid_argument(
            "topology has more links than the 16-bit step tables index (" +
            std::to_string(n_) + " nodes)");

    // axisStep() pins wrap-distance ties toward the increasing
    // coordinate, so every (node, target coordinate) has exactly one
    // productive step per dimension and routes stay deterministic.
    auto step = [this](NodeId cur, Coord next) {
        int l = linkIndex(cur, idOf(next));
        assert(l >= 0 && "a productive step must follow a physical link");
        return std::uint16_t(l);
    };
    stepX_.assign(std::size_t(n_) * width_, noLink);
    stepY_.assign(std::size_t(n_) * height_, noLink);
    for (NodeId cur = 0; cur < n_; ++cur) {
        Coord c = coord_[cur];
        for (unsigned x = 0; x < width_; ++x)
            if (x != c.x)
                stepX_[std::size_t(cur) * width_ + x] =
                    step(cur, Coord{axisStep(c.x, x, width_), c.y});
        for (unsigned y = 0; y < height_; ++y)
            if (y != c.y)
                stepY_[std::size_t(cur) * height_ + y] =
                    step(cur, Coord{c.x, axisStep(c.y, y, height_)});
    }
}

int
TopologyGeometry::linkIndex(NodeId from, NodeId to) const
{
    if (firstLink_.empty())
        return -1;
    for (std::size_t l = firstLink_[from]; l < firstLink_[from + 1]; ++l)
        if (links_[l].to == to)
            return int(l);
    return -1;
}

NodeId
TopologyGeometry::idOf(Coord c) const
{
    assert(c.x < width_ && c.y < height_);
    return NodeId(c.y * width_ + c.x);
}

unsigned
TopologyGeometry::axisDistance(unsigned from, unsigned to,
                               unsigned extent) const
{
    unsigned d = from > to ? from - to : to - from;
    if (wraps())
        d = std::min(d, extent - d);
    return d;
}

unsigned
TopologyGeometry::axisStep(unsigned from, unsigned to, unsigned extent) const
{
    assert(from != to);
    if (!wraps())
        return from < to ? from + 1 : from - 1;
    // Shorter wrap direction; tie broken toward increasing coordinate.
    unsigned fwd = to > from ? to - from : to + extent - from;
    if (fwd <= extent - fwd)
        return from + 1 == extent ? 0 : from + 1;
    return from == 0 ? extent - 1 : from - 1;
}

NodeId
TopologyGeometry::nextHop(NodeId cur, NodeId dst) const
{
    assert(cur != dst && cur < n_ && dst < n_);
    if (kind_ == TopologyKind::PointToPoint)
        return dst;
    return links_[dorLink(cur, dst)].to;
}

std::vector<NodeId>
TopologyGeometry::productiveHops(NodeId cur, NodeId dst) const
{
    assert(cur != dst && cur < n_ && dst < n_);
    if (kind_ == TopologyKind::PointToPoint)
        return {dst};
    std::size_t links[2];
    unsigned n = productiveLinksInto(cur, dst, links);
    std::vector<NodeId> hops;
    for (unsigned i = 0; i < n; ++i)
        hops.push_back(links_[links[i]].to);
    return hops;
}

unsigned
TopologyGeometry::linkDim(NodeId from, NodeId to) const
{
    assert(from < n_ && to < n_ && from != to);
    Coord f = coordOf(from);
    Coord t = coordOf(to);
    assert((f.x != t.x) != (f.y != t.y) && "not a physical link");
    return f.x != t.x ? 0 : 1;
}

bool
TopologyGeometry::isWrapLink(NodeId from, NodeId to) const
{
    if (!wraps())
        return false;
    Coord f = coordOf(from);
    Coord t = coordOf(to);
    // Adjacent coordinates differ by 1 except across the wrap seam.
    unsigned df = f.x > t.x ? f.x - t.x : t.x - f.x;
    unsigned dh = f.y > t.y ? f.y - t.y : t.y - f.y;
    return df > 1 || dh > 1;
}

unsigned
TopologyGeometry::hopCount(NodeId src, NodeId dst) const
{
    assert(src < n_ && dst < n_);
    if (src == dst)
        return 0;
    if (kind_ == TopologyKind::PointToPoint)
        return 1;
    Coord s = coordOf(src);
    Coord d = coordOf(dst);
    return axisDistance(s.x, d.x, width_) + axisDistance(s.y, d.y, height_);
}

std::vector<NodeId>
TopologyGeometry::neighbors(NodeId node) const
{
    assert(node < n_);
    std::vector<NodeId> out;
    if (kind_ == TopologyKind::PointToPoint) {
        for (NodeId o = 0; o < n_; ++o)
            if (o != node)
                out.push_back(o);
        return out;
    }

    Coord c = coordOf(node);
    auto add = [&](Coord nc) {
        NodeId id = idOf(nc);
        if (id != node && std::find(out.begin(), out.end(), id) == out.end())
            out.push_back(id);
    };
    if (wraps()) {
        if (width_ > 1) {
            add(Coord{(c.x + 1) % width_, c.y});
            add(Coord{(c.x + width_ - 1) % width_, c.y});
        }
        if (height_ > 1) {
            add(Coord{c.x, (c.y + 1) % height_});
            add(Coord{c.x, (c.y + height_ - 1) % height_});
        }
    } else {
        if (c.x + 1 < width_)
            add(Coord{c.x + 1, c.y});
        if (c.x > 0)
            add(Coord{c.x - 1, c.y});
        if (c.y + 1 < height_)
            add(Coord{c.x, c.y + 1});
        if (c.y > 0)
            add(Coord{c.x, c.y - 1});
    }
    return out;
}

} // namespace ltp
