#include "traffic/pattern.hh"

#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/spec.hh"

namespace wormnet
{

namespace
{

/** log2 of a power of two; fatal() if not a power of two. */
unsigned
exactLog2(NodeId n, const char *what)
{
    unsigned bits = 0;
    NodeId v = n;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    if ((NodeId(1) << bits) != n)
        fatal(what, " requires a power-of-two node count, got ", n);
    return bits;
}

/** Recursively enumerate offsets with L1 norm <= budget. */
void
enumerateOffsets(unsigned dims, unsigned dim, int budget,
                 std::vector<int> &current,
                 std::vector<std::vector<int>> &out)
{
    if (dim == dims) {
        for (const int c : current) {
            if (c != 0) {
                out.push_back(current);
                return;
            }
        }
        return; // all-zero offset: excluded (would be self-traffic)
    }
    for (int v = -budget; v <= budget; ++v) {
        current[dim] = v;
        enumerateOffsets(dims, dim + 1, budget - std::abs(v), current,
                         out);
    }
    current[dim] = 0;
}

} // namespace

UniformPattern::UniformPattern(const Topology &topo)
    : numNodes_(topo.numNodes())
{
    if (numNodes_ < 2)
        fatal("uniform pattern needs at least 2 nodes");
}

NodeId
UniformPattern::destination(NodeId src, Rng &rng)
{
    // Uniform over the other numNodes-1 nodes.
    NodeId dst = static_cast<NodeId>(rng.nextBounded(numNodes_ - 1));
    if (dst >= src)
        ++dst;
    return dst;
}

LocalityPattern::LocalityPattern(const Topology &topo, unsigned radius)
    : topo_(topo), radius_(radius)
{
    if (radius < 1)
        fatal("locality pattern: radius must be >= 1");
    // Keep offsets unambiguous on the torus: the ball must not wrap
    // onto itself in any dimension.
    for (unsigned d = 0; d < topo.numDims(); ++d) {
        if (2 * radius >= topo.radixOf(d))
            fatal("locality pattern: radius ", radius,
                  " too large for radix ", topo.radixOf(d),
                  " in dimension ", d);
    }
    std::vector<int> current(topo.numDims(), 0);
    enumerateOffsets(topo.numDims(), 0, static_cast<int>(radius),
                     current, offsets_);
    WORMNET_ASSERT(!offsets_.empty());
}

NodeId
LocalityPattern::destination(NodeId src, Rng &rng)
{
    const auto &off = offsets_[rng.nextBounded(offsets_.size())];
    NodeId dst = src;
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        const int steps = off[d];
        for (int i = 0; i < std::abs(steps); ++i)
            dst = topo_.neighbor(dst, d, steps > 0);
    }
    return dst;
}

std::string
LocalityPattern::name() const
{
    std::ostringstream os;
    os << "locality(r=" << radius_ << ")";
    return os.str();
}

BitPermutationPattern::BitPermutationPattern(const Topology &topo)
    : bits_(exactLog2(topo.numNodes(), "bit-permutation pattern"))
{
}

NodeId
BitPermutationPattern::destination(NodeId src, Rng &)
{
    return permute(src);
}

NodeId
BitReversalPattern::permute(NodeId src) const
{
    NodeId out = 0;
    for (unsigned b = 0; b < bits_; ++b)
        if (src & (NodeId(1) << b))
            out |= NodeId(1) << (bits_ - 1 - b);
    return out;
}

NodeId
PerfectShufflePattern::permute(NodeId src) const
{
    const NodeId msb = (src >> (bits_ - 1)) & 1u;
    return ((src << 1) | msb) & ((NodeId(1) << bits_) - 1);
}

NodeId
ButterflyPattern::permute(NodeId src) const
{
    if (bits_ < 2)
        return src;
    const NodeId lo = src & 1u;
    const NodeId hi = (src >> (bits_ - 1)) & 1u;
    NodeId out = src & ~((NodeId(1) << (bits_ - 1)) | NodeId(1));
    out |= lo << (bits_ - 1);
    out |= hi;
    return out;
}

NodeId
TransposePattern::permute(NodeId src) const
{
    const unsigned half = bits_ / 2;
    const NodeId lo_mask = (NodeId(1) << half) - 1;
    const NodeId lo = src & lo_mask;
    const NodeId hi = src >> (bits_ - half);
    const NodeId mid =
        src & ~((lo_mask << (bits_ - half)) | lo_mask);
    return (lo << (bits_ - half)) | mid | hi;
}

HotSpotPattern::HotSpotPattern(std::unique_ptr<TrafficPattern> base,
                               NodeId hot_node, double hot_fraction)
    : base_(std::move(base)), hotNode_(hot_node),
      hotFraction_(hot_fraction)
{
    WORMNET_ASSERT(base_ != nullptr);
    if (hot_fraction < 0.0 || hot_fraction > 1.0)
        fatal("hotspot fraction must be in [0,1], got ", hot_fraction);
}

NodeId
HotSpotPattern::destination(NodeId src, Rng &rng)
{
    if (src != hotNode_ && rng.nextBool(hotFraction_))
        return hotNode_;
    return base_->destination(src, rng);
}

std::string
HotSpotPattern::name() const
{
    std::ostringstream os;
    os << "hotspot(" << hotFraction_ * 100 << "% -> node " << hotNode_
       << " over " << base_->name() << ")";
    return os.str();
}

TornadoPattern::TornadoPattern(const Topology &topo) : topo_(topo) {}

NodeId
TornadoPattern::destination(NodeId src, Rng &)
{
    NodeId dst = src;
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        const unsigned shift = (topo_.radixOf(d) - 1) / 2;
        for (unsigned i = 0; i < shift; ++i)
            dst = topo_.neighbor(dst, d, true);
    }
    return dst;
}

std::unique_ptr<TrafficPattern>
makePattern(const std::string &spec, const Topology &topo)
{
    if (spec.empty())
        fatal("empty traffic pattern spec");
    const std::vector<std::string> parts = splitFields(spec, ':');
    const std::string &kind = parts[0];
    rejectSurplusFields(parts,
                        kind == "hotspot"    ? 3
                        : kind == "locality" ? 2
                                             : 1,
                        spec);

    if (kind == "uniform")
        return std::make_unique<UniformPattern>(topo);
    if (kind == "locality") {
        unsigned radius = 3;
        if (parts.size() > 1)
            radius = parseUnsigned<unsigned>(parts[1], "locality radius");
        return std::make_unique<LocalityPattern>(topo, radius);
    }
    if (kind == "bitrev")
        return std::make_unique<BitReversalPattern>(topo);
    if (kind == "shuffle")
        return std::make_unique<PerfectShufflePattern>(topo);
    if (kind == "butterfly")
        return std::make_unique<ButterflyPattern>(topo);
    if (kind == "transpose")
        return std::make_unique<TransposePattern>(topo);
    if (kind == "tornado")
        return std::make_unique<TornadoPattern>(topo);
    if (kind == "hotspot") {
        double frac = 0.05;
        NodeId hot = topo.numNodes() / 2;
        if (parts.size() > 1)
            frac = parseReal(parts[1], "hotspot fraction");
        if (parts.size() > 2)
            hot = parseUnsigned<NodeId>(parts[2], "hotspot node");
        if (hot >= topo.numNodes())
            fatal("hotspot node ", hot, " out of range");
        return std::make_unique<HotSpotPattern>(
            std::make_unique<UniformPattern>(topo), hot, frac);
    }
    fatal("unknown traffic pattern '", spec, "'");
}

} // namespace wormnet
