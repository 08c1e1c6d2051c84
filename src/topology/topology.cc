#include "topology/topology.hh"

#include "common/log.hh"
#include "common/spec.hh"
#include "topology/mesh.hh"
#include "topology/mixed_torus.hh"
#include "topology/torus.hh"

namespace wormnet
{

unsigned
Topology::distance(NodeId src, NodeId dst) const
{
    MinimalSteps steps;
    minimalSteps(src, dst, steps);
    unsigned total = 0;
    for (unsigned d = 0; d < numDims(); ++d)
        total += steps[d].hops;
    return total;
}

PortId
Topology::linkPort(NodeId src, NodeId dst) const
{
    if (src >= numNodes() || dst >= numNodes())
        return kInvalidPort;
    for (unsigned d = 0; d < numDims(); ++d) {
        for (const bool positive : {true, false}) {
            if (neighbor(src, d, positive) == dst)
                return outPort(d, positive);
        }
    }
    return kInvalidPort;
}

std::unique_ptr<Topology>
makeTopology(const std::string &name, unsigned radix, unsigned dims,
             const std::string &radices)
{
    if (!radices.empty()) {
        if (name != "torus")
            fatal("mixed radices are only supported on tori");
        std::vector<unsigned> parsed;
        for (const std::string &item : splitFields(radices, 'x')) {
            std::uint64_t r = 0;
            if (!tryParseUnsigned(item, ~0u, r))
                fatal("malformed radices spec '", radices,
                      "': expected e.g. \"8x4x2\"");
            parsed.push_back(static_cast<unsigned>(r));
        }
        return std::make_unique<MixedRadixTorus>(std::move(parsed));
    }
    if (name == "torus")
        return std::make_unique<KAryNCube>(radix, dims);
    if (name == "mesh")
        return std::make_unique<KAryNMesh>(radix, dims);
    fatal("unknown topology '", name, "'");
}

} // namespace wormnet
