/**
 * @file
 * Topology abstraction for direct networks.
 *
 * A topology maps dense node ids onto a coordinate space and defines
 * the wiring between routers. Network ports follow a fixed convention
 * shared with the router and routing libraries:
 *
 *   network port index = 2 * dim + (0 for the "+" direction,
 *                                   1 for the "-" direction)
 *
 * so a router has 2*numDims() network ports, in both its input and its
 * output port spaces. The output port (d,+) of node X is wired to the
 * input port (d,-) of X's positive neighbour in dimension d, i.e. input
 * ports are named after the direction the link *came from* the remote
 * side. Injection/ejection ports are appended after the network ports
 * by the Network itself and are not a topology concern.
 */

#ifndef WORMNET_TOPOLOGY_TOPOLOGY_HH
#define WORMNET_TOPOLOGY_TOPOLOGY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace wormnet
{

/** Upper bound on dimensions; keeps per-message step arrays inline. */
inline constexpr unsigned kMaxDims = 8;

/**
 * Minimal-path step options in one dimension: which directions are
 * productive (minimal) and how many hops remain in this dimension.
 */
struct DimStep
{
    /** Bit 0: "+" direction productive; bit 1: "-" productive. */
    std::uint8_t dirMask = 0;
    /** Remaining hops in this dimension along a minimal path. */
    std::uint16_t hops = 0;
};

/** Per-dimension minimal-direction summary for a (src, dst) pair. */
using MinimalSteps = std::array<DimStep, kMaxDims>;

/** Abstract direct-network topology. */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Total number of nodes (== routers). */
    virtual NodeId numNodes() const = 0;

    /** Number of dimensions. */
    virtual unsigned numDims() const = 0;

    /** Nodes per dimension (largest radix for mixed-radix shapes;
     *  uniform topologies return their single radix). */
    virtual unsigned radix() const = 0;

    /** Nodes along dimension @p dim (defaults to the uniform radix;
     *  mixed-radix topologies override). */
    virtual unsigned
    radixOf(unsigned dim) const
    {
        (void)dim;
        return radix();
    }

    /** Network ports per router (2 per dimension). */
    unsigned numNetPorts() const { return 2 * numDims(); }

    /** Coordinate of @p node in dimension @p dim. */
    virtual unsigned coordinate(NodeId node, unsigned dim) const = 0;

    /**
     * Neighbour of @p node in dimension @p dim, direction @p positive.
     * @return kInvalidNode when the link does not exist (mesh edges).
     */
    virtual NodeId neighbor(NodeId node, unsigned dim,
                            bool positive) const = 0;

    /**
     * Fill @p steps with the minimal-direction options from @p src
     * toward @p dst (entries past numDims() are left zeroed).
     */
    virtual void minimalSteps(NodeId src, NodeId dst,
                              MinimalSteps &steps) const = 0;

    /** Minimal hop distance between two nodes. */
    unsigned distance(NodeId src, NodeId dst) const;

    /**
     * Output port of @p src whose link leads to @p dst (dimensions in
     * order, "+" before "-"), or kInvalidPort when no link joins them
     * or either id is outside the topology. The one place a link is
     * mapped to a port.
     */
    PortId linkPort(NodeId src, NodeId dst) const;

    /** True when the topology has wraparound links (torus). Routing
     *  functions use this to decide whether dateline virtual-channel
     *  classes are needed for deadlock-free escape paths. */
    virtual bool wraparound() const = 0;

    /** Human-readable description, e.g. "8-ary 3-cube (torus)". */
    virtual std::string name() const = 0;

    /** Output port index for (dim, direction). */
    static PortId
    outPort(unsigned dim, bool positive)
    {
        return static_cast<PortId>(2 * dim + (positive ? 0 : 1));
    }

    /** Dimension of a network port index. */
    static unsigned dimOfPort(PortId port) { return port / 2; }

    /** True iff the network port points in the "+" direction. */
    static bool isPositivePort(PortId port) { return (port % 2) == 0; }

    /**
     * Input port on the receiving router for a link leaving through
     * output port @p out_port: the opposite direction in the same
     * dimension.
     */
    static PortId
    peerInPort(PortId out_port)
    {
        return static_cast<PortId>(out_port ^ 1u);
    }
};

/**
 * Build a topology from a declarative description:
 *   name     "torus" | "mesh"
 *   radix    nodes per dimension
 *   dims     number of dimensions
 *   radices  mixed-radix override such as "8x4x2" (torus only);
 *            when non-empty it supersedes radix/dims.
 * fatal() on unknown names, malformed radices or mixed-radix meshes.
 * Shared by the Simulation facade and the wormnet-analyze CLI so
 * both accept the same configuration surface.
 */
std::unique_ptr<Topology>
makeTopology(const std::string &name, unsigned radix, unsigned dims,
             const std::string &radices = "");

} // namespace wormnet

#endif // WORMNET_TOPOLOGY_TOPOLOGY_HH
