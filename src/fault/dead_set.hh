/**
 * @file
 * The one record of which links and routers are out of service.
 *
 * A directed link is down while at least one cause (a link fault, an
 * admin removal, an outage of either router it joins) holds it down;
 * overlapping causes compose and release independently. addRouter()
 * is the only code that expands a router into its links, so the live
 * network, the reconfiguration dry run and the static analyzer cannot
 * disagree on what an outage takes out. The FaultModel and the
 * ReconfigManager each own one, so each releases only its own causes.
 * Counts are one byte each (the checkpoint layout): a 256th cause, or
 * releasing one nothing holds, is fatal. See docs/MECHANISMS.md.
 */

#ifndef WORMNET_FAULT_DEAD_SET_HH
#define WORMNET_FAULT_DEAD_SET_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"
#include "topology/topology.hh"

namespace wormnet
{

/** Which way links flipped during one update (both may be set). */
struct LinkFlips
{
    bool down = false; ///< some link went from live to dead
    bool up = false;   ///< some link came back

    LinkFlips &
    operator|=(LinkFlips o)
    {
        down |= o.down;
        up |= o.up;
        return *this;
    }

    bool any() const { return down || up; }
};

/** Cause-counted dead links and routers of one topology. */
class DeadSet
{
  public:
    DeadSet() = default;

    /** Everything live on @p topo (which must outlive the set). */
    explicit DeadSet(const Topology &topo);

    /** Add (+1) or release (-1) one cause holding the link that
     *  leaves @p node through network port @p out_port down. */
    LinkFlips addLink(NodeId node, PortId out_port, int delta);

    /** Add (+1) or release (-1) one outage of router @p node, which
     *  holds each of its incident links down in both directions
     *  (mesh edges have fewer). */
    LinkFlips addRouter(NodeId node, int delta);

    /** Bitmask of dead network output ports of @p node. */
    PortMask outMask(NodeId node) const { return outMask_[node]; }

    bool
    linkDown(NodeId node, PortId out_port) const
    {
        return (outMask_[node] >> out_port) & 1u;
    }

    bool routerDown(NodeId node) const { return routerCount_[node] != 0; }

    NodeId numNodes() const { return NodeId(outMask_.size()); }

    /** Dead links right now (each direction counts separately). */
    std::size_t activeLinks() const { return activeLinks_; }

    /** Routers out of service right now. */
    std::size_t activeRouters() const { return activeRouters_; }

    /** @name Checkpoint support. Only the counts are state (a byte
     *  per link, then a byte per router); loading recomputes the
     *  masks and the active totals from them. */
    /// @{
    std::size_t numLinkCounts() const { return linkCount_.size(); }
    void saveLinkCounts(Serializer &s) const;
    void loadLinkCounts(Deserializer &d);
    void saveRouterCounts(Serializer &s) const;
    void loadRouterCounts(Deserializer &d);
    /// @}

  private:
    const Topology *topo_ = nullptr;
    unsigned netPorts_ = 0;

    /** Per (node, network out port): causes holding the link down. */
    std::vector<std::uint8_t> linkCount_;
    /** Per node: bitmask of links with a nonzero count. */
    std::vector<PortMask> outMask_;
    /** Per node: outages holding the router down. */
    std::vector<std::uint8_t> routerCount_;

    std::size_t activeLinks_ = 0;
    std::size_t activeRouters_ = 0;
};

} // namespace wormnet

#endif // WORMNET_FAULT_DEAD_SET_HH
