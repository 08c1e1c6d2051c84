#include "fault/dead_set.hh"

#include <algorithm>
#include <limits>

#include "common/contracts.hh"
#include "common/log.hh"

namespace wormnet
{

namespace
{

/**
 * Apply @p delta (+1 or -1) to one cause count; fatal() when that
 * would take it past 255 or below 0, naming the resource by @p what().
 * @return true when the count crossed zero (the resource flipped),
 *         which also moves @p active by @p delta.
 */
template <typename Describe>
bool
applyDelta(std::uint8_t &count, int delta, std::size_t &active,
           Describe what)
{
    WORMNET_ASSERT(delta == 1 || delta == -1);
    constexpr unsigned kMax = std::numeric_limits<std::uint8_t>::max();
    if (delta > 0 && count == kMax)
        fatal(what(), ": more than ", kMax, " causes would hold it down");
    if (delta < 0 && count == 0)
        fatal(what(), ": released with no cause holding it down");
    count = static_cast<std::uint8_t>(count + delta);
    if (count != (delta > 0 ? 1 : 0))
        return false;
    if (delta > 0)
        ++active;
    else
        --active;
    return true;
}

} // namespace

DeadSet::DeadSet(const Topology &topo)
    : topo_(&topo), netPorts_(topo.numNetPorts()),
      linkCount_(std::size_t(topo.numNodes()) * netPorts_, 0),
      outMask_(topo.numNodes(), 0), routerCount_(topo.numNodes(), 0)
{
}

LinkFlips
DeadSet::addLink(NodeId node, PortId out_port, int delta)
{
    const auto what = [&] {
        return log_detail::concat(
            "link ", node, ">",
            topo_->neighbor(node, Topology::dimOfPort(out_port),
                            Topology::isPositivePort(out_port)));
    };
    if (!applyDelta(linkCount_[std::size_t(node) * netPorts_ + out_port],
                    delta, activeLinks_, what))
        return {};
    outMask_[node] ^= PortMask(1) << out_port;
    return LinkFlips{delta > 0, delta < 0};
}

LinkFlips
DeadSet::addRouter(NodeId node, int delta)
{
    applyDelta(routerCount_[node], delta, activeRouters_,
               [&] { return log_detail::concat("router ", node); });
    LinkFlips flips;
    for (unsigned d = 0; d < topo_->numDims(); ++d) {
        for (const bool positive : {true, false}) {
            const NodeId peer = topo_->neighbor(node, d, positive);
            if (peer == kInvalidNode)
                continue; // mesh edge
            const PortId q = Topology::outPort(d, positive);
            flips |= addLink(node, q, delta);
            flips |= addLink(peer, Topology::peerInPort(q), delta);
        }
    }
    return flips;
}

void
DeadSet::saveLinkCounts(Serializer &s) const
{
    for (const std::uint8_t c : linkCount_)
        s.u8(c);
}

void
DeadSet::loadLinkCounts(Deserializer &d)
{
    std::fill(outMask_.begin(), outMask_.end(), 0);
    activeLinks_ = 0;
    for (std::size_t i = 0; i < linkCount_.size(); ++i) {
        linkCount_[i] = d.u8();
        if (linkCount_[i] != 0) {
            outMask_[i / netPorts_] |= PortMask(1) << (i % netPorts_);
            ++activeLinks_;
        }
    }
}

void
DeadSet::saveRouterCounts(Serializer &s) const
{
    for (const std::uint8_t c : routerCount_)
        s.u8(c);
}

void
DeadSet::loadRouterCounts(Deserializer &d)
{
    activeRouters_ = 0;
    for (std::uint8_t &c : routerCount_) {
        c = d.u8();
        activeRouters_ += c != 0;
    }
}

} // namespace wormnet
