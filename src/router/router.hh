/**
 * @file
 * Router state container.
 *
 * A Router owns the input-side virtual-channel buffers, the
 * output-side allocation/credit records and the link wiring, matching
 * the paper's router model: a physical channel per network direction
 * split into V virtual channels with private flit buffers, a crossbar
 * that moves at most one flit per output physical channel per cycle,
 * and multi-port injection/ejection ("four-port architecture").
 *
 * The per-cycle algorithms (routing, switch allocation, credit return)
 * live in sim/Network; the Router provides the state plus small
 * invariant-preserving helpers so those algorithms stay readable.
 */

#ifndef WORMNET_ROUTER_ROUTER_HH
#define WORMNET_ROUTER_ROUTER_HH

#include <vector>

#include "common/types.hh"
#include "common/contracts.hh"
#include "router/channel.hh"

namespace wormnet
{

/** Static shape of every router in a network. */
struct RouterParams
{
    unsigned netPorts = 6;  ///< network in/out ports (2 per dim)
    unsigned injPorts = 4;  ///< injection (input) ports
    unsigned ejePorts = 4;  ///< ejection (output) ports
    unsigned vcs = 3;       ///< virtual channels per physical channel
    unsigned bufDepth = 4;  ///< flit buffer depth per virtual channel

    unsigned numInPorts() const { return netPorts + injPorts; }
    unsigned numOutPorts() const { return netPorts + ejePorts; }
};

/** Remote endpoint of a link (invalid for injection/ejection). */
struct LinkEnd
{
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;

    bool valid() const { return node != kInvalidNode; }
};

/**
 * One router's complete state.
 *
 * Since the struct-of-arrays layout change the VC records of every
 * router in a network live in the Network's global VcStore arrays
 * (vc_state.hh); a network-owned Router is a thin view over its
 * node-sized slice, so detectors, recovery managers, the oracle and
 * checkpoint code keep programming against the same API while the
 * per-cycle sweeps walk dense contiguous memory. A Router constructed
 * standalone (unit tests, tools) owns private backing vectors with
 * identical semantics.
 */
class Router
{
  public:
    /** Standalone router owning its VC storage. */
    Router(NodeId node, const RouterParams &params);

    /** View over externally owned VC arrays (VcStore slices); @p in
     *  and @p out must stay valid for the router's lifetime. */
    Router(NodeId node, const RouterParams &params, InputVc *in,
           OutputVc *out);

    NodeId nodeId() const { return node_; }
    const RouterParams &params() const { return params_; }

    unsigned numInPorts() const { return params_.numInPorts(); }
    unsigned numOutPorts() const { return params_.numOutPorts(); }
    unsigned numVcs() const { return params_.vcs; }

    /** Input ports >= netPorts are injection ports. */
    bool
    isInjectionPort(PortId in_port) const
    {
        return in_port >= params_.netPorts;
    }

    /** Output ports >= netPorts are ejection ports. */
    bool
    isEjectionPort(PortId out_port) const
    {
        return out_port >= params_.netPorts;
    }

    InputVc &
    inputVc(PortId port, VcId vc)
    {
        WORMNET_ASSERT(port < numInPorts() && vc < params_.vcs);
        return in_[port * params_.vcs + vc];
    }

    const InputVc &
    inputVc(PortId port, VcId vc) const
    {
        WORMNET_ASSERT(port < numInPorts() && vc < params_.vcs);
        return in_[port * params_.vcs + vc];
    }

    OutputVc &
    outputVc(PortId port, VcId vc)
    {
        WORMNET_ASSERT(port < numOutPorts() && vc < params_.vcs);
        return out_[port * params_.vcs + vc];
    }

    const OutputVc &
    outputVc(PortId port, VcId vc) const
    {
        WORMNET_ASSERT(port < numOutPorts() && vc < params_.vcs);
        return out_[port * params_.vcs + vc];
    }

    /** @name Raw slice access (hot-path sweeps in sim/Network). */
    /// @{
    InputVc *inputVcs() { return in_; }
    const InputVc *inputVcs() const { return in_; }
    OutputVc *outputVcs() { return out_; }
    const OutputVc *outputVcs() const { return out_; }
    /// @}

    /** All virtual channels of input physical channel @p port busy? */
    bool inputPcFullyBusy(PortId port) const;

    /** @name Link wiring, set once by the Network. */
    /// @{
    LinkEnd &downstream(PortId out_port) { return down_[out_port]; }
    const LinkEnd &
    downstream(PortId out_port) const
    {
        return down_[out_port];
    }

    LinkEnd &upstream(PortId in_port) { return up_[in_port]; }
    const LinkEnd &
    upstream(PortId in_port) const
    {
        return up_[in_port];
    }
    /// @}

    /** @name Per-output-port dynamic state. */
    /// @{
    Cycle lastTx(PortId out_port) const { return lastTx_[out_port]; }
    void
    noteTx(PortId out_port, Cycle now)
    {
        lastTx_[out_port] = now;
    }
    /// @}

    /** @name Arbitration state (round-robin pointers). */
    /// @{
    /** Per-output-port pointer for switch allocation fairness. */
    std::vector<unsigned> saRoundRobin;
    /** Per-injection-port pointer for VC refill fairness. */
    std::vector<unsigned> injRoundRobin;
    /// @}

    /**
     * Checkpoint support: dynamic state only. Link wiring (down_/up_)
     * is topology-derived and rebuilt by the Network constructor.
     */
    template <typename S>
    void
    saveState(S &s) const
    {
        const unsigned ins = numInPorts() * params_.vcs;
        const unsigned outs = numOutPorts() * params_.vcs;
        for (unsigned i = 0; i < ins; ++i)
            in_[i].saveState(s);
        for (unsigned i = 0; i < outs; ++i)
            out_[i].saveState(s);
        for (const Cycle c : lastTx_)
            s.u64(c);
        for (const unsigned r : saRoundRobin)
            s.u32(r);
        for (const unsigned r : injRoundRobin)
            s.u32(r);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        const unsigned ins = numInPorts() * params_.vcs;
        const unsigned outs = numOutPorts() * params_.vcs;
        for (unsigned i = 0; i < ins; ++i)
            in_[i].loadState(d);
        for (unsigned i = 0; i < outs; ++i)
            out_[i].loadState(d);
        for (Cycle &c : lastTx_)
            c = d.u64();
        for (unsigned &r : saRoundRobin)
            r = d.u32();
        for (unsigned &r : injRoundRobin)
            r = d.u32();
    }

  private:
    /** Shared post-construction wiring (link ends, arbitration). */
    void initCommon();

    NodeId node_;
    RouterParams params_;
    /** Views into the backing VC arrays: a VcStore slice for
     *  network-owned routers, ownIn_/ownOut_ for standalone ones. */
    InputVc *in_ = nullptr;
    OutputVc *out_ = nullptr;
    std::vector<InputVc> ownIn_;
    std::vector<OutputVc> ownOut_;
    std::vector<LinkEnd> down_;
    std::vector<LinkEnd> up_;
    std::vector<Cycle> lastTx_;
};

} // namespace wormnet

#endif // WORMNET_ROUTER_ROUTER_HH
