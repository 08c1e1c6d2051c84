/**
 * @file
 * Fault injection for links and routers.
 *
 * The paper's detection heuristics assume every physical channel can
 * eventually transmit; a failed link would make its inactivity
 * counter grow without bound and turn every message routed toward it
 * into a false presumed deadlock. The FaultModel hardens the
 * simulator against exactly that: it fails individual links or whole
 * routers, either on a deterministic schedule or stochastically, and
 * (optionally) repairs them after a fixed delay — in the spirit of
 * dynamic-reconfiguration schemes (DBR) and detection mechanisms that
 * must stay sound in lossy data planes (DCFIT).
 *
 * A faulted link transmits no flits (its credit wire survives); a
 * faulted router fails every incident link and stops generating
 * traffic; worms stranded across a failing link are killed and
 * re-queued at their source with bounded retries. docs/MECHANISMS.md
 * ("Fault model") spells out the semantics.
 *
 * Spec grammar (comma-separated items, see parseSpec):
 *    link:<src>><dst>@<cycle>   fail the src->dst link at <cycle>
 *    router:<node>@<cycle>      fail the whole router at <cycle>
 *    rate:<p>                   each healthy link fails independently
 *                               with probability p per cycle
 */

#ifndef WORMNET_FAULT_FAULT_HH
#define WORMNET_FAULT_FAULT_HH

#include <queue>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "fault/dead_set.hh"
#include "router/router.hh"
#include "topology/topology.hh"

namespace wormnet
{

/** One scheduled (deterministic) fault. */
struct ScheduledFault
{
    enum class Kind : std::uint8_t
    {
        Link,
        Router,
    };

    Kind kind = Kind::Link;
    NodeId node = kInvalidNode; ///< link source, or the router
    NodeId peer = kInvalidNode; ///< link destination (links only)
    Cycle at = 0;               ///< activation cycle
};

/** Configuration for a FaultModel. */
struct FaultParams
{
    /** Deterministic fault schedule (may be empty). */
    std::vector<ScheduledFault> schedule;

    /** Per-link per-cycle failure probability (0 disables). */
    double linkRate = 0.0;

    /** Cycles until a fault self-repairs (0 = permanent). */
    Cycle repairDelay = 0;
};

/**
 * The out-port of scheduled link fault @p f on @p topo, or
 * kInvalidPort for a router fault. fatal() when @p f names a node or
 * link @p topo lacks. Shared by FaultModel::init() and the static
 * analyzer's resolveFaults().
 */
PortId resolveFault(const Topology &topo, const ScheduledFault &f);

/**
 * Tracks which links and routers are currently faulted and advances
 * that state one cycle at a time. Owned by the Simulation (or a
 * test), attached to the Network, which queries it every cycle.
 *
 * The fault state is a DeadSet, so overlapping causes (a scheduled
 * link fault on a link also covered by a router fault) compose and
 * repair independently.
 */
class FaultModel
{
  public:
    explicit FaultModel(const FaultParams &params);

    /**
     * Parse a "--faults" spec string into FaultParams. fatal() with a
     * usage hint on any malformed item (note repairDelay is not part
     * of the spec; it comes from --fault-repair).
     */
    static FaultParams parseSpec(const std::string &spec);

    /**
     * Resolve the schedule against a concrete topology and seed the
     * stochastic stream. fatal() when a scheduled link does not exist.
     * Called by Network::attachFaultModel().
     */
    void init(const Topology &topo, const RouterParams &params,
              std::uint64_t seed);

    /**
     * Advance to cycle @p now: activate due scheduled faults, draw
     * stochastic link faults, apply due repairs.
     * @return which ways links flipped (a router flip alone, with all
     *         its links already down for other causes, is none).
     */
    LinkFlips tick(Cycle now);

    /** Links and routers faulted right now. */
    const DeadSet &dead() const { return dead_; }

    /** @name Lifetime fault counters. */
    /// @{
    std::uint64_t faultsInjected() const { return injected_; }
    std::uint64_t faultsRepaired() const { return repaired_; }
    /// @}

    /** @name Checkpoint support. schedule_ is rebuilt by init() (it
     *  is config-derived); everything that evolves is written. */
    /// @{
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);
    /// @}

  private:
    /** A pending self-repair. */
    struct Repair
    {
        Cycle when = 0;
        ScheduledFault::Kind kind = ScheduledFault::Kind::Link;
        NodeId node = kInvalidNode;
        PortId outPort = kInvalidPort; ///< links only

        bool operator>(const Repair &o) const
        {
            return when > o.when;
        }
    };

    /** Inject one fault of @p kind (links: leaving @p node through
     *  @p out_port) and queue its repair. */
    LinkFlips fail(ScheduledFault::Kind kind, NodeId node,
                   PortId out_port, Cycle now);

    FaultParams params_;
    const Topology *topo_ = nullptr;
    Rng rng_;

    /** The schedule, validated against the topology and ordered by
     *  cycle. */
    std::vector<ScheduledFault> schedule_;
    std::size_t nextScheduled_ = 0;

    DeadSet dead_;

    std::priority_queue<Repair, std::vector<Repair>,
                        std::greater<Repair>>
        repairs_;

    std::uint64_t injected_ = 0;
    std::uint64_t repaired_ = 0;
};

} // namespace wormnet

#endif // WORMNET_FAULT_FAULT_HH
