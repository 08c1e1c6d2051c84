/**
 * @file
 * Online topology reconfiguration.
 *
 * A ReconfigPlan is a timed sequence of administrative edits applied
 * to a *live* network — no drain, no barrier: traffic keeps flowing
 * while links are removed or restored, routers are taken out of
 * service for maintenance, and the routing function itself is swapped
 * (cf. the Double-Scheme and partial-progressive reconfiguration
 * lines of work). All edits scheduled for one cycle form an *epoch*
 * and are applied atomically between two simulator steps.
 *
 * Admin removals and drains are causes in the manager's own DeadSet,
 * composing with (but counted apart from) the FaultModel's; a removal
 * strands, kills and re-routes worms through the path a fault flip
 * uses, and a routing switch re-presents every blocked head to the
 * new relation as a fresh first attempt. After each epoch the manager
 * records how the transient resolved and, with cross-checking on, the
 * static verdict on the post-epoch configuration. docs/MECHANISMS.md
 * ("Reconfiguration epochs") spells out the semantics.
 *
 * Plan grammar (comma-separated items, see ReconfigPlan::parse):
 *    link-:<a>><b>@<cycle>     remove the a->b link at <cycle>
 *    link+:<a>><b>@<cycle>     restore a previously removed link
 *    router-:<n>@<cycle>       drain router n (and incident links)
 *    router+:<n>@<cycle>       restore router n
 *    routing:<name>@<cycle>    switch to routing function <name>
 *                              (tfa | dor | duato | westfirst)
 */

#ifndef WORMNET_SIM_RECONFIG_HH
#define WORMNET_SIM_RECONFIG_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/cdg.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "fault/dead_set.hh"
#include "router/router.hh"
#include "routing/routing.hh"
#include "topology/topology.hh"

namespace wormnet
{

class Network;

/** One administrative edit of a reconfiguration plan. */
struct ReconfigEdit
{
    enum class Kind : std::uint8_t
    {
        LinkDown,      ///< remove one directed link
        LinkUp,        ///< restore one directed link
        RouterDrain,   ///< take a router out of service
        RouterRestore, ///< return a drained router to service
        RoutingSwitch, ///< swap the routing function
    };

    Kind kind = Kind::LinkDown;
    NodeId node = kInvalidNode;  ///< link source, or the router
    NodeId peer = kInvalidNode;  ///< link destination (links only)
    std::string routingSpec;     ///< RoutingSwitch only
    Cycle at = 0;                ///< activation cycle
};

/** A parsed plan: edits stable-sorted by activation cycle. */
struct ReconfigPlan
{
    std::vector<ReconfigEdit> edits;

    bool empty() const { return edits.empty(); }

    /**
     * Parse a "--reconfig" spec string (grammar in the file header).
     * fatal() with a usage hint on any malformed item. Validation
     * against a concrete topology (does the link exist, do restores
     * balance removals) happens at ReconfigManager::bind() or
     * analyzePlanStatic().
     */
    static ReconfigPlan parse(const std::string &spec);
};

/** How one applied epoch played out at runtime. */
struct EpochRecord
{
    Cycle cycle = 0;      ///< activation cycle
    unsigned edits = 0;   ///< edits applied in this epoch

    /** Routing function in force after the epoch. */
    std::string routingAfter;

    /** Static analyzer verdict on the post-epoch configuration
     *  (empty when cross-checking is disabled). */
    std::string staticVerdict;

    /** @name Transient bookkeeping. */
    /// @{
    std::uint64_t killed = 0;    ///< worms killed by this epoch
    std::uint64_t rerouted = 0;  ///< heads backed off removed links
    /** Of the killed worms: delivered after re-injection so far. */
    std::uint64_t redelivered = 0;
    /** Of the killed worms: abandoned (retry budget exhausted). */
    std::uint64_t abandonedOfKilled = 0;
    /** First cycle at which every killed worm reached a terminal
     *  state (delivered or abandoned); kNever while outstanding. */
    Cycle settleCycle = kNever;
    /// @}

    /** @name Detection health snapshot at apply time. */
    /// @{
    std::uint64_t detectionsAtApply = 0; ///< lifetime verdicts so far
    std::uint64_t falseAtApply = 0;      ///< windowed false detections
    /** Oracle-confirmed deadlocked messages present at apply. */
    std::uint64_t oracleDeadlockedAtApply = 0;
    /// @}

    bool settled() const { return settleCycle != kNever; }
};

/** Static analyzer result for one epoch of a plan. */
struct EpochStaticResult
{
    Cycle cycle = 0;      ///< epoch activation cycle
    unsigned edits = 0;   ///< edits in this epoch
    std::string routing;  ///< routing in force after the epoch
    CdgFaults dead;       ///< dead links and routers analyzed
    CdgReport report;     ///< full static analysis of the config
};

/**
 * Offline what-if analysis of a reconfiguration plan: fold each
 * epoch's edits into the admin dead-resource state, and run the
 * static channel-dependency analyzer on every post-epoch
 * configuration (epoch 0 entry = the initial configuration before
 * any edit). Shares the replay with ReconfigManager::bind(), so
 * `wormnet-analyze --reconfig` and the live cross-check can never
 * diverge on what a plan means. fatal() on plans that reference
 * missing links/nodes or unbalance restores.
 *
 * @param base static faults merged into every epoch (from --faults).
 */
std::vector<EpochStaticResult>
analyzePlanStatic(const ReconfigPlan &plan, const Topology &topo,
                  const RouterParams &params,
                  const std::string &initial_routing,
                  const CdgFaults &base = {});

/**
 * Applies a ReconfigPlan to a live Network and records per-epoch
 * outcome. Owned by the Simulation (or a test), attached via
 * Network::attachReconfig(), ticked once per cycle right after the
 * fault model.
 *
 * Admin removals live in the manager's own DeadSet (an explicit
 * link- plus an overlapping router drain compose and restore
 * independently), apart from the FaultModel's.
 */
class ReconfigManager
{
  public:
    /**
     * @param plan the parsed edit plan
     * @param cross_check run the static CDG analyzer on every
     *        post-epoch configuration and record the verdict
     */
    explicit ReconfigManager(ReconfigPlan plan,
                             bool cross_check = true);

    /**
     * Resolve the plan against @p net's topology and replay it
     * through a scratch DeadSet (fatal on a restore without a
     * matching removal), and pre-construct every routing function
     * the plan switches to. Called by Network::attachReconfig().
     */
    void bind(Network &net);

    /**
     * Advance to cycle @p now: apply due epochs through the
     * stranded-worm machinery, then update the settle bookkeeping of
     * every epoch with outstanding killed worms.
     */
    void tick(Cycle now);

    /** Links admin-removed and routers drained right now (queried
     *  by the Network). */
    const DeadSet &dead() const { return dead_; }

    /** @name Progress. */
    /// @{
    /** Epochs applied so far (records grow as epochs fire). */
    const std::vector<EpochRecord> &epochs() const
    {
        return records_;
    }

    /** Every epoch has been applied. */
    bool planExhausted() const { return nextEdit_ >= plan_.edits.size(); }

    /** Every epoch applied and every killed worm terminal. */
    bool settled() const;
    /// @}

    /** @name Checkpoint support. The plan itself is config (rebuilt
     *  by bind()); admin counts, applied-epoch records and the
     *  outstanding killed-worm lists are written. The active routing
     *  function is re-installed on the network during loadState(). */
    /// @{
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);
    /// @}

  private:
    /** Apply every due epoch at cycle @p now. */
    void applyDueEpochs(Cycle now);

    /** Classify outstanding killed worms of unsettled epochs. */
    void updateSettle(Cycle now);

    /** Static cross-check of the current live configuration. */
    std::string crossCheckNow() const;

    ReconfigPlan plan_;
    bool crossCheck_;

    Network *net_ = nullptr;
    const Topology *topo_ = nullptr;

    /** Per plan edit: the link's out-port (kInvalidPort otherwise). */
    std::vector<PortId> linkPorts_;
    std::size_t nextEdit_ = 0;

    /** Routing functions the plan switches to, pre-built at bind().
     *  Old functions are kept alive: granted paths may still be
     *  inspected, and checkpoints index into this vector. */
    std::vector<std::unique_ptr<RoutingFunction>> routings_;
    /** Active function: -1 = the network's construction-time one;
     *  each switch applied moves to the next one. */
    std::int32_t currentRouting_ = -1;

    /** Admin removals and drains in force. */
    DeadSet dead_;

    /** One record per applied epoch, in application order. */
    std::vector<EpochRecord> records_;
    /** Per applied epoch: killed worms not yet terminal. */
    std::vector<std::vector<MsgId>> pending_;
};

} // namespace wormnet

#endif // WORMNET_SIM_RECONFIG_HH
