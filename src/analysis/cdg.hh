/**
 * @file
 * Static channel-dependency-graph (CDG) analysis.
 *
 * Given any configuration the simulator accepts — topology, routing
 * function, virtual-channel layout, injected faults — this module
 * builds the *extended channel-dependency graph* offline and decides,
 * from first principles, whether the configuration can deadlock at
 * all (cf. Dally & Seitz; Duato; and the formalisations in
 * arXiv:1110.4677 and arXiv:2101.06015):
 *
 *  - A CDG vertex is one network virtual channel: the (link, VC)
 *    pair entering router `node` through network input port
 *    `in_port`.
 *  - A CDG edge c1 -> c2 exists when a worm whose header occupies c1
 *    can request c2 next. Edges are *realizable*: they are collected
 *    by forward-propagating (channel, destination) states from every
 *    injection, so a dependency that no actually-routed message can
 *    exercise (e.g. the wrong side of a dateline class) is never
 *    added. This per-destination reachability is what lets the
 *    analyzer prove dateline-based dimension-order routing on tori
 *    deadlock-free.
 *
 * Verdicts:
 *  - DeadlockFree: the full CDG is acyclic. No reachable
 *    configuration of blocked worms can form a wait cycle, for any
 *    traffic — a proof, not a heuristic.
 *  - DeadlockFreeEscape: the full CDG is cyclic, but the routing
 *    function's escape layer (RoutingFunction::escapeVcCount())
 *    satisfies Duato's condition: every reachable blocked state
 *    offers an escape candidate, and the escape layer's extended
 *    CDG — direct escape->escape dependencies plus indirect ones
 *    through adaptive channels — is acyclic.
 *  - CyclicDependencies: cycles survive the escape analysis. This
 *    does NOT prove a deadlock will occur (cyclic dependencies are
 *    necessary, not sufficient), but every dynamic deadlock the
 *    ground-truth oracle can ever report must lie inside one of
 *    these cycles; a minimal cyclic witness is enumerated.
 *
 * The simulator cross-links against this module in
 * tests/test_cdg_cross_check.cpp: oracle-confirmed deadlocks are
 * asserted to sit on statically reachable cycles, and statically
 * acyclic configurations are asserted to never deadlock dynamically.
 */

#ifndef WORMNET_ANALYSIS_CDG_HH
#define WORMNET_ANALYSIS_CDG_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"
#include "router/router.hh"
#include "routing/routing.hh"
#include "topology/topology.hh"

namespace wormnet
{

/** Dense id of one network virtual channel in the CDG. */
using ChanId = std::uint32_t;

/** Sentinel: "no channel" (nonexistent link, injection port, ...). */
inline constexpr ChanId kInvalidChan =
    std::numeric_limits<ChanId>::max();

/** Outcome of the static analysis. */
enum class CdgVerdict : std::uint8_t
{
    /** Full CDG acyclic: provably deadlock-free. */
    DeadlockFree,
    /** Cyclic, but the escape layer satisfies Duato's condition. */
    DeadlockFreeEscape,
    /** Cyclic dependencies survive: deadlock possible. */
    CyclicDependencies,
};

/** Human-readable verdict name (used in reports and the CLI). */
std::string toString(CdgVerdict verdict);

/** Static fault state applied to the graph before analysis. */
struct CdgFaults
{
    /** Per-node bitmask of faulted *network output* ports; empty
     *  means fault-free. */
    std::vector<PortMask> faultyOut;
    /** Per-node flag: the whole router is failed (never a source,
     *  destination or transit node). Empty means none. */
    std::vector<std::uint8_t> faultyRouter;

    bool
    empty() const
    {
        return faultyOut.empty() && faultyRouter.empty();
    }

    /** Also mark everything @p dead holds down (sizing this to its
     *  topology first). The one way a live or replayed DeadSet
     *  becomes the analyzer's view. */
    void add(const DeadSet &dead);
};

/**
 * Resolve a FaultModel spec into the static fault state the analyzer
 * uses: every *scheduled* link/router fault is applied regardless of
 * its activation cycle (the analysis asks "can this configuration
 * deadlock while these faults are active"). Stochastic rate faults
 * and self-repair delays have no static meaning and produce a
 * warn(). fatal() when a scheduled link does not exist.
 */
CdgFaults resolveFaults(const Topology &topo,
                        const RouterParams &params,
                        const FaultParams &faults);

/** Headline numbers and witnesses of one analysis. */
struct CdgReport
{
    CdgVerdict verdict = CdgVerdict::DeadlockFree;

    /** @name Graph shape. */
    /// @{
    std::size_t channels = 0;    ///< existing network VCs
    std::size_t reachable = 0;   ///< reachable from some injection
    std::size_t edges = 0;       ///< realizable dependencies
    /// @}

    /** @name Strongly connected components of the full CDG. */
    /// @{
    std::size_t sccCount = 0;       ///< over reachable channels
    std::size_t cyclicSccCount = 0; ///< non-trivial or self-loop
    std::size_t largestScc = 0;
    /// @}

    /** @name Escape-layer (Duato condition) analysis. */
    /// @{
    unsigned escapeVcs = 0;      ///< VCs in the escape layer
    bool escapeDistinct = false; ///< escape layer != whole function
    bool escapeConnected = true; ///< every blocked state offers escape
    bool escapeAcyclic = true;   ///< extended escape CDG acyclic
    std::size_t escapeEdges = 0; ///< extended escape dependencies
    /// @}

    /**
     * Minimal cyclic witness: a shortest realizable dependency cycle
     * (witness[i] depends on witness[(i+1) % size]). Empty when the
     * verdict proves deadlock-freedom outright; for
     * DeadlockFreeEscape it holds a (harmless) adaptive-layer cycle.
     */
    std::vector<ChanId> witness;

    /** Shortest cycle of the extended escape CDG, when cyclic. */
    std::vector<ChanId> escapeWitness;
};

/**
 * The static channel-dependency graph of one configuration.
 *
 * Construction runs the whole analysis eagerly (build, SCC, escape
 * pass, witness search); the object is immutable afterwards. All
 * referenced components are kept by reference and must outlive the
 * graph.
 */
class ChannelDepGraph
{
  public:
    ChannelDepGraph(const Topology &topo,
                    const RoutingFunction &routing,
                    const RouterParams &params,
                    CdgFaults faults = {});

    const CdgReport &report() const { return report_; }

    /** @name Channel id mapping. */
    /// @{
    /** Id of the channel entering @p node through network input
     *  @p in_port on @p vc; kInvalidChan when the link does not
     *  exist (mesh edge, injection port, faulted). */
    ChanId channelId(NodeId node, PortId in_port, VcId vc) const;

    /** Id of the channel leaving @p node through network output
     *  @p out_port on @p vc (the same link seen from upstream). */
    ChanId channelFromOutput(NodeId node, PortId out_port,
                             VcId vc) const;

    /** Total channel-id space (node x netPort x vc, dense). */
    std::size_t numChannelIds() const { return exists_.size(); }
    /// @}

    /** @name Per-channel facts. */
    /// @{
    bool exists(ChanId c) const { return exists_[c] != 0; }

    /** Reachable by some (source, destination) routed message. */
    bool reachableChan(ChanId c) const { return reachable_[c] != 0; }

    /** Lies on a realizable dependency cycle. */
    bool inCycle(ChanId c) const { return inCycle_[c] != 0; }

    /** Can reach a dependency cycle (inCycle channels included). */
    bool reachesCycle(ChanId c) const
    {
        return reachesCycle_[c] != 0;
    }

    /** Realizable dependency successors of @p c, ascending. */
    const std::vector<ChanId> &successors(ChanId c) const
    {
        return succ_[c];
    }

    /** "(x,y) -d+-> (x',y') vc0" — for witnesses and reports. */
    std::string describe(ChanId c) const;
    /// @}

    /** @name Reports. */
    /// @{
    /**
     * GraphViz DOT rendering. With @p cyclic_only, only channels in
     * cyclic SCCs (plus witness highlighting) are emitted — the full
     * graph of a large network is unreadable.
     */
    std::string toDot(bool cyclic_only) const;

    /**
     * JSON report: configuration echo (@p config key/value pairs
     * supplied by the caller), graph shape, SCC statistics, escape
     * analysis, verdict and decoded witness cycles.
     */
    std::string
    toJson(const std::vector<std::pair<std::string, std::string>>
               &config) const;
    /// @}

  private:
    void build();
    void computeSccs();
    void escapeAnalysis();
    void findWitnesses();

    /** Upstream router of channel (node, in_port), or kInvalidNode. */
    NodeId upstreamOf(NodeId node, PortId in_port) const;

    bool linkFaulty(NodeId node, PortId out_port) const;
    bool routerFaulty(NodeId node) const;

    /** Shortest cycle through any vertex of a cyclic SCC of the
     *  graph in @p succ, restricted to @p scc_of components. */
    std::vector<ChanId>
    shortestCycle(const std::vector<std::vector<ChanId>> &succ,
                  const std::vector<std::int32_t> &scc_of,
                  const std::vector<std::uint8_t> &scc_cyclic) const;

    const Topology &topo_;
    const RoutingFunction &routing_;
    RouterParams params_;
    CdgFaults faults_;

    unsigned netPorts_ = 0;
    unsigned vcs_ = 0;
    unsigned escapeVcs_ = 0;

    std::vector<std::uint8_t> exists_;
    std::vector<std::uint8_t> reachable_;
    std::vector<std::vector<ChanId>> succ_;
    std::vector<std::uint8_t> inCycle_;
    std::vector<std::uint8_t> reachesCycle_;

    /** Component id per channel (-1 for unreachable). */
    std::vector<std::int32_t> sccOf_;
    std::vector<std::uint8_t> sccCyclic_;

    /** Extended escape CDG (vertices reuse ChanIds). */
    std::vector<std::vector<ChanId>> escSucc_;

    CdgReport report_;
};

} // namespace wormnet

#endif // WORMNET_ANALYSIS_CDG_HH
