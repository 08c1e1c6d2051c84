/**
 * @file
 * Forwarding wrappers that time the simulator's pluggable layers from
 * outside, through their public virtual interfaces only.
 *
 * Each wrapper owns the real component, forwards every virtual to it
 * unchanged and opens a span around the calls the traced run reports.
 * The traced run's statistics digest must equal the untraced run's,
 * which catches a wrapper that drops or alters a call the simulation
 * depends on.
 */

#ifndef WORMNET_PERFBENCH_WRAPPERS_HH
#define WORMNET_PERFBENCH_WRAPPERS_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "detection/detector.hh"
#include "recovery/recovery.hh"
#include "routing/routing.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

#include "spans.hh"

namespace perfbench
{

using namespace wormnet;

/** Counts the wrappers take beside their spans. */
struct HookCounters
{
    std::uint64_t verdicts = 0;   ///< onRoutingFailed returned true
    std::size_t pendingMax = 0;   ///< largest pending() after a tick
};

class TimedDetector : public DeadlockDetector
{
  public:
    TimedDetector(std::unique_ptr<DeadlockDetector> inner,
                  SpanRecorder &rec, HookCounters &counters)
        : inner_(std::move(inner)), rec_(rec), counters_(counters)
    {
    }

    void
    init(const DetectorContext &ctx) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->init(ctx);
    }

    bool
    onRoutingFailed(NodeId router, PortId in_port, VcId in_vc,
                    MsgId msg, PortMask feasible_ports,
                    bool input_pc_fully_busy, bool first_attempt,
                    Cycle now) override
    {
        Span s(rec_, Layer::DetRoutingFailed);
        const bool verdict = inner_->onRoutingFailed(
            router, in_port, in_vc, msg, feasible_ports,
            input_pc_fully_busy, first_attempt, now);
        counters_.verdicts += verdict ? 1 : 0;
        return verdict;
    }

    void
    onMessageRouted(NodeId router, PortId in_port, VcId in_vc,
                    MsgId msg, PortId out_port, VcId out_vc) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onMessageRouted(router, in_port, in_vc, msg, out_port,
                                out_vc);
    }

    void
    onChannelOccupied(NodeId router, PortId in_port, VcId in_vc,
                      MsgId msg) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onChannelOccupied(router, in_port, in_vc, msg);
    }

    void
    onRouteRetracted(NodeId router, PortId in_port,
                     VcId in_vc) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onRouteRetracted(router, in_port, in_vc);
    }

    void
    onHeadRecovering(NodeId router, PortId in_port,
                     VcId in_vc) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onHeadRecovering(router, in_port, in_vc);
    }

    bool
    wantsBlockedCandidates() const override
    {
        return inner_->wantsBlockedCandidates();
    }

    void
    onBlockedCandidates(NodeId router, PortId in_port, VcId in_vc,
                        MsgId msg, const BlockedCandidate *cands,
                        std::size_t count, Cycle now) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onBlockedCandidates(router, in_port, in_vc, msg, cands,
                                    count, now);
    }

    void
    onInputVcFreed(NodeId router, PortId in_port, VcId in_vc) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onInputVcFreed(router, in_port, in_vc);
    }

    void
    onCycleEnd(NodeId router, PortMask tx_mask, PortMask occupied_mask,
               Cycle now) override
    {
        Span s(rec_, Layer::DetCycleEnd);
        inner_->onCycleEnd(router, tx_mask, occupied_mask, now);
    }

    bool
    wantsInjectionStallReports() const override
    {
        return inner_->wantsInjectionStallReports();
    }

    bool
    onInjectionStalled(NodeId router, PortId in_port, VcId in_vc,
                       MsgId msg, Cycle age, Cycle stall,
                       Cycle now) override
    {
        Span s(rec_, Layer::DetRoutingFailed);
        const bool verdict = inner_->onInjectionStalled(
            router, in_port, in_vc, msg, age, stall, now);
        counters_.verdicts += verdict ? 1 : 0;
        return verdict;
    }

    void
    onPortFaultChanged(NodeId router, PortId out_port,
                       bool faulty) override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onPortFaultChanged(router, out_port, faulty);
    }

    bool
    idleCycleEndStable() const override
    {
        return inner_->idleCycleEndStable();
    }

    // cycleEndShardSafe() is deliberately not forwarded: the Network
    // consults it only for sharded stepping, which the benchmark
    // refuses to run, and it is slated for removal with that feature.

    void
    onRoutingChanged() override
    {
        Span s(rec_, Layer::DetOther);
        inner_->onRoutingChanged();
    }

    void saveState(Serializer &s) const override { inner_->saveState(s); }
    void loadState(Deserializer &d) override { inner_->loadState(d); }

    ControlTraffic
    controlTraffic() const override
    {
        return inner_->controlTraffic();
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<DeadlockDetector> inner_;
    SpanRecorder &rec_;
    HookCounters &counters_;
};

/**
 * RoutingFunction::route() is not virtual: it answers ejection itself
 * and asks the algorithm (networkCandidates) otherwise. The wrapper is
 * built for the same topology and router shape as the real function
 * and answers networkCandidates by calling the real route(), which
 * takes the same non-ejection branch. Spans therefore cover every
 * route() call that reaches the routing algorithm.
 */
class TimedRouting : public RoutingFunction
{
  public:
    TimedRouting(std::unique_ptr<RoutingFunction> inner,
                 const Topology &topo, const RouterParams &params,
                 SpanRecorder &rec)
        : RoutingFunction(topo, params), inner_(std::move(inner)),
          rec_(rec)
    {
    }

    bool
    usesAllVcsUniformly() const override
    {
        return inner_->usesAllVcsUniformly();
    }

    unsigned
    escapeVcCount() const override
    {
        return inner_->escapeVcCount();
    }

    std::string name() const override { return inner_->name(); }

  protected:
    void
    networkCandidates(NodeId current, NodeId dst, PortId in_port,
                      VcId in_vc,
                      std::vector<RouteCandidate> &out) const override
    {
        Span s(rec_, Layer::Route);
        inner_->route(current, dst, in_port, in_vc, out);
    }

  private:
    std::unique_ptr<RoutingFunction> inner_;
    SpanRecorder &rec_;
};

class TimedPattern : public TrafficPattern
{
  public:
    TimedPattern(std::unique_ptr<TrafficPattern> inner,
                 SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    NodeId
    destination(NodeId src, Rng &rng) override
    {
        Span s(rec_, Layer::TrafficDest);
        return inner_->destination(src, rng);
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TrafficPattern> inner_;
    SpanRecorder &rec_;
};

class TimedLengths : public LengthDistribution
{
  public:
    TimedLengths(std::unique_ptr<LengthDistribution> inner,
                 SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    unsigned
    draw(Rng &rng) override
    {
        Span s(rec_, Layer::TrafficLength);
        return inner_->draw(rng);
    }

    double mean() const override { return inner_->mean(); }
    unsigned maxLength() const override { return inner_->maxLength(); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<LengthDistribution> inner_;
    SpanRecorder &rec_;
};

class TimedRecovery : public RecoveryManager
{
  public:
    TimedRecovery(std::unique_ptr<RecoveryManager> inner,
                  SpanRecorder &rec, HookCounters &counters)
        : inner_(std::move(inner)), rec_(rec), counters_(counters)
    {
    }

    void
    init(Network &net) override
    {
        Span s(rec_, Layer::RecoveryOther);
        inner_->init(net);
    }

    void
    onDeadlockDetected(MsgId msg) override
    {
        Span s(rec_, Layer::RecoveryDetected);
        inner_->onDeadlockDetected(msg);
    }

    void
    tick() override
    {
        Span s(rec_, Layer::RecoveryTick);
        inner_->tick();
        counters_.pendingMax =
            std::max(counters_.pendingMax, inner_->pending());
    }

    void
    onMessageKilled(MsgId msg) override
    {
        Span s(rec_, Layer::RecoveryOther);
        inner_->onMessageKilled(msg);
    }

    std::size_t
    pending() const override
    {
        Span s(rec_, Layer::RecoveryOther);
        return inner_->pending();
    }

    void saveState(Serializer &s) const override { inner_->saveState(s); }
    void loadState(Deserializer &d) override { inner_->loadState(d); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<RecoveryManager> inner_;
    SpanRecorder &rec_;
    HookCounters &counters_;
};

} // namespace perfbench

#endif // WORMNET_PERFBENCH_WRAPPERS_HH
