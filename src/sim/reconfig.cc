#include "sim/reconfig.hh"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/spec.hh"
#include "fault/fault.hh"
#include "router/message.hh"
#include "sim/network.hh"

namespace wormnet
{

namespace
{

constexpr const char *kSpecUsage =
    "; expected a comma-separated list of "
    "\"link-:<a>><b>@<cycle>\", \"link+:<a>><b>@<cycle>\", "
    "\"router-:<n>@<cycle>\", \"router+:<n>@<cycle>\" or "
    "\"routing:<name>@<cycle>\"";

/** Fold edit @p e, whose link leaves through @p q, into @p dead
 *  (routing switches hold nothing down). */
void
applyAdmin(DeadSet &dead, const ReconfigEdit &e, PortId q)
{
    using Kind = ReconfigEdit::Kind;
    if (e.kind == Kind::LinkDown || e.kind == Kind::LinkUp)
        dead.addLink(e.node, q, e.kind == Kind::LinkDown ? +1 : -1);
    else if (e.kind == Kind::RouterDrain || e.kind == Kind::RouterRestore)
        dead.addRouter(e.node, e.kind == Kind::RouterDrain ? +1 : -1);
}

/**
 * Resolve @p plan against @p topo and replay it epoch by epoch
 * through a scratch DeadSet, calling @p on_epoch(first, last, dead)
 * after each epoch's edits [first, last). fatal() on a node or link
 * the topology lacks and on a restore without a matching removal.
 * ReconfigManager::bind() and analyzePlanStatic() both validate a
 * plan through here, so they accept and reject the same plans with
 * the same messages.
 * @return per edit, the link's out-port (kInvalidPort otherwise)
 */
template <typename OnEpoch>
std::vector<PortId>
replayPlan(const ReconfigPlan &plan, const Topology &topo,
           OnEpoch on_epoch)
{
    const std::vector<ReconfigEdit> &edits = plan.edits;
    std::vector<PortId> ports;
    for (const ReconfigEdit &e : edits) {
        const bool link = e.kind == ReconfigEdit::Kind::LinkDown ||
                          e.kind == ReconfigEdit::Kind::LinkUp;
        ports.push_back(link ? topo.linkPort(e.node, e.peer)
                             : kInvalidPort);
        if (link && ports.back() == kInvalidPort)
            fatal("--reconfig: no link ", e.node, ">", e.peer, " in ",
                  topo.name());
        if (!link && e.kind != ReconfigEdit::Kind::RoutingSwitch &&
            e.node >= topo.numNodes())
            fatal("--reconfig: node ", e.node,
                  " is outside this topology (", topo.numNodes(),
                  " nodes)");
    }

    DeadSet dead(topo);
    for (std::size_t i = 0; i < edits.size();) {
        const std::size_t first = i;
        for (; i < edits.size() && edits[i].at == edits[first].at; ++i) {
            const ReconfigEdit &e = edits[i];
            if (e.kind == ReconfigEdit::Kind::LinkUp &&
                !dead.linkDown(e.node, ports[i]))
                fatal("--reconfig: link+ at cycle ", e.at,
                      " restores link ", e.node, ">", e.peer,
                      ", which is not removed");
            if (e.kind == ReconfigEdit::Kind::RouterRestore &&
                !dead.routerDown(e.node))
                fatal("--reconfig: router+ at cycle ", e.at,
                      " restores router ", e.node,
                      ", which is not drained");
            applyAdmin(dead, e, ports[i]);
        }
        on_epoch(first, i, dead);
    }
    return ports;
}

} // namespace

ReconfigPlan
ReconfigPlan::parse(const std::string &spec)
{
    const ItemSpec grammar("--reconfig", kSpecUsage);
    ReconfigPlan plan;
    for (const ItemSpec::Item &item : grammar.items(spec)) {
        ReconfigEdit e;
        const std::string where = grammar.timed(item, e.at);
        if (item.kind == "link-" || item.kind == "link+") {
            e.kind = item.kind == "link-" ? ReconfigEdit::Kind::LinkDown
                                          : ReconfigEdit::Kind::LinkUp;
            std::tie(e.node, e.peer) = grammar.link(item, where);
        } else if (item.kind == "router-" || item.kind == "router+") {
            e.kind = item.kind == "router-"
                         ? ReconfigEdit::Kind::RouterDrain
                         : ReconfigEdit::Kind::RouterRestore;
            e.node = grammar.node(item, where);
        } else if (item.kind == "routing") {
            if (where.empty())
                grammar.fail(item, ": empty routing name");
            e.kind = ReconfigEdit::Kind::RoutingSwitch;
            e.routingSpec = where;
        } else {
            grammar.fail(item, ": unknown edit kind '", item.kind,
                         "'");
        }
        plan.edits.push_back(std::move(e));
    }
    if (plan.edits.empty())
        fatal("--reconfig spec '", spec, "' contains no edits",
              kSpecUsage);
    std::stable_sort(plan.edits.begin(), plan.edits.end(),
                     [](const ReconfigEdit &a, const ReconfigEdit &b) {
                         return a.at < b.at;
                     });
    return plan;
}

std::vector<EpochStaticResult>
analyzePlanStatic(const ReconfigPlan &plan, const Topology &topo,
                  const RouterParams &params,
                  const std::string &initial_routing,
                  const CdgFaults &base)
{
    std::unique_ptr<RoutingFunction> routing =
        makeRoutingFunction(initial_routing, topo, params);

    std::vector<EpochStaticResult> out;
    const auto snapshot = [&](Cycle cycle, std::size_t edits,
                              const DeadSet &dead) {
        EpochStaticResult r;
        r.cycle = cycle;
        r.edits = static_cast<unsigned>(edits);
        r.routing = routing->name();
        r.dead = base;
        r.dead.add(dead);
        r.report = ChannelDepGraph(topo, *routing, params, r.dead).report();
        out.push_back(std::move(r));
    };

    // The pre-plan configuration, for contrast with every epoch.
    snapshot(0, 0, DeadSet(topo));
    replayPlan(plan, topo,
               [&](std::size_t first, std::size_t last,
                   const DeadSet &dead) {
                   for (std::size_t i = first; i < last; ++i) {
                       const ReconfigEdit &e = plan.edits[i];
                       if (e.kind == ReconfigEdit::Kind::RoutingSwitch)
                           routing = makeRoutingFunction(
                               e.routingSpec, topo, params);
                   }
                   snapshot(plan.edits[first].at, last - first, dead);
               });
    return out;
}

ReconfigManager::ReconfigManager(ReconfigPlan plan, bool cross_check)
    : plan_(std::move(plan)), crossCheck_(cross_check)
{
}

void
ReconfigManager::bind(Network &net)
{
    net_ = &net;
    topo_ = &net.topology();
    dead_ = DeadSet(*topo_);

    routings_.clear();
    currentRouting_ = -1;
    nextEdit_ = 0;
    records_.clear();
    pending_.clear();

    // The dry run makes a bad plan fail at attach time, not mid-run,
    // exactly where analyzePlanStatic() fails it. Pre-building the
    // routing functions makes the live switch a pointer swap.
    linkPorts_ = replayPlan(
        plan_, *topo_,
        [&](std::size_t first, std::size_t last, const DeadSet &) {
            for (std::size_t i = first; i < last; ++i) {
                const ReconfigEdit &e = plan_.edits[i];
                if (e.kind == ReconfigEdit::Kind::RoutingSwitch)
                    routings_.push_back(makeRoutingFunction(
                        e.routingSpec, *topo_, net.routerParams()));
            }
        });
}

void
ReconfigManager::applyDueEpochs(Cycle now)
{
    const std::vector<ReconfigEdit> &edits = plan_.edits;
    while (nextEdit_ < edits.size() && edits[nextEdit_].at <= now) {
        const Cycle at = edits[nextEdit_].at;

        EpochRecord rec;
        rec.cycle = at;
        const std::uint64_t reroutes_before =
            net_->stats_.faultReroutes;

        bool any_down = false;
        for (; nextEdit_ < edits.size() && edits[nextEdit_].at == at;
             ++nextEdit_) {
            const ReconfigEdit &e = edits[nextEdit_];
            any_down |= e.kind == ReconfigEdit::Kind::LinkDown ||
                        e.kind == ReconfigEdit::Kind::RouterDrain;
            applyAdmin(dead_, e, linkPorts_[nextEdit_]);
            if (e.kind == ReconfigEdit::Kind::RoutingSwitch) {
                net_->setRoutingFunction(*routings_[++currentRouting_]);
                net_->resetBlockedHeads();
            }
            ++rec.edits;
        }

        // Same sequence a fault flip runs: reconcile the detector's
        // dead-port view, strand worms on removed resources, then
        // kill/requeue them through the bounded-retry path.
        net_->applyDeadPortChanges();
        WORMNET_ASSERT(net_->faultKillQueue_.empty());
        if (any_down)
            net_->scanForStrandedWorms();
        std::vector<MsgId> killed = net_->faultKillQueue_;
        net_->processFaultKills();

        rec.killed = killed.size();
        rec.rerouted =
            net_->stats_.faultReroutes - reroutes_before;
        rec.detectionsAtApply = net_->stats_.detections;
        rec.falseAtApply = net_->stats_.wFalseDetections;
        rec.oracleDeadlockedAtApply = net_->deadlockedNow().size();
        rec.routingAfter = net_->routing().name();
        if (crossCheck_)
            rec.staticVerdict = crossCheckNow();

        records_.push_back(std::move(rec));
        pending_.push_back(std::move(killed));
    }
}

void
ReconfigManager::updateSettle(Cycle now)
{
    for (std::size_t i = 0; i < records_.size(); ++i) {
        EpochRecord &rec = records_[i];
        if (rec.settled())
            continue;
        std::vector<MsgId> &pend = pending_[i];
        std::size_t w = 0;
        for (const MsgId msg : pend) {
            const MsgStatus status =
                net_->messages().get(msg).status;
            if (status == MsgStatus::Delivered)
                ++rec.redelivered;
            else if (status == MsgStatus::Abandoned)
                ++rec.abandonedOfKilled;
            else
                pend[w++] = msg; // still in flight or queued
        }
        pend.resize(w);
        if (pend.empty())
            rec.settleCycle = now;
    }
}

void
ReconfigManager::tick(Cycle now)
{
    if (nextEdit_ < plan_.edits.size() && plan_.edits[nextEdit_].at <= now)
        applyDueEpochs(now);
    updateSettle(now);
}

bool
ReconfigManager::settled() const
{
    if (!planExhausted())
        return false;
    for (const std::vector<MsgId> &pend : pending_) {
        if (!pend.empty())
            return false;
    }
    return true;
}

std::string
ReconfigManager::crossCheckNow() const
{
    // The analyzer sees exactly what the live network sees: faulted
    // plus admin-removed links, faulted plus drained routers.
    CdgFaults f;
    if (const FaultModel *faults = net_->faultModel())
        f.add(faults->dead());
    f.add(dead_);
    const ChannelDepGraph graph(*topo_, net_->routing(),
                                net_->routerParams(), std::move(f));
    return toString(graph.report().verdict);
}

void
ReconfigManager::saveState(Serializer &s) const
{
    s.u64(nextEdit_);
    s.u32(static_cast<std::uint32_t>(currentRouting_));
    dead_.saveLinkCounts(s);
    dead_.saveRouterCounts(s);
    s.u32(static_cast<std::uint32_t>(records_.size()));
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const EpochRecord &rec = records_[i];
        s.u64(rec.cycle);
        s.u32(rec.edits);
        s.str(rec.routingAfter);
        s.str(rec.staticVerdict);
        s.u64(rec.killed);
        s.u64(rec.rerouted);
        s.u64(rec.redelivered);
        s.u64(rec.abandonedOfKilled);
        s.u64(rec.settleCycle);
        s.u64(rec.detectionsAtApply);
        s.u64(rec.falseAtApply);
        s.u64(rec.oracleDeadlockedAtApply);
        const std::vector<MsgId> &pend = pending_[i];
        s.u32(static_cast<std::uint32_t>(pend.size()));
        for (const MsgId msg : pend)
            s.u32(msg);
    }
}

void
ReconfigManager::loadState(Deserializer &d)
{
    nextEdit_ = d.u64();
    if (nextEdit_ > plan_.edits.size())
        fatal("reconfiguration checkpoint is ahead of the plan (",
              nextEdit_, " of ", plan_.edits.size(), " edits applied)");
    currentRouting_ = static_cast<std::int32_t>(d.u32());
    if (currentRouting_ >= 0 &&
        static_cast<std::size_t>(currentRouting_) >= routings_.size())
        fatal("reconfiguration checkpoint references routing #",
              currentRouting_, " but the plan only builds ",
              routings_.size());

    dead_.loadLinkCounts(d);
    dead_.loadRouterCounts(d);

    records_.resize(d.u32());
    pending_.resize(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
        EpochRecord &rec = records_[i];
        rec.cycle = d.u64();
        rec.edits = d.u32();
        rec.routingAfter = d.str();
        rec.staticVerdict = d.str();
        rec.killed = d.u64();
        rec.rerouted = d.u64();
        rec.redelivered = d.u64();
        rec.abandonedOfKilled = d.u64();
        rec.settleCycle = d.u64();
        rec.detectionsAtApply = d.u64();
        rec.falseAtApply = d.u64();
        rec.oracleDeadlockedAtApply = d.u64();
        std::vector<MsgId> &pend = pending_[i];
        pend.resize(d.u32());
        for (MsgId &msg : pend)
            msg = d.u32();
    }

    // Re-install the routing function in force at save time. The
    // restored router state already reflects any post-switch routing
    // attempts, so blocked heads are NOT reset here.
    if (currentRouting_ >= 0)
        net_->setRoutingFunction(*routings_[currentRouting_]);
}

} // namespace wormnet
