#include "fault/fault.hh"

#include <algorithm>
#include <tuple>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/spec.hh"

namespace wormnet
{

namespace
{

constexpr const char *kSpecUsage =
    "; expected a comma-separated list of "
    "\"link:<src>><dst>@<cycle>\", \"router:<node>@<cycle>\" or "
    "\"rate:<p>\"";

} // namespace

FaultParams
FaultModel::parseSpec(const std::string &spec)
{
    const ItemSpec grammar("--faults", kSpecUsage);
    FaultParams params;
    for (const ItemSpec::Item &item : grammar.items(spec)) {
        if (item.kind == "rate") {
            double p = 0.0;
            if (!tryParseReal(item.rest, p) || p < 0.0 || p > 1.0)
                grammar.fail(item,
                             ": rate must be a probability in [0,1]");
            params.linkRate = p;
            continue;
        }

        ScheduledFault f;
        const std::string where = grammar.timed(item, f.at);
        if (item.kind == "link") {
            f.kind = ScheduledFault::Kind::Link;
            std::tie(f.node, f.peer) = grammar.link(item, where);
        } else if (item.kind == "router") {
            f.kind = ScheduledFault::Kind::Router;
            f.node = grammar.node(item, where);
        } else {
            grammar.fail(item, ": unknown fault kind '", item.kind,
                         "'");
        }
        params.schedule.push_back(f);
    }
    if (params.schedule.empty() && params.linkRate == 0.0)
        fatal("--faults spec '", spec, "' contains no faults",
              kSpecUsage);
    return params;
}

PortId
resolveFault(const Topology &topo, const ScheduledFault &f)
{
    if (f.kind == ScheduledFault::Kind::Router) {
        if (f.node >= topo.numNodes())
            fatal("--faults: node ", f.node,
                  " is outside this topology (", topo.numNodes(),
                  " nodes)");
        return kInvalidPort;
    }
    const PortId q = topo.linkPort(f.node, f.peer);
    if (q == kInvalidPort)
        fatal("--faults: no link ", f.node, ">", f.peer, " in ",
              topo.name());
    return q;
}

FaultModel::FaultModel(const FaultParams &params) : params_(params)
{
}

void
FaultModel::init(const Topology &topo, const RouterParams &rp,
                 std::uint64_t seed)
{
    topo_ = &topo;
    WORMNET_ASSERT(topo.numNetPorts() == rp.netPorts);
    rng_.reseed(seed);
    dead_ = DeadSet(topo);

    for (const ScheduledFault &f : params_.schedule)
        resolveFault(topo, f);
    schedule_ = params_.schedule;
    nextScheduled_ = 0;
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const ScheduledFault &a,
                        const ScheduledFault &b) {
                         return a.at < b.at;
                     });
}

LinkFlips
FaultModel::fail(ScheduledFault::Kind kind, NodeId node,
                 PortId out_port, Cycle now)
{
    ++injected_;
    if (params_.repairDelay > 0)
        repairs_.push(
            Repair{now + params_.repairDelay, kind, node, out_port});
    return kind == ScheduledFault::Kind::Link
               ? dead_.addLink(node, out_port, +1)
               : dead_.addRouter(node, +1);
}

LinkFlips
FaultModel::tick(Cycle now)
{
    WORMNET_ASSERT(topo_ != nullptr && "FaultModel used before init()");
    LinkFlips flips;

    while (!repairs_.empty() && repairs_.top().when <= now) {
        const Repair r = repairs_.top();
        repairs_.pop();
        ++repaired_;
        flips |= r.kind == ScheduledFault::Kind::Link
                     ? dead_.addLink(r.node, r.outPort, -1)
                     : dead_.addRouter(r.node, -1);
    }

    while (nextScheduled_ < schedule_.size() &&
           schedule_[nextScheduled_].at <= now) {
        const ScheduledFault &f = schedule_[nextScheduled_++];
        flips |= fail(f.kind, f.node, resolveFault(*topo_, f), now);
    }

    if (params_.linkRate > 0.0) {
        for (NodeId node = 0; node < topo_->numNodes(); ++node) {
            for (unsigned d = 0; d < topo_->numDims(); ++d) {
                for (const bool positive : {true, false}) {
                    if (topo_->neighbor(node, d, positive) ==
                        kInvalidNode)
                        continue;
                    const PortId q =
                        Topology::outPort(d, positive);
                    if (dead_.linkDown(node, q))
                        continue; // already down
                    if (rng_.nextBool(params_.linkRate))
                        flips |= fail(ScheduledFault::Kind::Link,
                                      node, q, now);
                }
            }
        }
    }

    return flips;
}

void
FaultModel::saveState(Serializer &s) const
{
    // The masks and the active totals are written for layout's sake;
    // loadState() recomputes them from the counts and checks them.
    rng_.saveState(s);
    s.u64(nextScheduled_);
    s.u64(dead_.numLinkCounts());
    dead_.saveLinkCounts(s);
    for (NodeId node = 0; node < dead_.numNodes(); ++node)
        s.u32(dead_.outMask(node));
    dead_.saveRouterCounts(s);
    // The repair heap is written verbatim so equal-cycle repairs pop
    // in the exact pre-checkpoint order.
    const auto &heap = pqContainer(repairs_);
    s.u32(static_cast<std::uint32_t>(heap.size()));
    for (const Repair &r : heap) {
        s.u64(r.when);
        s.u8(static_cast<std::uint8_t>(r.kind));
        s.u32(r.node);
        s.u16(r.outPort);
    }
    s.u64(dead_.activeLinks());
    s.u64(dead_.activeRouters());
    s.u64(injected_);
    s.u64(repaired_);
}

void
FaultModel::loadState(Deserializer &d)
{
    rng_.loadState(d);
    nextScheduled_ = d.u64();
    if (nextScheduled_ > schedule_.size())
        fatal("fault checkpoint is ahead of the schedule (",
              nextScheduled_, " of ", schedule_.size(), " faults)");
    const std::uint64_t links = d.u64();
    if (links != dead_.numLinkCounts())
        fatal("fault checkpoint holds ", links,
              " link counts; this topology has ",
              dead_.numLinkCounts());
    dead_.loadLinkCounts(d);
    for (NodeId node = 0; node < dead_.numNodes(); ++node) {
        if (d.u32() != dead_.outMask(node))
            fatal("fault checkpoint: stored dead-port mask of node ",
                  node, " disagrees with its link counts");
    }
    dead_.loadRouterCounts(d);
    auto &heap = pqContainer(repairs_);
    heap.clear();
    heap.resize(d.u32());
    for (Repair &r : heap) {
        r.when = d.u64();
        const std::uint8_t kind = d.u8();
        r.kind = static_cast<ScheduledFault::Kind>(kind);
        r.node = d.u32();
        r.outPort = d.u16();
        const bool link = r.kind == ScheduledFault::Kind::Link;
        if (kind > std::uint8_t(ScheduledFault::Kind::Router) ||
            r.node >= dead_.numNodes() ||
            (link && r.outPort >= topo_->numNetPorts()))
            fatal("fault checkpoint holds a malformed repair entry");
    }
    if (d.u64() != dead_.activeLinks() ||
        d.u64() != dead_.activeRouters())
        fatal("fault checkpoint: stored fault totals disagree with "
              "its counts");
    injected_ = d.u64();
    repaired_ = d.u64();
}

} // namespace wormnet
