#include "recovery/recovery.hh"

#include <vector>

#include "common/log.hh"
#include "common/spec.hh"
#include "recovery/disha.hh"
#include "recovery/progressive.hh"
#include "recovery/regressive.hh"

namespace wormnet
{

std::unique_ptr<RecoveryManager>
makeRecoveryManager(const std::string &spec)
{
    if (spec.empty())
        fatal("empty recovery spec");
    const std::vector<std::string> parts = splitFields(spec, ':');
    const std::string &kind = parts[0];

    if (kind == "progressive") {
        rejectSurplusFields(parts, 3, spec);
        ProgressiveParams p;
        if (parts.size() > 1)
            p.softwareOverhead =
                parseUnsigned(parts[1], "progressive overhead");
        if (parts.size() > 2)
            p.perHopCost = parseUnsigned(parts[2], "progressive per-hop");
        return std::make_unique<ProgressiveRecovery>(p);
    }

    if (kind == "regressive") {
        rejectSurplusFields(parts, 3, spec);
        RegressiveParams p;
        if (parts.size() > 1)
            p.retryDelay = parseUnsigned(parts[1], "regressive delay");
        if (parts.size() > 2)
            p.maxRetries = parseUnsigned<unsigned>(
                parts[2], "regressive max retries");
        return std::make_unique<RegressiveRecovery>(p);
    }

    if (kind == "disha") {
        rejectSurplusFields(parts, 4, spec);
        DishaParams p;
        if (parts.size() > 1)
            p.tokens = parseUnsigned<unsigned>(parts[1], "disha tokens");
        if (parts.size() > 2)
            p.laneHopCost = parseUnsigned(parts[2], "disha lane cost");
        if (parts.size() > 3)
            p.tokenHandoff =
                parseUnsigned(parts[3], "disha token hand-off");
        return std::make_unique<DishaRecovery>(p);
    }

    fatal("unknown recovery manager '", spec, "'");
}

} // namespace wormnet
