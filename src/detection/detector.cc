#include "detection/detector.hh"

#include <vector>

#include "common/log.hh"
#include "common/spec.hh"
#include "detection/dwfg.hh"
#include "detection/ndm.hh"
#include "detection/pdm.hh"
#include "detection/source_timeout.hh"
#include "detection/timeout.hh"

namespace wormnet
{

std::unique_ptr<DeadlockDetector>
makeDetector(const std::string &spec)
{
    if (spec.empty())
        fatal("empty detector spec");
    const std::vector<std::string> parts = splitFields(spec, ':');
    const std::string &kind = parts[0];

    if (kind == "none") {
        rejectSurplusFields(parts, 1, spec);
        return std::make_unique<NullDetector>();
    }

    if (kind == "ndm") {
        rejectSurplusFields(parts, 4, spec);
        NdmParams p;
        if (parts.size() > 1)
            p.t2 = parseUnsigned(parts[1], "ndm t2");
        const auto is_rearm = [](const std::string &f) {
            return f == "coarse" || f == "selective";
        };
        if (parts.size() == 4 && is_rearm(parts[2]) == is_rearm(parts[3]))
            fatal("detector spec '", spec,
                  "': t1 or re-arm policy given twice");
        for (std::size_t i = 2; i < parts.size(); ++i) {
            if (!is_rearm(parts[i]))
                p.t1 = parseUnsigned(parts[i], "ndm t1");
            else if (parts[i] == "coarse")
                p.rearm = GpRearmPolicy::AllInRouter;
            else
                p.rearm = GpRearmPolicy::WaitersOnChannel;
        }
        return std::make_unique<NdmDetector>(p);
    }

    if (kind == "pdm") {
        rejectSurplusFields(parts, 3, spec);
        PdmParams p;
        if (parts.size() > 1)
            p.threshold = parseUnsigned(parts[1], "pdm threshold");
        if (parts.size() > 2) {
            if (parts[2] != "gated")
                fatal("unknown pdm option '", parts[2], "'");
            p.gateOccupancy = true;
        }
        return std::make_unique<PdmDetector>(p);
    }

    if (kind == "dwfg") {
        DwfgParams p;
        bool trigger_set = false;
        for (std::size_t i = 1; i < parts.size(); ++i) {
            const std::string &opt = parts[i];
            if (opt.rfind("bw=", 0) == 0) {
                p.bandwidth = parseUnsigned<unsigned>(
                    opt.substr(3), "dwfg bandwidth");
            } else if (opt.rfind("hop=", 0) == 0) {
                p.hopLatency =
                    parseUnsigned(opt.substr(4), "dwfg hop latency");
            } else if (opt.rfind("retry=", 0) == 0) {
                p.retryDelay =
                    parseUnsigned(opt.substr(6), "dwfg retry delay");
            } else if (!trigger_set) {
                p.trigger = parseUnsigned(opt, "dwfg trigger");
                trigger_set = true;
            } else {
                fatal("unknown dwfg option '", opt, "'");
            }
        }
        return std::make_unique<DwfgDetector>(p);
    }

    // The single-threshold detectors: "<kind>[:<threshold>]".
    const auto threshold = [&](Cycle def) {
        rejectSurplusFields(parts, 2, spec);
        return parts.size() > 1
                   ? parseUnsigned(parts[1],
                                   (kind + " threshold").c_str())
                   : def;
    };
    if (kind == "timeout") {
        TimeoutParams p;
        p.threshold = threshold(p.threshold);
        return std::make_unique<TimeoutDetector>(p);
    }
    if (kind == "src-age-timeout")
        return std::make_unique<SourceAgeTimeoutDetector>(
            threshold(256));
    if (kind == "inj-stall-timeout")
        return std::make_unique<InjectionStallTimeoutDetector>(
            threshold(32));

    fatal("unknown detector '", spec, "'");
}

} // namespace wormnet
