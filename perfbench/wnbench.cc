/**
 * @file
 * wnbench: the simulator's fixed-work benchmark.
 *
 *   wnbench --workload NAME --seed N --seconds S --trace 0|1
 *           --reference FILE [--git-sha SHA] [--src-hash HASH]
 *   wnbench --workload NAME --seed N --record
 *
 * Every simulation steps a fixed number of cycles, so its statistics
 * repeat exactly for a given seed. A run repeats the workload's unit
 * of work (one simulation, or one saturation search plus table) until
 * --seconds have passed and reports medians. --trace 0 reports the
 * end-to-end metrics; --trace 1 interleaves untraced units with traced
 * ones, whose forwarding wrappers and spans give the per-layer
 * metrics. Every unit's statistics digest is checked: against the
 * run's first unit of the same seed, against the committed reference
 * when the seed has one, and, before timing starts, a short anchor of the
 * workload at the reference seed is checked against its committed
 * digest whatever --seed is. The last stdout line is the JSON result;
 * see perfbench/README.md.
 */

// wormnet-lint: allow-file(banned-api): a benchmark measures wall
// time by design; its timings are reporting, not simulation state.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/simulation.hh"
#include "sim/oracle.hh"
#include "topology/topology.hh"

#include "spans.hh"
#include "wrappers.hh"

namespace perfbench
{
namespace
{

/** The seed whose digests every run re-checks (the anchor runs). */
constexpr std::uint64_t kReferenceSeed = 1;
/** A run repeats its unit at least this often, whatever --seconds. */
constexpr unsigned kMinUnits = 3;
/** ... and at most this often. */
constexpr unsigned kMaxUnits = 200;

/** A reduced Table 2 grid, run through ExperimentRunner. */
struct TableShape
{
    std::vector<Cycle> thresholds;
    std::vector<std::string> sizes;
    /** Saturation rate the load fractions apply to. Committed
     *  rather than searched, so the table's work does not follow the
     *  search result, which differs from seed to seed. */
    double satRate = 0.0;
    std::vector<double> loadFractions;
    /** findSaturationRate sizing (the table's set-up). */
    Cycle searchWarmup = 0;
    Cycle searchMeasure = 0;
    unsigned searchIterations = 0;
};

struct Workload
{
    std::string name;
    /** The single simulation (for a table: the base of its cells
     *  and of its traced sample cell). */
    SimulationConfig sim;
    /** Cycles of each simulation (for a table: of each cell). */
    Cycle warmup = 0;
    Cycle measure = 0;
    bool table = false;
    TableShape shape;
    /** Seeds an untraced run covers: unit u simulates seed u mod
     *  seeds (--seed itself, then seeds derived from it). Past
     *  saturation under hot-spot traffic, host time per cycle differs
     *  up to 2x from seed to seed, so that workload averages over
     *  several. */
    unsigned seeds = 1;
    /** Cycles of the anchor's short run (warm-up, measurement). */
    Cycle anchorWarmup = 0;
    Cycle anchorMeasure = 0;
};

/** The paper's router shape and mechanisms on the 512-node cube. */
SimulationConfig
cube(const std::string &pattern, const std::string &lengths,
     double rate)
{
    SimulationConfig c;
    c.topology = "torus";
    c.radix = 8;
    c.dims = 3;
    c.vcs = 3;
    c.bufDepth = 4;
    c.injPorts = 4;
    c.ejePorts = 4;
    c.routing = "tfa";
    c.detector = "ndm:32";
    c.recovery = "progressive";
    c.pattern = pattern;
    c.lengths = lengths;
    c.flitRate = rate;
    c.oraclePeriod = 128;
    return c;
}

/*
 * Rates are fixed fractions of the saturation rates findSaturationRate
 * reports at its defaults on the 8-ary 3-cube with 16-flit messages:
 * uniform 0.7585, hot-spot 0.3854 flits/cycle/node.
 */
std::vector<Workload>
workloads()
{
    std::vector<Workload> ws;

    Workload hot;
    hot.name = "hotspot_recovery";
    hot.sim = cube("hotspot:0.05", "s", 0.42); // 1.1x saturation
    hot.warmup = 1000;
    hot.measure = 1500;
    hot.seeds = 12;
    ws.push_back(hot);

    Workload tab;
    tab.name = "table2_sweep";
    tab.sim = cube("uniform", "s", 0.0);
    tab.sim.detector = "ndm:%T";
    tab.table = true;
    tab.shape.thresholds = {8, 32};
    tab.shape.sizes = {"s", "sl"};
    tab.shape.satRate = 0.7585;
    tab.shape.loadFractions = {0.7, 0.9, 1.1};
    tab.shape.searchWarmup = 200;
    tab.shape.searchMeasure = 600;
    tab.shape.searchIterations = 4;
    tab.warmup = 400;
    tab.measure = 1200;
    ws.push_back(tab);

    for (Workload &w : ws) {
        w.anchorWarmup = 100;
        w.anchorMeasure = 200;
    }

    // Not a benchmark workload: a 4x4 torus past saturation for
    // run.py --self-test (verdicts, recovery and every span fire).
    Workload tiny;
    tiny.name = "selftest";
    tiny.sim = cube("hotspot:0.5", "s", 3.0);
    tiny.sim.radix = 4;
    tiny.sim.dims = 2;
    tiny.sim.detector = "ndm:2";
    tiny.warmup = 200;
    tiny.measure = 1000;
    tiny.anchorWarmup = 50;
    tiny.anchorMeasure = 100;
    ws.push_back(tiny);
    return ws;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/**
 * Pins the calling thread to one CPU while in scope. Each CPU of a
 * shared host slows down independently of the others for tens of
 * seconds at a time; single-simulation units rotate over the CPUs so a
 * run samples all of them instead of whichever one it started on.
 */
class CpuPin
{
  public:
    explicit CpuPin(int cpu)
    {
        saved_ = sched_getaffinity(0, sizeof old_, &old_) == 0;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }
    ~CpuPin()
    {
        if (saved_)
            sched_setaffinity(0, sizeof old_, &old_);
    }
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t old_;
    bool saved_ = false;
};

/** Linear-interpolated quantile (0 for an empty sample). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of one simulation's measurement window. */
std::string
simDigest(const Network &net, std::uint64_t window_hops)
{
    const SimStats &s = net.stats();
    std::ostringstream os;
    os << "delivered=" << s.wDelivered << ",generated=" << s.wGenerated
       << ",hops=" << window_hops << ",detected=" << s.wDetectedMessages
       << ",true=" << s.wTrueDetections
       << ",false=" << s.wFalseDetections << ",latsum="
       << hex(std::bit_cast<std::uint64_t>(s.latency.sum()));
    return os.str();
}

/** Simulated-output sanity that holds at every seed. */
bool
simSane(const Network &net, std::uint64_t window_hops)
{
    const SimStats &s = net.stats();
    return s.wDelivered > 0 && window_hops > 0 &&
           s.wDelivered <= s.delivered &&
           s.wTrueDetections + s.wFalseDetections ==
               s.wDetectionEvents &&
           s.wDetectedMessages <= s.wDetectionEvents;
}

/** Attempted/failed bookkeeping plus the reasons for failures. */
struct Checker
{
    unsigned attempted = 0;
    unsigned failed = 0;

    void
    unit(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "FAILED: %s\n", what.c_str());
        }
    }

    /** Run @p body as one checked unit; an exception fails it. */
    void
    guarded(const std::string &what, const std::function<bool()> &body)
    {
        bool ok = false;
        try {
            ok = body();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: exception: %s\n", what.c_str(),
                         e.what());
        }
        unit(ok, what);
    }
};

/** Committed digests: "<workload> <anchor|full> <seed> <digest>". */
class Reference
{
  public:
    explicit Reference(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read reference " + path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ls(line);
            std::string w, kind, seed, digest;
            if (!(ls >> w >> kind >> seed >> digest))
                throw std::runtime_error("bad reference line: " + line);
            digests_[w + " " + kind + " " + seed] = digest;
        }
    }

    /** The digest for (workload, kind, seed), or "" if none. */
    std::string
    find(const std::string &w, const std::string &kind,
         std::uint64_t seed) const
    {
        const auto it =
            digests_.find(w + " " + kind + " " + std::to_string(seed));
        return it == digests_.end() ? std::string() : it->second;
    }

  private:
    std::map<std::string, std::string> digests_;
};

// ---------------------------------------------------------------------
// Single simulations.

struct UntracedSim
{
    double constructS = 0.0;
    double setupS = 0.0;   ///< construction + warm-up
    double measureS = 0.0; ///< the measured window
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t hops = 0;
    std::string digest;
    bool sane = false;
    unsigned seedIndex = 0;
};

UntracedSim
runUntraced(const SimulationConfig &cfg, Cycle warmup, Cycle measure)
{
    UntracedSim r;
    const double cpu0 = threadCpuSeconds();
    const std::uint64_t t0 = nowNs();
    Simulation sim(cfg);
    const std::uint64_t t1 = nowNs();
    sim.net().run(warmup);
    sim.net().startMeasurement();
    const std::uint64_t hops0 = sim.net().flitHops();
    const std::uint64_t t2 = nowNs();
    sim.net().run(measure);
    const std::uint64_t t3 = nowNs();
    r.cpuS = threadCpuSeconds() - cpu0;
    r.constructS = seconds(t1 - t0);
    r.setupS = seconds(t2 - t0);
    r.measureS = seconds(t3 - t2);
    r.wallS = seconds(t3 - t0);
    r.hops = sim.net().flitHops() - hops0;
    r.digest = simDigest(sim.net(), r.hops);
    r.sane = simSane(sim.net(), r.hops);
    return r;
}

/** Simulation's wiring with every pluggable layer wrapped. */
struct WrappedSim
{
    std::unique_ptr<Topology> topo;
    std::unique_ptr<TimedPattern> pattern;
    std::unique_ptr<TimedLengths> lengths;
    std::unique_ptr<TimedRouting> routing;
    std::unique_ptr<TimedDetector> detector;
    std::unique_ptr<TimedRecovery> recovery;
    std::unique_ptr<Network> net; // last: destroyed first

    WrappedSim(const SimulationConfig &c, SpanRecorder &rec,
               HookCounters &counters)
    {
        if (!c.faults.empty() || !c.reconfig.empty() ||
            c.selection != "random")
            throw std::runtime_error("traced wiring covers neither "
                                     "faults, reconfiguration nor "
                                     "non-default selection");
        topo = makeTopology(c.topology, c.radix, c.dims, c.radices);
        pattern = std::make_unique<TimedPattern>(
            makePattern(c.pattern, *topo), rec);
        lengths = std::make_unique<TimedLengths>(
            makeLengthDistribution(c.lengths), rec);
        RouterParams rp;
        rp.netPorts = topo->numNetPorts();
        rp.injPorts = c.injPorts;
        rp.ejePorts = c.ejePorts;
        rp.vcs = c.vcs;
        rp.bufDepth = c.bufDepth;
        routing = std::make_unique<TimedRouting>(
            makeRoutingFunction(c.routing, *topo, rp), *topo, rp, rec);
        detector = std::make_unique<TimedDetector>(
            makeDetector(c.detector), rec, counters);
        if (c.recovery != "none")
            recovery = std::make_unique<TimedRecovery>(
                makeRecoveryManager(c.recovery), rec, counters);
        NetworkParams np;
        np.vcs = c.vcs;
        np.bufDepth = c.bufDepth;
        np.injPorts = c.injPorts;
        np.ejePorts = c.ejePorts;
        np.injectionLimit = c.injectionLimit;
        np.injectionLimitFraction = c.injectionLimitFraction;
        np.oraclePeriod = c.oraclePeriod;
        np.maxSourceQueue = c.maxSourceQueue;
        np.maxRetries = c.maxRetries;
        net = std::make_unique<Network>(*topo, np, *routing, *detector,
                                        recovery.get(), *pattern,
                                        *lengths, c.flitRate, c.seed);
    }
};

struct TracedSim
{
    std::map<std::string, double> layer; ///< per-layer values
    double runSpanS = 0.0;
    std::string digest;
    bool sane = false;
    bool spansCoverLoop = false;
};

TracedSim
runTraced(const SimulationConfig &cfg, Cycle warmup, Cycle measure)
{
    SpanRecorder rec;
    HookCounters counters;
    WrappedSim w(cfg, rec, counters);
    Network &net = *w.net;
    net.run(warmup);
    net.startMeasurement();

    rec.reset();
    counters = {};
    net.resetPhaseTimers();
    net.enablePhaseTimers(true);
    rec.setActive(true);
    // The oracle period splits the window; between chunks the bench
    // times one ground-truth sweep itself, with the recorder paused so
    // the sweep's route() calls stay out of the routing layer.
    const Cycle chunk = cfg.oraclePeriod > 0 ? cfg.oraclePeriod : 128;
    std::uint64_t oracle_ns = 0;
    std::uint64_t sweeps = 0;
    const std::uint64_t loop0 = nowNs();
    for (Cycle done = 0; done < measure;) {
        const Cycle n = std::min(chunk, measure - done);
        {
            Span run(rec, Layer::Run);
            net.run(n);
        }
        done += n;
        rec.setActive(false);
        const std::uint64_t o0 = nowNs();
        findDeadlockedMessages(net);
        oracle_ns += nowNs() - o0;
        ++sweeps;
        rec.setActive(true);
    }
    const std::uint64_t loop_ns = nowNs() - loop0;
    rec.setActive(false);

    TracedSim r;
    const std::uint64_t hops = net.flitHops();
    r.digest = simDigest(net, hops);
    r.sane = simSane(net, hops);
    const auto &run = rec[Layer::Run];
    r.runSpanS = seconds(run.inclusiveNs);

    // Self times add up to the run span by construction (see
    // SpanRecorder). What can go wrong is the tracing itself: the run
    // spans plus the bench's oracle sweeps must account for the loop's
    // wall time, up to the loop's own bookkeeping.
    const std::uint64_t covered = run.inclusiveNs + oracle_ns;
    r.spansCoverLoop =
        covered <= loop_ns && loop_ns - covered <= 1000000 + loop_ns / 100;

    const double h = static_cast<double>(std::max<std::uint64_t>(hops, 1));
    const SimStats &s = net.stats();
    auto calls = [&](Layer l) {
        return static_cast<double>(rec[l].calls);
    };
    auto self = [&](Layer l) {
        return static_cast<double>(rec[l].selfNs);
    };
    auto &m = r.layer;
    m["sim.self_ns_per_flit_hop"] = self(Layer::Run) / h;
    m["router.va_ns_per_flit_hop"] =
        static_cast<double>(net.vaNanos()) / h;
    m["router.sa_ns_per_flit_hop"] =
        static_cast<double>(net.saNanos()) / h;
    m["sim.oracle_ms_per_sweep"] =
        static_cast<double>(oracle_ns) * 1e-6 /
        static_cast<double>(std::max<std::uint64_t>(sweeps, 1));
    m["sim.oracle_sweeps"] = static_cast<double>(sweeps);
    m["sim.flit_hops"] = static_cast<double>(hops);
    m["sim.delivered"] = static_cast<double>(s.wDelivered);
    m["sim.generated"] = static_cast<double>(s.wGenerated);
    m["detection.cycle_end_calls"] = calls(Layer::DetCycleEnd);
    m["detection.cycle_end_ns"] = self(Layer::DetCycleEnd);
    m["detection.routing_failed_calls"] = calls(Layer::DetRoutingFailed);
    m["detection.routing_failed_ns"] = self(Layer::DetRoutingFailed);
    m["detection.other_hook_calls"] = calls(Layer::DetOther);
    m["detection.other_hook_ns"] = self(Layer::DetOther);
    m["detection.verdicts"] = static_cast<double>(counters.verdicts);
    m["detection.true_verdict_ratio"] =
        s.wDetectionEvents > 0
            ? static_cast<double>(s.wTrueDetections) /
                  static_cast<double>(s.wDetectionEvents)
            : 0.0;
    m["detection.ctrl_flits"] =
        static_cast<double>(s.windowCtrlFlits());
    m["routing.route_calls"] = calls(Layer::Route);
    m["routing.route_ns"] = self(Layer::Route);
    m["routing.route_calls_per_flit_hop"] = calls(Layer::Route) / h;
    m["traffic.destination_calls"] = calls(Layer::TrafficDest);
    m["traffic.destination_ns"] = self(Layer::TrafficDest);
    m["traffic.length_draws"] = calls(Layer::TrafficLength);
    m["recovery.detected_calls"] = calls(Layer::RecoveryDetected);
    m["recovery.tick_ns"] = self(Layer::RecoveryTick);
    m["recovery.pending_max"] = static_cast<double>(counters.pendingMax);
    return r;
}

// ---------------------------------------------------------------------
// Tables.

struct TableUnit
{
    double setupS = 0.0; ///< the saturation search
    double wallS = 0.0;
    double cpuS = 0.0;   ///< summed TableResult::busySeconds
    double satRate = 0.0;
    double cycles = 0.0;
    double deliveredFlits = 0.0;
    std::vector<double> cellS; ///< per-cell host seconds (traced)
    std::string digest;
};

SimulationConfig
searchProbe(const Workload &w)
{
    SimulationConfig probe = w.sim;
    probe.detector = "ndm:32";
    probe.lengths = "s";
    return probe;
}

TableSpec
tableSpec(const Workload &w, Cycle warmup, Cycle measure)
{
    TableSpec spec;
    spec.title = w.name;
    spec.base = w.sim;
    spec.detectorTemplate = w.sim.detector;
    spec.thresholds = w.shape.thresholds;
    spec.sizeClasses = w.shape.sizes;
    for (const double f : w.shape.loadFractions) {
        spec.rates.push_back(f * w.shape.satRate);
        spec.rateLabels.push_back(std::to_string(f) + "x");
    }
    spec.warmup = warmup;
    spec.measure = measure;
    return spec;
}

/**
 * Per-cell host time from the progress callback, which fires on the
 * worker thread as each cell starts: a cell ends when the next one on
 * its thread starts, and a thread's last cell is timed to the end of
 * runTable (an upper bound).
 */
class CellClock
{
  public:
    void
    mark()
    {
        const std::uint64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        starts_[std::this_thread::get_id()].push_back(t);
    }

    std::vector<double>
    durations(std::uint64_t end) const
    {
        std::vector<double> out;
        for (const auto &[tid, starts] : starts_) {
            for (std::size_t i = 0; i < starts.size(); ++i) {
                const std::uint64_t e =
                    i + 1 < starts.size() ? starts[i + 1] : end;
                out.push_back(seconds(e - starts[i]));
            }
        }
        return out;
    }

  private:
    std::mutex mutex_;
    std::map<std::thread::id, std::vector<std::uint64_t>> starts_;
};

TableUnit
runTableUnit(const Workload &w, unsigned jobs, bool small, bool timed_cells)
{
    const Cycle warmup = small ? w.anchorWarmup : w.warmup;
    const Cycle measure = small ? w.anchorMeasure : w.measure;
    const Cycle s_warmup = small ? w.anchorWarmup : w.shape.searchWarmup;
    const Cycle s_measure =
        small ? w.anchorMeasure : w.shape.searchMeasure;
    const unsigned s_iters = small ? 1 : w.shape.searchIterations;

    CellClock clock;
    ExperimentRunner::Progress progress;
    if (timed_cells)
        progress = [&clock](const std::string &) { clock.mark(); };
    const ExperimentRunner runner(progress, jobs);

    TableUnit u;
    const std::uint64_t t0 = nowNs();
    u.satRate = runner.findSaturationRate(
        searchProbe(w), 0.02, w.sim.injPorts * 1.0, 0.05, s_warmup,
        s_measure, s_iters);
    const std::uint64_t t1 = nowNs();
    const TableSpec spec = tableSpec(w, warmup, measure);
    const TableResult result = runner.runTable(spec);
    const std::uint64_t t2 = nowNs();
    u.setupS = seconds(t1 - t0);
    u.wallS = seconds(t2 - t1);
    u.cpuS = result.busySeconds;
    if (timed_cells)
        u.cellS = clock.durations(t2);

    const auto topo =
        makeTopology(w.sim.topology, w.sim.radix, w.sim.dims,
                     w.sim.radices);
    const double nodes = static_cast<double>(topo->numNodes());
    std::uint64_t delivered = 0;
    std::uint64_t detected = 0;
    for (const auto &per_rate : result.cells) {
        for (const auto &per_size : per_rate) {
            for (const CellResult &c : per_size) {
                delivered += c.delivered;
                detected += c.detectedMessages;
                u.cycles += static_cast<double>(warmup + measure);
                u.deliveredFlits += std::round(
                    c.acceptedFlitRate * nodes *
                    static_cast<double>(measure));
            }
        }
    }
    std::ostringstream os;
    os << "sat=" << hex(std::bit_cast<std::uint64_t>(u.satRate))
       << ",csv="
       << hex(fnv1a(ExperimentRunner::formatTable(result).renderCsv()))
       << ",delivered=" << delivered << ",detected=" << detected;
    u.digest = os.str();
    return u;
}

/** The traced sample cell of a table workload. */
SimulationConfig
sampleCell(const Workload &w)
{
    SimulationConfig c = w.sim;
    const auto &f = w.shape.loadFractions;
    c.flitRate = f[f.size() / 2] * w.shape.satRate;
    c.lengths = w.shape.sizes.front();
    c.detector.replace(c.detector.find("%T"), 2,
                       std::to_string(w.shape.thresholds.front()));
    return c;
}

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string reference;
    std::string gitSha = "unknown";
    std::string srcHash = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "wnbench: %s\n"
                 "usage: wnbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE [--git-sha SHA] "
                 "[--src-hash HASH]\n"
                 "       wnbench --workload NAME --seed N --record\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--reference")
            a.reference = v;
        else if (k == "--git-sha")
            a.gitSha = v;
        else if (k == "--src-hash")
            a.srcHash = v;
        else
            usage("unknown option " + k);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!a.record && a.reference.empty())
        usage("--reference is required");
    return a;
}

/** Seed of a workload's j-th seed index: @p base, then derived seeds. */
std::uint64_t
unitSeed(std::uint64_t base, unsigned j)
{
    return j == 0 ? base : deriveSeed(base, 0, j);
}

/** One unit's digest: the anchor (short, reference seed) or full. */
std::string
unitDigest(const Workload &w, std::uint64_t seed, bool anchor,
           unsigned jobs)
{
    if (w.table) {
        Workload ws = w;
        ws.sim.seed = seed;
        return runTableUnit(ws, jobs, anchor, false).digest;
    }
    SimulationConfig c = w.sim;
    c.seed = seed;
    return anchor ? runUntraced(c, w.anchorWarmup, w.anchorMeasure).digest
                  : runUntraced(c, w.warmup, w.measure).digest;
}

int
benchMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Pinned execution path: the simulator silently honours these.
    // The job counts change how work is spread over threads, the two
    // cross-checks add a brute-force recompute every cycle, and the
    // crash hook aborts a table part-way.
    for (const char *env :
         {"WORMNET_SIM_JOBS", "WORMNET_JOBS", "WORMNET_CHECK_ACTIVE_SETS",
          "WORMNET_CHECK_SOA", "WORMNET_CRASH_AFTER_CELLS"}) {
        if (std::getenv(env)) {
            std::fprintf(stderr,
                         "wnbench: refusing to run with %s set; "
                         "unset it\n",
                         env);
            return 2;
        }
    }
    if (std::strcmp(WNBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "wnbench: refusing a '%s' build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     WNBENCH_BUILD_TYPE);
        return 2;
    }

    const std::vector<Workload> all = workloads();
    const auto wit = std::find_if(all.begin(), all.end(),
                                  [&](const Workload &w) {
                                      return w.name == args.workload;
                                  });
    if (wit == all.end())
        usage("unknown workload " + args.workload);
    Workload w = *wit;

    // nproc: the CPUs this process may use, not every CPU of the host.
    const std::vector<int> cpus = allowedCpus();
    const unsigned hw = std::max<unsigned>(1, cpus.size());
    const unsigned jobs = w.table ? std::min(hw, 4u) : 1u;

    if (args.record) {
        std::printf("%s anchor %llu %s\n", w.name.c_str(),
                    static_cast<unsigned long long>(kReferenceSeed),
                    unitDigest(w, kReferenceSeed, true, jobs).c_str());
        for (unsigned j = 0; j < w.seeds; ++j) {
            const std::uint64_t seed = unitSeed(args.seed, j);
            std::printf("%s full %llu %s\n", w.name.c_str(),
                        static_cast<unsigned long long>(seed),
                        unitDigest(w, seed, false, jobs).c_str());
        }
        return 0;
    }

    const Reference ref(args.reference);
    Checker chk;

    // Anchor: the workload at the reference seed, briefly, against its
    // committed digest, so every run checks outputs whatever --seed.
    chk.guarded(w.name + " anchor digest", [&] {
        const std::string want = ref.find(w.name, "anchor", kReferenceSeed);
        const std::string got = unitDigest(w, kReferenceSeed, true, jobs);
        if (got != want)
            std::fprintf(stderr, "anchor digest %s, reference %s\n",
                         got.c_str(), want.empty() ? "(none)" : want.c_str());
        return got == want;
    });

    std::map<std::uint64_t, std::string> first_digest; // by seed
    // A unit must repeat the first digest of its seed, and must match
    // the committed one when the reference has its seed.
    auto check_digest = [&](std::uint64_t seed, const std::string &d) {
        const auto [it, fresh] = first_digest.emplace(seed, d);
        const std::string want = ref.find(w.name, "full", seed);
        if (fresh && !want.empty() && d != want) {
            std::fprintf(stderr, "seed %llu: digest %s, reference %s\n",
                         static_cast<unsigned long long>(seed), d.c_str(),
                         want.c_str());
            return false;
        }
        return d == it->second;
    };

    std::vector<UntracedSim> plain;
    std::vector<TracedSim> traced;
    std::vector<TableUnit> tables;
    std::vector<double> construct_ms;

    // digest_checked is false for a table's sample cell, whose digest
    // is only compared between its untraced and traced runs. Both runs
    // of a pair share one CPU; ExperimentRunner's workers are created
    // outside any pin, so tables keep every CPU.
    unsigned pairs = 0;
    auto run_pair = [&](SimulationConfig cfg, unsigned j,
                        bool digest_checked) {
        std::unique_ptr<CpuPin> pin;
        if (!cpus.empty())
            pin = std::make_unique<CpuPin>(cpus[pairs++ % cpus.size()]);
        if (!w.table)
            cfg.seed = unitSeed(args.seed, j);
        chk.guarded(w.name + " untraced simulation", [&] {
            plain.push_back(runUntraced(cfg, w.warmup, w.measure));
            plain.back().seedIndex = j;
            construct_ms.push_back(plain.back().constructS * 1e3);
            return plain.back().sane &&
                   (!digest_checked ||
                    check_digest(cfg.seed, plain.back().digest));
        });
        if (!args.trace)
            return;
        chk.guarded(w.name + " traced simulation", [&] {
            traced.push_back(runTraced(cfg, w.warmup, w.measure));
            const TracedSim &t = traced.back();
            if (!t.spansCoverLoop)
                std::fprintf(stderr, "Network::run spans and oracle "
                                     "sweeps do not cover the loop\n");
            // The untraced twin ran just before with the same config.
            return t.sane && t.spansCoverLoop && !plain.empty() &&
                   t.digest == plain.back().digest;
        });
    };

    w.sim.seed = args.seed;
    const std::uint64_t start = nowNs();
    const auto deadline = start + static_cast<std::uint64_t>(
                                      args.seconds * 1e9);
    // Untraced runs cover every seed of the workload at least once;
    // traced runs stay on --seed, so their counts are exact.
    const unsigned min_units =
        args.trace ? kMinUnits : std::max(kMinUnits, w.seeds);
    unsigned units = 0;
    do {
        if (w.table) {
            chk.guarded(w.name + " table", [&] {
                tables.push_back(runTableUnit(w, jobs, false, args.trace));
                return check_digest(args.seed, tables.back().digest);
            });
            if (args.trace && !tables.empty())
                run_pair(sampleCell(w), 0, false);
        } else {
            run_pair(w.sim, args.trace ? 0 : units % w.seeds, true);
        }
        ++units;
        if (w.table && !tables.empty())
            std::fprintf(stderr, "unit %u: search %.4f s, table %.4f s\n",
                         units, tables.back().setupS, tables.back().wallS);
        else if (!plain.empty())
            std::fprintf(stderr,
                         "unit %u (seed #%u): setup %.4f s, window %.4f s\n",
                         units, plain.back().seedIndex, plain.back().setupS,
                         plain.back().measureS);
    } while ((nowNs() < deadline || units < min_units) &&
             units < kMaxUnits);

    // End-to-end metrics: medians over each seed's units, then summed
    // (work and window time) or averaged (per-unit times) over seeds.
    struct Sample
    {
        double setup, wall, cpu, window, cycles, hops;
    };
    std::map<unsigned, std::vector<Sample>> by_seed;
    for (const TableUnit &u : tables)
        by_seed[0].push_back({u.setupS, u.wallS, u.cpuS, u.wallS, u.cycles,
                              u.deliveredFlits});
    if (!w.table) {
        for (const UntracedSim &u : plain)
            by_seed[u.seedIndex].push_back(
                {u.setupS, u.wallS, u.cpuS, u.measureS,
                 static_cast<double>(w.measure),
                 static_cast<double>(u.hops)});
    }
    double cycles = 0.0, hops = 0.0, window = 0.0;
    double setup = 0.0, wall = 0.0, cpu = 0.0;
    for (const auto &[j, samples] : by_seed) {
        auto med = [&](double Sample::*field) {
            std::vector<double> v;
            for (const Sample &x : samples)
                v.push_back(x.*field);
            return median(v);
        };
        cycles += samples.front().cycles;
        hops += samples.front().hops;
        window += med(&Sample::window);
        setup += med(&Sample::setup);
        wall += med(&Sample::wall);
        cpu += med(&Sample::cpu);
    }
    const double n_seeds = std::max<double>(1.0, by_seed.size());
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"sim_cycles_per_s", "cycles/s", window > 0 ? cycles / window : 0},
            {"flit_hops_per_s", "hops/s", window > 0 ? hops / window : 0},
            {"table_wall_s", "s", wall / n_seeds},
            {"table_cpu_s", "s", cpu / n_seeds},
            {"setup_s", "s", setup / n_seeds},
            {"peak_rss_mb", "MB", peakRssMb()},
        };
    } else {
        std::map<std::string, std::vector<double>> samples;
        for (const TracedSim &t : traced)
            for (const auto &[k, v] : t.layer)
                samples[k].push_back(v);
        // Unit per per-layer metric, in report order.
        static const std::pair<const char *, const char *> kLayer[] = {
            {"sim.self_ns_per_flit_hop", "ns/hop"},
            {"router.va_ns_per_flit_hop", "ns/hop"},
            {"router.sa_ns_per_flit_hop", "ns/hop"},
            {"sim.oracle_ms_per_sweep", "ms"},
            {"sim.oracle_sweeps", "count"},
            {"sim.flit_hops", "count"},
            {"sim.delivered", "count"},
            {"sim.generated", "count"},
            {"detection.cycle_end_calls", "count"},
            {"detection.cycle_end_ns", "ns"},
            {"detection.routing_failed_calls", "count"},
            {"detection.routing_failed_ns", "ns"},
            {"detection.other_hook_calls", "count"},
            {"detection.other_hook_ns", "ns"},
            {"detection.verdicts", "count"},
            {"detection.true_verdict_ratio", "ratio"},
            {"detection.ctrl_flits", "count"},
            {"routing.route_calls", "count"},
            {"routing.route_ns", "ns"},
            {"routing.route_calls_per_flit_hop", "calls/hop"},
            {"traffic.destination_calls", "count"},
            {"traffic.destination_ns", "ns"},
            {"traffic.length_draws", "count"},
            {"recovery.detected_calls", "count"},
            {"recovery.tick_ns", "ns"},
            {"recovery.pending_max", "count"},
        };
        for (const auto &[name, unit] : kLayer)
            metrics.push_back({name, unit, median(samples[name])});

        // A "cell" is one table cell, or one whole simulation.
        std::vector<double> cells, efficiency;
        if (w.table) {
            for (const TableUnit &u : tables) {
                cells.insert(cells.end(), u.cellS.begin(), u.cellS.end());
                efficiency.push_back(u.cpuS / (u.wallS * jobs));
            }
        } else {
            for (const UntracedSim &u : plain) {
                cells.push_back(u.wallS);
                efficiency.push_back(u.cpuS / u.wallS);
            }
        }
        std::vector<double> traced_s, plain_s;
        for (const TracedSim &t : traced)
            traced_s.push_back(t.runSpanS);
        for (const UntracedSim &u : plain)
            plain_s.push_back(u.measureS);
        const double base = median(plain_s);
        metrics.push_back({"core.construct_ms", "ms", median(construct_ms)});
        metrics.push_back({"core.cell_s_p50", "s", quantile(cells, 0.5)});
        metrics.push_back({"core.cell_s_p90", "s", quantile(cells, 0.9)});
        metrics.push_back(
            {"core.parallel_efficiency", "ratio", median(efficiency)});
        metrics.push_back({"trace.overhead_ratio", "ratio",
                           base > 0 ? median(traced_s) / base : 0.0});
    }

    std::fprintf(stderr, "%s seed=%llu trace=%d: %u units, %u/%u checks "
                         "failed\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.trace ? 1 : 0, units, chk.failed, chk.attempted);
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());

    std::printf("{\"fingerprint\": {\"cpu_model\": %s, \"nproc\": %u, "
                "\"compiler\": %s, \"build_type\": %s, "
                "\"contracts\": %s, \"git_sha\": %s, \"src_sha256\": %s, "
                "\"jobs\": %u, \"seed\": %llu, \"workload\": %s, "
                "\"trace\": %d, \"digest\": %s}}\n",
                jsonString(cpuModel()).c_str(), hw,
                jsonString(WNBENCH_COMPILER).c_str(),
                jsonString(WNBENCH_BUILD_TYPE).c_str(),
                jsonString(WNBENCH_CONTRACTS).c_str(),
                jsonString(args.gitSha).c_str(),
                jsonString(args.srcHash).c_str(), jobs,
                static_cast<unsigned long long>(args.seed),
                jsonString(w.name).c_str(), args.trace ? 1 : 0,
                jsonString(first_digest[args.seed]).c_str());

    std::string out = "{\"correct\": ";
    out += chk.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(chk.attempted);
    out += ", \"failed\": " + std::to_string(chk.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wnbench: %s\n", e.what());
        return 2;
    }
}
