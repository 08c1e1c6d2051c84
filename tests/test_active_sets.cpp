/**
 * @file
 * Differential tests for the derived state that drives the hot
 * simulation loop: the activity sets (routable input VCs, allocated
 * output VCs, active injectors, detector-active nodes), the packed
 * per-port VC masks, the route-candidate cache and the running
 * source-queue counter.
 *
 * Every test here constructs its Network with
 * WORMNET_CHECK_ACTIVE_SETS=1, which makes Network::step() recompute
 * that state from the authoritative per-VC structs at the end of
 * every cycle and panic on any divergence — so simply running a
 * scenario under the flag is the assertion. The scenarios are chosen
 * to cross every maintenance path: injection, routing grants,
 * credit stalls, worms stretched thin, tail-flit releases, recovery
 * drains, kills with re-injection, fault-stranded worms and online
 * reconfiguration.
 *
 * The checkpoint test additionally proves the derived state
 * round-trips through the v3 image with worms mid-flight: restore
 * rebuilds it from the serialized authoritative state, and the byte
 * streams of both simulations must stay equal while the cross-check
 * keeps auditing every subsequent cycle.
 */

#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "core/simulation.hh"
#include "sim/validate.hh"

namespace wormnet
{
namespace
{

/** Enables the per-cycle brute-force cross-check for Networks
 *  constructed while the guard is alive (the flag is latched in the
 *  Network constructor). */
class CheckActiveSetsGuard
{
  public:
    CheckActiveSetsGuard()
    {
        ::setenv("WORMNET_CHECK_ACTIVE_SETS", "1", 1);
    }
    ~CheckActiveSetsGuard()
    {
        ::unsetenv("WORMNET_CHECK_ACTIVE_SETS");
    }
};

SimulationConfig
baseConfig(std::uint64_t seed = 7)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = 3;
    cfg.bufDepth = 4;
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.oraclePeriod = 64;
    cfg.seed = seed;
    return cfg;
}

std::vector<std::uint8_t>
snapshot(const Simulation &sim)
{
    Serializer s;
    sim.net().saveState(s);
    return s.bytes();
}

TEST(ActiveSets, CrossCheckUniformTrafficWithDeadlockRecovery)
{
    // Fully adaptive routing near saturation: routing grants, switch
    // traversals, deadlock verdicts and progressive drains all churn
    // the sets every cycle.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.45;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(500);
        validateNetworkInvariants(net);
    }
    EXPECT_GT(net.stats().delivered, 500u);
}

TEST(ActiveSets, CrossCheckFaultsAndRegressiveRecovery)
{
    // Link and router faults with repair plus regressive recovery:
    // exercises stranded-worm kills, whole-worm releases, abandoned
    // messages and killed-then-requeued re-injection, all of which
    // must keep every counter exact.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.2;
    cfg.recovery = "regressive:16";
    cfg.faults = "link:5>6@200,router:9@800,rate:2e-5";
    cfg.faultRepair = 400;
    cfg.maxRetries = 4;
    cfg.seed = 21;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(400);
        validateNetworkInvariants(net);
    }
    const SimStats &s = net.stats();
    EXPECT_GE(s.faultsInjected, 2u);
    EXPECT_GT(s.delivered, 100u);
}

TEST(ActiveSets, CrossCheckUngatedPdmFullSweep)
{
    // Ungated PDM is not idle-cycle-end stable, so every node must
    // stay in detActive_ and hear every cycle end; the occupied mask
    // it is fed comes from the allocation masks, which the
    // cross-check recomputes every cycle.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.detector = "pdm:16";
    cfg.flitRate = 0.35;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.run(2000);
    validateNetworkInvariants(net);
    EXPECT_GT(net.stats().delivered, 200u);
}

TEST(ActiveSets, CrossCheckDishaRecoveryAndHotspot)
{
    // Hotspot traffic concentrates load (long source queues, busy
    // injectors) while DISHA's token drains consume worms link by
    // link from the head — a different release order than
    // progressive's.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.pattern = "hotspot:0.3:0";
    cfg.recovery = "disha:1";
    cfg.detector = "ndm:16";
    cfg.flitRate = 0.3;
    cfg.maxSourceQueue = 8;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 6; ++chunk) {
        net.run(400);
        validateNetworkInvariants(net);
    }
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(ActiveSets, TotalQueuedMatchesQueueSum)
{
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 2.0; // far past saturation: queues actually fill
    cfg.maxSourceQueue = 16;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.run(1500);
    std::size_t sum = 0;
    for (NodeId n = 0; n < net.numNodes(); ++n)
        sum += net.sourceQueueLength(n);
    EXPECT_EQ(net.totalQueued(), sum);
    EXPECT_GT(net.totalQueued(), 0u);
}

TEST(ActiveSets, CheckFlagDoesNotChangeResults)
{
    // The cross-check must be purely observational: identical stats
    // with and without it.
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.4;
    cfg.faults = "link:1>2@300";
    cfg.faultRepair = 200;

    SimStats with_check;
    {
        CheckActiveSetsGuard guard;
        Simulation sim(cfg);
        sim.net().run(2500);
        with_check = sim.net().stats();
    }
    Simulation plain(cfg);
    plain.net().run(2500);
    const SimStats &s = plain.net().stats();

    EXPECT_EQ(s.generated, with_check.generated);
    EXPECT_EQ(s.injected, with_check.injected);
    EXPECT_EQ(s.delivered, with_check.delivered);
    EXPECT_EQ(s.detections, with_check.detections);
    EXPECT_EQ(s.kills, with_check.kills);
    EXPECT_EQ(s.flitsDelivered, with_check.flitsDelivered);
    EXPECT_EQ(s.faultKills, with_check.faultKills);
}

TEST(SoaLayout, CrossCheckSaturatedTraffic)
{
    // Past saturation every switch-candidate transition fires:
    // allocations, credit stalls, empty-fifo stretched worms,
    // credit-replay re-arms and tail releases.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig(11);
    cfg.flitRate = 0.5;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(400);
        validateNetworkInvariants(net);
    }
    EXPECT_GT(net.stats().delivered, 300u);
}

TEST(SoaLayout, CrossCheckFaultsAndRegressiveRecovery)
{
    // Fault kills retract worm heads (releaseOutputVc on live grants)
    // and regressive recovery replays whole worms — both must leave
    // the candidate masks exactly consistent.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig(23);
    cfg.flitRate = 0.25;
    cfg.recovery = "regressive:16";
    cfg.faults = "link:5>6@200,router:9@800,rate:2e-5";
    cfg.faultRepair = 400;
    cfg.maxRetries = 4;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(400);
        validateNetworkInvariants(net);
    }
    EXPECT_GE(net.stats().faultsInjected, 2u);
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(SoaLayout, CrossCheckOnlineReconfiguration)
{
    // Draining links/routers out of service and re-adding them walks
    // the same head-retraction and release paths as faults but via
    // the reconfiguration manager's quiesce protocol.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig(11);
    cfg.flitRate = 0.3;
    cfg.reconfig = "link-:0>1@300,routing:duato@600,link+:0>1@900";
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 6; ++chunk) {
        net.run(300);
        validateNetworkInvariants(net);
    }
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(SoaLayout, CheckpointRoundTripWithWormsMidFlight)
{
    // Save at saturation (worms guaranteed mid-flight), restore into
    // a fresh simulation, and require bitwise-equal state at the save
    // point and again after running both forward — with the
    // cross-check auditing the rebuilt derived state every cycle.
    CheckActiveSetsGuard guard;
    SimulationConfig cfg = baseConfig(11);
    cfg.flitRate = 0.5;

    Simulation a(cfg);
    a.net().run(300);
    a.net().startMeasurement();
    a.net().run(300);
    ASSERT_GT(a.net().inFlight(), 0u)
        << "scenario must checkpoint with worms mid-flight";

    const std::string path =
        ::testing::TempDir() + "wormnet_soa_ckpt.bin";
    a.saveCheckpoint(path);

    Simulation b(cfg);
    b.loadCheckpoint(path);
    std::remove(path.c_str());
    EXPECT_EQ(snapshot(a), snapshot(b))
        << "restored state diverges at the save point";

    a.net().run(600);
    b.net().run(600);
    EXPECT_EQ(a.net().now(), b.net().now());
    EXPECT_EQ(snapshot(a), snapshot(b))
        << "resumed run diverged after the save point";
}

TEST(SoaLayout, CheckFlagDoesNotChangeResults)
{
    // The cross-check must be purely observational: identical stats
    // with and without it.
    SimulationConfig cfg = baseConfig(11);
    cfg.flitRate = 0.45;

    SimStats with_check;
    {
        CheckActiveSetsGuard guard;
        Simulation sim(cfg);
        sim.net().run(2500);
        with_check = sim.net().stats();
    }
    Simulation plain(cfg);
    plain.net().run(2500);
    const SimStats &s = plain.net().stats();

    EXPECT_EQ(s.generated, with_check.generated);
    EXPECT_EQ(s.injected, with_check.injected);
    EXPECT_EQ(s.delivered, with_check.delivered);
    EXPECT_EQ(s.detections, with_check.detections);
    EXPECT_EQ(s.kills, with_check.kills);
    EXPECT_EQ(s.flitsDelivered, with_check.flitsDelivered);
}

} // namespace
} // namespace wormnet
