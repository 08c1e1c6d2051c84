/**
 * @file
 * Unit tests for the topology library: coordinates, neighbours,
 * wraparound, minimal-direction computation and the port-numbering
 * convention, on tori and meshes of several shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/log.hh"
#include "common/rng.hh"
#include "topology/mesh.hh"
#include "topology/mixed_torus.hh"
#include "topology/torus.hh"

namespace wormnet
{
namespace
{

TEST(Torus, SizesAndName)
{
    const KAryNCube t(8, 3);
    EXPECT_EQ(t.numNodes(), 512u);
    EXPECT_EQ(t.numDims(), 3u);
    EXPECT_EQ(t.radix(), 8u);
    EXPECT_EQ(t.numNetPorts(), 6u);
    EXPECT_TRUE(t.wraparound());
    EXPECT_EQ(t.name(), "8-ary 3-cube (torus)");
}

TEST(Torus, CoordinateRoundTrip)
{
    const KAryNCube t(5, 3);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        NodeId rebuilt = 0;
        NodeId stride = 1;
        for (unsigned d = 0; d < t.numDims(); ++d) {
            rebuilt += t.coordinate(n, d) * stride;
            stride *= t.radix();
        }
        EXPECT_EQ(rebuilt, n);
    }
}

TEST(Torus, NeighborWraparound)
{
    const KAryNCube t(4, 2);
    // Node 3 = (3,0): +x wraps to (0,0) = node 0.
    EXPECT_EQ(t.neighbor(3, 0, true), 0u);
    // Node 0 = (0,0): -x wraps to (3,0) = node 3.
    EXPECT_EQ(t.neighbor(0, 0, false), 3u);
    // +y from (0,0) is (0,1) = node 4.
    EXPECT_EQ(t.neighbor(0, 1, true), 4u);
    // -y from (0,0) wraps to (0,3) = node 12.
    EXPECT_EQ(t.neighbor(0, 1, false), 12u);
}

TEST(Torus, NeighborInverse)
{
    const KAryNCube t(6, 2);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (unsigned d = 0; d < t.numDims(); ++d) {
            EXPECT_EQ(t.neighbor(t.neighbor(n, d, true), d, false), n);
            EXPECT_EQ(t.neighbor(t.neighbor(n, d, false), d, true), n);
        }
    }
}

TEST(Torus, MinimalStepsPicksShortSide)
{
    const KAryNCube t(8, 1);
    MinimalSteps steps;
    // 0 -> 2: forward (2 hops) shorter than backward (6).
    t.minimalSteps(0, 2, steps);
    EXPECT_EQ(steps[0].dirMask, 0x1);
    EXPECT_EQ(steps[0].hops, 2);
    // 0 -> 6: backward (2 hops) shorter.
    t.minimalSteps(0, 6, steps);
    EXPECT_EQ(steps[0].dirMask, 0x2);
    EXPECT_EQ(steps[0].hops, 2);
    // 0 -> 4: equidistant, both directions minimal.
    t.minimalSteps(0, 4, steps);
    EXPECT_EQ(steps[0].dirMask, 0x3);
    EXPECT_EQ(steps[0].hops, 4);
}

TEST(Torus, MinimalStepsZeroForSameCoord)
{
    const KAryNCube t(4, 3);
    MinimalSteps steps;
    t.minimalSteps(5, 5, steps);
    for (unsigned d = 0; d < 3; ++d) {
        EXPECT_EQ(steps[d].dirMask, 0);
        EXPECT_EQ(steps[d].hops, 0);
    }
}

TEST(Torus, DistanceSymmetric)
{
    const KAryNCube t(5, 2);
    for (NodeId a = 0; a < t.numNodes(); ++a) {
        for (NodeId b = 0; b < t.numNodes(); ++b)
            EXPECT_EQ(t.distance(a, b), t.distance(b, a));
    }
}

TEST(Torus, DistanceMatchesWalk)
{
    const KAryNCube t(8, 3);
    MinimalSteps steps;
    const NodeId src = 37, dst = 481;
    t.minimalSteps(src, dst, steps);
    NodeId cur = src;
    for (unsigned d = 0; d < t.numDims(); ++d) {
        const bool positive = (steps[d].dirMask & 0x1) != 0;
        for (unsigned h = 0; h < steps[d].hops; ++h)
            cur = t.neighbor(cur, d, positive);
    }
    EXPECT_EQ(cur, dst);
}

TEST(Torus, MaxDistanceIsDiameter)
{
    const KAryNCube t(8, 2);
    unsigned max_dist = 0;
    for (NodeId b = 0; b < t.numNodes(); ++b)
        max_dist = std::max(max_dist, t.distance(0, b));
    EXPECT_EQ(max_dist, 2u * (8 / 2));
}

TEST(Torus, RadixTwoHasParallelLinks)
{
    const KAryNCube t(2, 2);
    // With radix 2 the "+" and "-" neighbours coincide.
    EXPECT_EQ(t.neighbor(0, 0, true), t.neighbor(0, 0, false));
    EXPECT_EQ(t.distance(0, 3), 2u);
}

TEST(Torus, InvalidParamsAreFatal)
{
    EXPECT_THROW(KAryNCube(1, 2), FatalError);
    EXPECT_THROW(KAryNCube(4, 0), FatalError);
    EXPECT_THROW(KAryNCube(4, kMaxDims + 1), FatalError);
}

TEST(Mesh, NoWraparound)
{
    const KAryNMesh m(4, 2);
    EXPECT_FALSE(m.wraparound());
    EXPECT_EQ(m.neighbor(3, 0, true), kInvalidNode);
    EXPECT_EQ(m.neighbor(0, 0, false), kInvalidNode);
    EXPECT_EQ(m.neighbor(0, 0, true), 1u);
}

TEST(Mesh, MinimalStepsNeverWrap)
{
    const KAryNMesh m(5, 2);
    MinimalSteps steps;
    m.minimalSteps(0, 4, steps); // (0,0) -> (4,0): 4 hops +x
    EXPECT_EQ(steps[0].dirMask, 0x1);
    EXPECT_EQ(steps[0].hops, 4);
    m.minimalSteps(4, 0, steps);
    EXPECT_EQ(steps[0].dirMask, 0x2);
    EXPECT_EQ(steps[0].hops, 4);
}

TEST(Mesh, DistanceIsManhattan)
{
    const KAryNMesh m(4, 3);
    // (0,0,0) to (3,3,3).
    EXPECT_EQ(m.distance(0, m.numNodes() - 1), 9u);
}

TEST(Topology, LinkPortMapsEachLinkToItsOutPort)
{
    const KAryNCube torus(4, 2);
    const KAryNMesh mesh(4, 2);
    for (const Topology *topo :
         {static_cast<const Topology *>(&torus),
          static_cast<const Topology *>(&mesh)}) {
        for (NodeId n = 0; n < topo->numNodes(); ++n) {
            for (PortId q = 0; q < topo->numNetPorts(); ++q) {
                const NodeId peer =
                    topo->neighbor(n, Topology::dimOfPort(q),
                                   Topology::isPositivePort(q));
                if (peer != kInvalidNode) {
                    EXPECT_EQ(topo->linkPort(n, peer), q);
                }
            }
        }
    }
    EXPECT_EQ(torus.linkPort(0, 5), kInvalidPort); // diagonal
    EXPECT_EQ(mesh.linkPort(0, 3), kInvalidPort);  // no wraparound
    EXPECT_EQ(torus.linkPort(0, 16), kInvalidPort); // out of range
    EXPECT_EQ(torus.linkPort(16, 0), kInvalidPort);
}

TEST(MixedTorus, ShapeAndCoordinates)
{
    const MixedRadixTorus t({8, 4, 2});
    EXPECT_EQ(t.numNodes(), 64u);
    EXPECT_EQ(t.numDims(), 3u);
    EXPECT_EQ(t.radix(), 8u); // largest
    EXPECT_EQ(t.radixOf(0), 8u);
    EXPECT_EQ(t.radixOf(1), 4u);
    EXPECT_EQ(t.radixOf(2), 2u);
    EXPECT_TRUE(t.wraparound());
    EXPECT_EQ(t.name(), "8x4x2 torus");

    // node = x + 8y + 32z
    const NodeId n = 3 + 8 * 2 + 32 * 1;
    EXPECT_EQ(t.coordinate(n, 0), 3u);
    EXPECT_EQ(t.coordinate(n, 1), 2u);
    EXPECT_EQ(t.coordinate(n, 2), 1u);
}

TEST(MixedTorus, MalformedRadicesAreFatal)
{
    for (const char *radices : {"8ax4", "8x", "8x-4", "x4", "8x4x "})
        EXPECT_THROW(makeTopology("torus", 4, 2, radices), FatalError)
            << radices;
    EXPECT_EQ(makeTopology("torus", 4, 2, "8x4")->numNodes(), 32u);
}

TEST(MixedTorus, NeighborsWrapPerDimension)
{
    const MixedRadixTorus t({8, 4});
    // +x from (7,0) wraps to (0,0).
    EXPECT_EQ(t.neighbor(7, 0, true), 0u);
    // +y from (0,3) wraps to (0,0).
    EXPECT_EQ(t.neighbor(3 * 8, 1, true), 0u);
    // Inverse property holds everywhere.
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (unsigned d = 0; d < 2; ++d) {
            EXPECT_EQ(t.neighbor(t.neighbor(n, d, true), d, false),
                      n);
        }
    }
}

TEST(MixedTorus, MinimalStepsUsePerDimRadix)
{
    const MixedRadixTorus t({8, 4});
    MinimalSteps steps;
    // Dim 0 (radix 8): 0 -> 6 goes backward (2 hops).
    // Dim 1 (radix 4): 0 -> 2 is equidistant (2 hops both ways).
    t.minimalSteps(0, 6 + 2 * 8, steps);
    EXPECT_EQ(steps[0].dirMask, 0x2);
    EXPECT_EQ(steps[0].hops, 2);
    EXPECT_EQ(steps[1].dirMask, 0x3);
    EXPECT_EQ(steps[1].hops, 2);
    EXPECT_EQ(t.distance(0, 6 + 2 * 8), 4u);
}

TEST(MixedTorus, InvalidShapesAreFatal)
{
    EXPECT_THROW(MixedRadixTorus({}), FatalError);
    EXPECT_THROW(MixedRadixTorus({8, 1}), FatalError);
    EXPECT_THROW(MixedRadixTorus(std::vector<unsigned>(9, 2)),
                 FatalError);
}

TEST(PortConvention, OutPortAndPeer)
{
    EXPECT_EQ(Topology::outPort(0, true), 0);
    EXPECT_EQ(Topology::outPort(0, false), 1);
    EXPECT_EQ(Topology::outPort(2, true), 4);
    EXPECT_EQ(Topology::dimOfPort(4), 2u);
    EXPECT_TRUE(Topology::isPositivePort(4));
    EXPECT_FALSE(Topology::isPositivePort(5));
    // A "+"-direction link arrives on the peer's "-" port.
    EXPECT_EQ(Topology::peerInPort(0), 1);
    EXPECT_EQ(Topology::peerInPort(1), 0);
    EXPECT_EQ(Topology::peerInPort(4), 5);
}

/** Parameterised sweep: structural invariants across many shapes. */
class TopologyShapes
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TopologyShapes, TorusInvariants)
{
    const auto [radix, dims] = GetParam();
    const KAryNCube t(radix, dims);
    unsigned total = 1;
    for (unsigned d = 0; d < dims; ++d)
        total *= radix;
    EXPECT_EQ(t.numNodes(), total);

    // Every node has exactly 2*dims valid neighbours; distance to a
    // neighbour is 1.
    for (NodeId n = 0; n < std::min<NodeId>(t.numNodes(), 64); ++n) {
        for (unsigned d = 0; d < dims; ++d) {
            for (const bool pos : {true, false}) {
                const NodeId nb = t.neighbor(n, d, pos);
                ASSERT_NE(nb, kInvalidNode);
                EXPECT_EQ(t.distance(n, nb), 1u);
            }
        }
    }
}

TEST_P(TopologyShapes, MinimalStepsSumEqualsDistance)
{
    const auto [radix, dims] = GetParam();
    const KAryNCube t(radix, dims);
    MinimalSteps steps;
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        const NodeId a =
            static_cast<NodeId>(rng.nextBounded(t.numNodes()));
        const NodeId b =
            static_cast<NodeId>(rng.nextBounded(t.numNodes()));
        t.minimalSteps(a, b, steps);
        unsigned sum = 0;
        for (unsigned d = 0; d < dims; ++d) {
            sum += steps[d].hops;
            // Per-dimension hops never exceed half the ring.
            EXPECT_LE(steps[d].hops, radix / 2);
            // dirMask set iff hops > 0.
            EXPECT_EQ(steps[d].dirMask != 0, steps[d].hops > 0);
        }
        EXPECT_EQ(sum, t.distance(a, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyShapes,
    ::testing::Values(std::make_tuple(2u, 2u), std::make_tuple(3u, 2u),
                      std::make_tuple(4u, 2u), std::make_tuple(8u, 2u),
                      std::make_tuple(4u, 3u), std::make_tuple(8u, 3u),
                      std::make_tuple(2u, 4u),
                      std::make_tuple(16u, 1u)));

} // namespace
} // namespace wormnet
