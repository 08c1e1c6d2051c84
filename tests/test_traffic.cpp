/**
 * @file
 * Unit tests for the traffic library: destination patterns, length
 * distributions and the per-node generation process.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/log.hh"
#include "topology/mixed_torus.hh"
#include "topology/torus.hh"
#include "traffic/generator.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

namespace wormnet
{
namespace
{

TEST(UniformPattern, NeverSelf)
{
    const KAryNCube topo(4, 2);
    UniformPattern p(topo);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const NodeId d = p.destination(5, rng);
        EXPECT_NE(d, 5u);
        EXPECT_LT(d, topo.numNodes());
    }
}

TEST(UniformPattern, CoversAllOtherNodes)
{
    const KAryNCube topo(4, 1);
    UniformPattern p(topo);
    Rng rng(2);
    std::map<NodeId, int> hits;
    for (int i = 0; i < 3000; ++i)
        ++hits[p.destination(0, rng)];
    EXPECT_EQ(hits.size(), 3u);
    for (const auto &kv : hits)
        EXPECT_NEAR(kv.second, 1000, 150);
}

TEST(LocalityPattern, WithinRadius)
{
    const KAryNCube topo(8, 2);
    LocalityPattern p(topo, 3);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const NodeId d = p.destination(10, rng);
        EXPECT_NE(d, 10u);
        EXPECT_LE(topo.distance(10, d), 3u);
    }
}

TEST(LocalityPattern, RadiusOneIsNearestNeighbours)
{
    const KAryNCube topo(8, 2);
    LocalityPattern p(topo, 1);
    Rng rng(4);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(topo.distance(0, p.destination(0, rng)), 1u);
}

TEST(LocalityPattern, TooLargeRadiusIsFatal)
{
    const KAryNCube topo(4, 2);
    EXPECT_THROW(LocalityPattern(topo, 2), FatalError);
    EXPECT_THROW(LocalityPattern(topo, 0), FatalError);
}

TEST(BitReversal, KnownValues)
{
    const KAryNCube topo(8, 2); // 64 nodes, 6 bits
    BitReversalPattern p(topo);
    Rng rng(5);
    EXPECT_EQ(p.destination(0b000001, rng), 0b100000u);
    EXPECT_EQ(p.destination(0b100000, rng), 0b000001u);
    EXPECT_EQ(p.destination(0b101101, rng), 0b101101u); // palindrome
    EXPECT_EQ(p.destination(0, rng), 0u);
}

TEST(BitReversal, IsInvolution)
{
    const KAryNCube topo(8, 3); // 512 nodes
    BitReversalPattern p(topo);
    Rng rng(6);
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        EXPECT_EQ(p.destination(p.destination(n, rng), rng), n);
}

TEST(PerfectShuffle, RotatesLeft)
{
    const KAryNCube topo(8, 2); // 6 bits
    PerfectShufflePattern p(topo);
    Rng rng(7);
    EXPECT_EQ(p.destination(0b100000, rng), 0b000001u);
    EXPECT_EQ(p.destination(0b000001, rng), 0b000010u);
    EXPECT_EQ(p.destination(0b110101, rng), 0b101011u);
}

TEST(PerfectShuffle, SixApplicationsIdentity)
{
    const KAryNCube topo(8, 2); // 6 bits -> period divides 6
    PerfectShufflePattern p(topo);
    Rng rng(8);
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        NodeId v = n;
        for (int i = 0; i < 6; ++i)
            v = p.destination(v, rng);
        EXPECT_EQ(v, n);
    }
}

TEST(Butterfly, SwapsEndBits)
{
    const KAryNCube topo(8, 2); // 6 bits
    ButterflyPattern p(topo);
    Rng rng(9);
    EXPECT_EQ(p.destination(0b100000, rng), 0b000001u);
    EXPECT_EQ(p.destination(0b000001, rng), 0b100000u);
    EXPECT_EQ(p.destination(0b100001, rng), 0b100001u);
    EXPECT_EQ(p.destination(0b010110, rng), 0b010110u);
}

TEST(Transpose, SwapsHalves)
{
    const KAryNCube topo(4, 2); // 16 nodes, 4 bits
    TransposePattern p(topo);
    Rng rng(10);
    EXPECT_EQ(p.destination(0b0011, rng), 0b1100u);
    EXPECT_EQ(p.destination(0b0110, rng), 0b1001u);
}

TEST(BitPatterns, RequirePowerOfTwo)
{
    const KAryNCube topo(3, 2); // 9 nodes
    EXPECT_THROW(BitReversalPattern{topo}, FatalError);
    EXPECT_THROW(PerfectShufflePattern{topo}, FatalError);
}

TEST(HotSpot, FractionApproximatelyRespected)
{
    const KAryNCube topo(8, 2);
    HotSpotPattern p(std::make_unique<UniformPattern>(topo), 20, 0.05);
    Rng rng(11);
    int hot = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        hot += p.destination(0, rng) == 20;
    // 5% hot-spot traffic plus the uniform share (1/63).
    const double expected = 0.05 + (1.0 - 0.05) / 63.0;
    EXPECT_NEAR(hot / double(n), expected, 0.01);
}

TEST(HotSpot, HotNodeItselfSendsElsewhere)
{
    const KAryNCube topo(4, 2);
    HotSpotPattern p(std::make_unique<UniformPattern>(topo), 7, 0.05);
    Rng rng(12);
    for (int i = 0; i < 500; ++i)
        EXPECT_NE(p.destination(7, rng), 7u);
}

TEST(Tornado, HalfWayShift)
{
    const KAryNCube topo(8, 2);
    TornadoPattern p(topo);
    Rng rng(13);
    // (k-1)/2 = 3 hops in each dimension.
    const NodeId d = p.destination(0, rng);
    EXPECT_EQ(topo.coordinate(d, 0), 3u);
    EXPECT_EQ(topo.coordinate(d, 1), 3u);
}

TEST(LocalityPattern, MixedRadixGuardsSmallestDimension)
{
    // Radius must fit the *smallest* dimension of a mixed torus.
    const MixedRadixTorus topo({8, 4});
    EXPECT_NO_THROW(LocalityPattern(topo, 1));
    EXPECT_THROW(LocalityPattern(topo, 2), FatalError);
}

TEST(Tornado, MixedRadixShiftsPerDimension)
{
    const MixedRadixTorus topo({8, 4});
    TornadoPattern p(topo);
    Rng rng(24);
    const NodeId d = p.destination(0, rng);
    EXPECT_EQ(topo.coordinate(d, 0), (8u - 1) / 2);
    EXPECT_EQ(topo.coordinate(d, 1), (4u - 1) / 2);
}

TEST(PatternFactory, BuildsEveryKind)
{
    const KAryNCube topo(8, 2);
    for (const char *spec :
         {"uniform", "locality", "locality:2", "bitrev", "shuffle",
          "butterfly", "transpose", "tornado", "hotspot",
          "hotspot:0.1", "hotspot:0.1:5"}) {
        const auto p = makePattern(spec, topo);
        ASSERT_NE(p, nullptr) << spec;
        Rng rng(14);
        const NodeId d = p->destination(1, rng);
        EXPECT_LT(d, topo.numNodes()) << spec;
    }
}

TEST(PatternFactory, UnknownIsFatal)
{
    const KAryNCube topo(4, 2);
    EXPECT_THROW(makePattern("nonsense", topo), FatalError);
    EXPECT_THROW(makePattern("", topo), FatalError);
}

TEST(PatternFactory, MalformedParametersAreFatal)
{
    const KAryNCube topo(8, 2);
    EXPECT_THROW(makePattern("hotspot:abc", topo), FatalError);
    EXPECT_THROW(makePattern("hotspot:0.05:5x", topo), FatalError);
    EXPECT_THROW(makePattern("hotspot:0.05:-1", topo), FatalError);
    EXPECT_THROW(makePattern("hotspot:0.05:5:6", topo), FatalError);
    EXPECT_THROW(makePattern("hotspot:nan", topo), FatalError);
    EXPECT_THROW(makePattern("locality:two", topo), FatalError);
    EXPECT_THROW(makePattern("uniform:3", topo), FatalError);
}

TEST(FixedLength, AlwaysSame)
{
    FixedLength len(16);
    Rng rng(15);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(len.draw(rng), 16u);
    EXPECT_DOUBLE_EQ(len.mean(), 16.0);
    EXPECT_EQ(len.maxLength(), 16u);
}

TEST(MixLength, RespectsWeights)
{
    MixLength len({{16, 0.6}, {64, 0.4}});
    Rng rng(16);
    int short_count = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const unsigned v = len.draw(rng);
        ASSERT_TRUE(v == 16 || v == 64);
        short_count += v == 16;
    }
    EXPECT_NEAR(short_count / double(n), 0.6, 0.02);
    EXPECT_DOUBLE_EQ(len.mean(), 0.6 * 16 + 0.4 * 64);
    EXPECT_EQ(len.maxLength(), 64u);
}

TEST(MixLength, NormalisesWeights)
{
    MixLength len({{8, 3.0}, {32, 1.0}});
    EXPECT_DOUBLE_EQ(len.mean(), 0.75 * 8 + 0.25 * 32);
}

TEST(UniformLength, StaysInRange)
{
    UniformLength len(4, 12);
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
        const unsigned v = len.draw(rng);
        EXPECT_GE(v, 4u);
        EXPECT_LE(v, 12u);
    }
    EXPECT_DOUBLE_EQ(len.mean(), 8.0);
}

TEST(LengthFactory, PaperClasses)
{
    Rng rng(18);
    EXPECT_EQ(makeLengthDistribution("s")->draw(rng), 16u);
    EXPECT_EQ(makeLengthDistribution("l")->draw(rng), 64u);
    EXPECT_EQ(makeLengthDistribution("L")->draw(rng), 256u);
    const auto sl = makeLengthDistribution("sl");
    EXPECT_DOUBLE_EQ(sl->mean(), 0.6 * 16 + 0.4 * 64);
    EXPECT_EQ(makeLengthDistribution("48")->draw(rng), 48u);
    const auto mix = makeLengthDistribution("mix:8x1,24x1");
    EXPECT_DOUBLE_EQ(mix->mean(), 16.0);
    const auto uni = makeLengthDistribution("uniform:2:6");
    EXPECT_DOUBLE_EQ(uni->mean(), 4.0);
}

TEST(LengthFactory, BadSpecsFatal)
{
    EXPECT_THROW(makeLengthDistribution("xyz"), FatalError);
    EXPECT_THROW(makeLengthDistribution("0"), FatalError);
    EXPECT_THROW(makeLengthDistribution("mix:16"), FatalError);
    EXPECT_THROW(makeLengthDistribution("uniform:9"), FatalError);
    EXPECT_THROW(makeLengthDistribution("uniform:a:b"), FatalError);
    EXPECT_THROW(makeLengthDistribution("uniform:2:6:9"), FatalError);
    EXPECT_THROW(makeLengthDistribution("mix:ax1"), FatalError);
    EXPECT_THROW(makeLengthDistribution("mix:16xabc"), FatalError);
    EXPECT_THROW(makeLengthDistribution("16x"), FatalError);
    EXPECT_THROW(makeLengthDistribution("4294967296"), FatalError);
}

TEST(Generator, RateMatchesRequested)
{
    const KAryNCube topo(4, 2);
    UniformPattern pattern(topo);
    FixedLength lengths(16);
    NodeGenerator gen(0, pattern, lengths, 0.32, Rng(19));
    std::uint64_t flits = 0;
    const int cycles = 50000;
    for (int i = 0; i < cycles; ++i) {
        if (const auto m = gen.tick())
            flits += m->length;
    }
    EXPECT_NEAR(flits / double(cycles), 0.32, 0.02);
}

TEST(Generator, ZeroRateGeneratesNothing)
{
    const KAryNCube topo(4, 2);
    UniformPattern pattern(topo);
    FixedLength lengths(16);
    NodeGenerator gen(0, pattern, lengths, 0.0, Rng(20));
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(gen.tick().has_value());
}

TEST(Generator, ExcessiveRateIsFatal)
{
    const KAryNCube topo(4, 2);
    UniformPattern pattern(topo);
    FixedLength lengths(4);
    EXPECT_THROW(NodeGenerator(0, pattern, lengths, 5.0, Rng(21)),
                 FatalError);
}

TEST(Generator, SelfDropsCountedForSelfMappingPatterns)
{
    const KAryNCube topo(8, 2);
    BitReversalPattern pattern(topo); // id 0 maps to itself
    FixedLength lengths(16);
    NodeGenerator gen(0, pattern, lengths, 0.5, Rng(22));
    for (int i = 0; i < 2000; ++i)
        EXPECT_FALSE(gen.tick().has_value());
    EXPECT_GT(gen.selfDrops(), 0u);
}

TEST(Generator, SetFlitRateTakesEffect)
{
    const KAryNCube topo(4, 2);
    UniformPattern pattern(topo);
    FixedLength lengths(16);
    NodeGenerator gen(0, pattern, lengths, 0.0, Rng(23));
    gen.setFlitRate(0.16);
    int msgs = 0;
    for (int i = 0; i < 20000; ++i)
        msgs += gen.tick().has_value();
    EXPECT_NEAR(msgs / 20000.0, 0.01, 0.003);
}

} // namespace
} // namespace wormnet
