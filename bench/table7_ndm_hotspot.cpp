/**
 * @file
 * Table 7: NDM detection percentages under the hot-spot pattern (5%
 * of messages target a single node over a uniform background). The
 * paper notes detection percentages rise *before* global saturation
 * because the region around the hot node saturates first; it is also
 * the only pattern where Th 32 exceeds the 0.16% worst case (0.26%).
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 7, columns [s, l, sl] per rate group
// (0.0628, 0.0707, 0.0786, 0.0862 saturated).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
    {
        // Th 2
        .008, .005, .010, .040, .007, .022,
        .140, .110, .120, .506, .442, .422,
        // Th 4
        .003, .002, .006, .035, .003, .018,
        .110, .090, .107, .456, .417, .395,
        // Th 8
        .003, .000, .004, .020, .003, .018,
        .100, .087, .101, .390, .400, .358,
        // Th 16
        .002, .000, .002, .015, .003, .013,
        .065, .077, .083, .320, .377, .335,
        // Th 32
        .001, .000, .001, .000, .003, .007,
        .020, .052, .060, .203, .347, .260,
        // Th 64
        .000, .000, .000, .000, .000, .002,
        .000, .032, .029, .090, .282, .267,
        // Th 128
        .000, .000, .000, .000, .000, .000,
        .000, .007, .010, .035, .167, .077,
        // Th 256
        .000, .000, .000, .000, .000, .000,
        .000, .005, .001, .016, .065, .017,
        // Th 512
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .013, .010, .000,
        // Th 1024
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .005, .002, .000,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "hotspot:0.05", /*default_sat=*/0.71);
    wormnet::bench::runTableBench(
        "Table 7: NDM, hot-spot traffic (5% to one node)", opts,
        "ndm:%T", {"s", "l", "sl"}, &kPaper);
    return 0;
}
