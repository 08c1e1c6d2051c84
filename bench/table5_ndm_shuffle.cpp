/**
 * @file
 * Table 5: NDM detection percentages under the perfect-shuffle
 * permutation (dst = rotate-left-1(src)).
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 5, columns [s, l, sl] per rate group
// (0.214, 0.250, 0.286, 0.320 saturated).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
    {
        // Th 2
        .000, .000, .002, .003, .006, .010,
        .095, .060, .118, .581, .571, .887,
        // Th 4
        .000, .000, .000, .000, .000, .000,
        .020, .010, .020, .292, .177, .304,
        // Th 8
        .000, .000, .000, .000, .000, .000,
        .015, .000, .013, .167, .122, .208,
        // Th 16
        .000, .000, .000, .000, .000, .000,
        .010, .000, .009, .117, .107, .169,
        // Th 32
        .000, .000, .000, .000, .000, .000,
        .000, .000, .006, .073, .090, .124,
        // Th 64
        .000, .000, .000, .000, .000, .000,
        .000, .000, .004, .032, .061, .089,
        // Th 128
        .000, .000, .000, .000, .000, .000,
        .000, .000, .003, .014, .035, .053,
        // Th 256
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .003, .013, .020,
        // Th 512
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .000, .004, .006,
        // Th 1024
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .000, .000, .000,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "shuffle", /*default_sat=*/0.43);
    wormnet::bench::runTableBench(
        "Table 5: NDM, perfect-shuffle traffic", opts, "ndm:%T",
        {"s", "l", "sl"}, &kPaper);
    return 0;
}
