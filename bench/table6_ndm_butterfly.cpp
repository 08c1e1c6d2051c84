/**
 * @file
 * Table 6: NDM detection percentages under the butterfly permutation
 * (dst = src with most- and least-significant bits swapped). The
 * paper confirms true deadlocks at the saturated load for the "s"
 * and "sl" columns — the starred cells.
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 6, columns [s, l, sl] per rate group
// (0.107, 0.118, 0.129, 0.139 saturated).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
    {
        // Th 2
        .007, .006, .089, .033, .015, .300,
        .296, .092, 1.22, 2.70, .920, 4.60,
        // Th 4
        .000, .000, .006, .000, .000, .032,
        .030, .004, .261, .885, .116, 1.94,
        // Th 8
        .000, .000, .000, .000, .000, .004,
        .005, .001, .102, .437, .026, 1.38,
        // Th 16
        .000, .000, .000, .000, .000, .003,
        .000, .000, .084, .298, .018, 1.23,
        // Th 32
        .000, .000, .000, .000, .000, .002,
        .000, .000, .063, .191, .015, 1.03,
        // Th 64
        .000, .000, .000, .000, .000, .001,
        .000, .000, .029, .103, .011, .785,
        // Th 128
        .000, .000, .000, .000, .000, .001,
        .000, .000, .013, .075, .004, .420,
        // Th 256
        .000, .000, .000, .000, .000, .000,
        .000, .000, .004, .067, .000, .230,
        // Th 512
        .000, .000, .000, .000, .000, .000,
        .000, .000, .002, .065, .000, .155,
        // Th 1024
        .000, .000, .000, .000, .000, .000,
        .000, .000, .002, .065, .000, .145,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "butterfly", /*default_sat=*/0.62);
    wormnet::bench::runTableBench(
        "Table 6: NDM, butterfly traffic", opts, "ndm:%T",
        {"s", "l", "sl"}, &kPaper);
    return 0;
}
