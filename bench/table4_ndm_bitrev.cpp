/**
 * @file
 * Table 4: NDM detection percentages under the bit-reversal
 * permutation (dst = bit-reverse(src)). A low-bisection adversarial
 * pattern: saturation arrives at much lower loads than uniform, but
 * the NDM threshold behaviour is unchanged — the paper's
 * pattern-insensitivity claim.
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 4, columns [s, l, sl] per rate group
// (0.352, 0.386, 0.421, 0.451 saturated).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128, 256},
    {
        // Th 2
        .004, .006, .013, .011, .013, .065,
        .129, .041, .292, .638, .346, 1.14,
        // Th 4
        .001, .000, .003, .001, .001, .005,
        .024, .000, .041, .148, .038, .223,
        // Th 8
        .000, .000, .000, .000, .000, .002,
        .003, .000, .012, .041, .005, .090,
        // Th 16
        .000, .000, .000, .000, .000, .002,
        .001, .000, .009, .026, .004, .070,
        // Th 32
        .000, .000, .000, .000, .000, .002,
        .001, .000, .007, .009, .001, .043,
        // Th 64
        .000, .000, .000, .000, .000, .001,
        .000, .000, .003, .002, .000, .019,
        // Th 128
        .000, .000, .000, .000, .000, .000,
        .000, .000, .001, .000, .000, .002,
        // Th 256
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .000, .000, .000,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "bitrev", /*default_sat=*/0.63);
    wormnet::bench::runTableBench(
        "Table 4: NDM, bit-reversal traffic", opts, "ndm:%T",
        {"s", "l", "sl"}, &kPaper);
    return 0;
}
