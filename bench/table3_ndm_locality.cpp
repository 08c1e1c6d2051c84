/**
 * @file
 * Table 3: NDM detection percentages under uniform traffic with
 * locality (destinations within a bounded Manhattan ball). Short
 * average distances push the saturation rate far above uniform's and
 * detection percentages are the lowest of all patterns.
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 3, columns [s, l, sl] per rate group
// (1.429, 1.571, 1.857 saturated, 2.000 saturated).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128},
    {
        // Th 2
        .002, .000, .015, .012, .007, .020,
        .030, .037, .052, .050, .049, .052,
        // Th 4
        .000, .000, .007, .002, .000, .010,
        .013, .012, .018, .013, .019, .018,
        // Th 8
        .000, .000, .007, .000, .000, .005,
        .007, .011, .017, .009, .017, .017,
        // Th 16
        .000, .000, .002, .000, .000, .000,
        .003, .006, .009, .005, .013, .009,
        // Th 32
        .000, .000, .002, .000, .000, .000,
        .000, .004, .004, .001, .005, .004,
        // Th 64
        .000, .000, .002, .000, .000, .000,
        .000, .001, .001, .000, .000, .001,
        // Th 128
        .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .000, .000, .000,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "locality:3", /*default_sat=*/1.22);
    // The paper reports two saturated load points for this pattern.
    opts.loadFractions = {0.714, 0.786, 0.93, 1.10};
    wormnet::bench::runTableBench(
        "Table 3: NDM, uniform traffic with locality", opts,
        "ndm:%T", {"s", "l", "sl"}, &kPaper);
    return 0;
}
