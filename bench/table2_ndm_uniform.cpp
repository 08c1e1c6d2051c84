/**
 * @file
 * Table 2: percentage of messages detected as possibly deadlocked by
 * the NEW detection mechanism (NDM). True fully adaptive routing, 3
 * VCs per physical channel, uniform destinations, sizes s/l/L/sl.
 *
 * Expected shape (paper): roughly an order of magnitude fewer
 * detections than PDM at every grid point (compare Table 1), with a
 * much weaker dependence on message length — a single constant
 * threshold (e.g. 32) keeps the false-detection rate low even at
 * saturation.
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 2, percentages; columns [s, l, L, sl] per rate group
// (0.428, 0.471, 0.514, 0.600 saturated).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
    {
        // Th 2
        .000, .021, .055, .028, .015, .069, .123, .086,
        .045, .097, .555, .513, 2.40, 3.75, 4.33, 3.92,
        // Th 4
        .000, .000, .005, .001, .001, .005, .000, .002,
        .000, .002, .125, .045, .830, .551, .412, .900,
        // Th 8
        .000, .000, .000, .000, .000, .001, .000, .002,
        .000, .000, .005, .020, .417, .283, .178, .560,
        // Th 16
        .000, .000, .000, .000, .000, .000, .000, .001,
        .000, .000, .005, .010, .205, .218, .168, .447,
        // Th 32
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .005, .006, .069, .138, .159, .280,
        // Th 64
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .005, .001, .035, .054, .132, .100,
        // Th 128
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .002, .000, .027, .011, .084, .040,
        // Th 256
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .002, .000, .015, .002, .037, .030,
        // Th 512
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .000, .005, .000, .009, .017,
        // Th 1024
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .000, .000, .000, .000, .000, .007,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "uniform", /*default_sat=*/0.74);
    wormnet::bench::runTableBench(
        "Table 2: new detection mechanism (NDM), uniform traffic",
        opts, "ndm:%T", {"s", "l", "L", "sl"}, &kPaper);
    return 0;
}
