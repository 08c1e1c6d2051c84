/**
 * @file
 * Table 1: percentage of messages detected as possibly deadlocked by
 * the PREVIOUS detection mechanism (PDM, Martínez et al. ICPP'97).
 * True fully adaptive routing, 3 VCs per physical channel, uniform
 * destinations, message sizes s/l/L/sl, loads up to saturation.
 *
 * Expected shape (paper): detection percentages fall with the
 * threshold, but depend strongly on message length below saturation
 * (longer messages need proportionally larger thresholds), and remain
 * high at saturation unless the threshold is very large.
 */

#include "bench_util.hh"

namespace
{

using wormnet::PaperRef;

// Paper Table 1, percentages; columns are [s, l, L, sl] for each of
// the four injection-rate groups (0.428, 0.471, 0.514, 0.600).
const PaperRef kPaper = {
    {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
    {
        // Th 2
        .055, .191, .295, .299, .199, .662, 1.08, 1.03,
        .605, 2.37, 4.61, 4.86, 26.0, 30.5, 33.4, 36.0,
        // Th 4
        .000, .014, .025, .033, .023, .043, .088, .094,
        .100, .205, .335, .736, 13.1, 7.75, 6.64, 13.4,
        // Th 8
        .000, .003, .010, .005, .007, .011, .026, .036,
        .020, .095, .115, .355, 8.58, 5.07, 3.95, 9.87,
        // Th 16
        .000, .003, .010, .005, .004, .007, .026, .024,
        .000, .072, .115, .260, 5.45, 4.42, 3.83, 8.32,
        // Th 32
        .000, .002, .010, .005, .000, .005, .023, .013,
        .000, .050, .110, .155, 2.96, 3.24, 3.66, 5.87,
        // Th 64
        .000, .000, .010, .001, .000, .004, .021, .005,
        .000, .012, .090, .038, 1.71, 1.63, 3.30, 3.20,
        // Th 128
        .000, .000, .005, .001, .000, .002, .018, .000,
        .000, .002, .070, .008, 1.24, .350, 2.50, 1.57,
        // Th 256
        .000, .000, .005, .000, .000, .000, .005, .000,
        .000, .000, .045, .000, .840, .020, 1.27, 1.01,
        // Th 512
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .005, .000, .400, .000, .290, .680,
        // Th 1024
        .000, .000, .000, .000, .000, .000, .000, .000,
        .000, .000, .002, .000, .110, .000, .020, .290,
    },
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = wormnet::bench::parseBenchArgs(
        argc, argv, "uniform", /*default_sat=*/0.74);
    wormnet::bench::runTableBench(
        "Table 1: previous detection mechanism (PDM), uniform "
        "traffic",
        opts, "pdm:%T", {"s", "l", "L", "sl"}, &kPaper);
    return 0;
}
