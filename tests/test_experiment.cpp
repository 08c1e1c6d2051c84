/**
 * @file
 * Tests for the experiment harness: cell execution, table sweeps in
 * the paper's layout, reference-value formatting and the saturation
 * search.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/experiment.hh"

namespace wormnet
{
namespace
{

SimulationConfig
tinyBase()
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.lengths = "s";
    cfg.detector = "ndm:32";
    cfg.seed = 7;
    return cfg;
}

TEST(Experiment, RunCellIsDeterministic)
{
    const ExperimentRunner runner;
    SimulationConfig cfg = tinyBase();
    cfg.flitRate = 0.3;
    const CellResult a = runner.runCell(cfg, 500, 1500);
    const CellResult b = runner.runCell(cfg, 500, 1500);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_DOUBLE_EQ(a.detectionRate, b.detectionRate);
    EXPECT_DOUBLE_EQ(a.acceptedFlitRate, b.acceptedFlitRate);
    EXPECT_GT(a.delivered, 100u);
}

TEST(Experiment, RunTableShapeMatchesSpec)
{
    TableSpec spec;
    spec.title = "mini";
    spec.base = tinyBase();
    spec.detectorTemplate = "ndm:%T";
    spec.thresholds = {4, 64};
    spec.sizeClasses = {"s", "l"};
    spec.rates = {0.1, 0.3};
    spec.rateLabels = {"0.1", "0.3"};
    spec.warmup = 300;
    spec.measure = 800;

    const ExperimentRunner runner;
    const TableResult result = runner.runTable(spec);
    ASSERT_EQ(result.cells.size(), 2u);
    ASSERT_EQ(result.cells[0].size(), 2u);
    ASSERT_EQ(result.cells[0][0].size(), 2u);
    for (const auto &per_rate : result.cells)
        for (const auto &per_size : per_rate)
            for (const auto &cell : per_size)
                EXPECT_GT(cell.delivered, 0u);
}

TEST(Experiment, ProgressCallbackFiresPerCell)
{
    unsigned calls = 0;
    const ExperimentRunner runner(
        [&](const std::string &) { ++calls; });
    TableSpec spec;
    spec.title = "mini";
    spec.base = tinyBase();
    spec.thresholds = {8};
    spec.sizeClasses = {"s"};
    spec.rates = {0.1, 0.2};
    spec.rateLabels = {"a", "b"};
    spec.warmup = 100;
    spec.measure = 300;
    runner.runTable(spec);
    EXPECT_EQ(calls, 2u);
}

TEST(Experiment, FormatTablePaperLayout)
{
    TableSpec spec;
    spec.title = "mini";
    spec.base = tinyBase();
    spec.thresholds = {4, 64};
    spec.sizeClasses = {"s", "l"};
    spec.rates = {0.1, 0.3};
    spec.rateLabels = {"low", "high (saturated)"};
    spec.warmup = 100;
    spec.measure = 300;
    const ExperimentRunner runner;
    const TableResult result = runner.runTable(spec);

    const TextTable table = ExperimentRunner::formatTable(result);
    const std::string text = table.render();
    EXPECT_NE(text.find("Th 4"), std::string::npos);
    EXPECT_NE(text.find("Th 64"), std::string::npos);
    EXPECT_NE(text.find("M. Size"), std::string::npos);
    EXPECT_NE(text.find("high (saturated)"), std::string::npos);
}

TEST(Experiment, FormatTableWithReferenceValues)
{
    TableSpec spec;
    spec.title = "mini";
    spec.base = tinyBase();
    spec.thresholds = {8};
    spec.sizeClasses = {"s"};
    spec.rates = {0.1};
    spec.rateLabels = {"r"};
    spec.warmup = 100;
    spec.measure = 300;
    const ExperimentRunner runner;
    const TableResult result = runner.runTable(spec);

    const PaperRef refs{{8}, {1.23}};
    const TextTable table =
        ExperimentRunner::formatTable(result, &refs);
    EXPECT_NE(table.render().find("(1.23)"), std::string::npos);
}

TEST(Experiment, MissingPlaceholderIsFatal)
{
    TableSpec spec;
    spec.title = "bad";
    spec.base = tinyBase();
    spec.detectorTemplate = "ndm:32"; // no %T
    spec.thresholds = {8};
    spec.sizeClasses = {"s"};
    spec.rates = {0.1};
    spec.rateLabels = {"r"};
    const ExperimentRunner runner;
    EXPECT_THROW(runner.runTable(spec), FatalError);
}

TEST(Experiment, ReplicatedCellAveragesAcrossSeeds)
{
    const ExperimentRunner runner;
    SimulationConfig cfg = tinyBase();
    cfg.flitRate = 0.3;
    const CellResult one = runner.runCell(cfg, 400, 1200);
    const CellResult rep =
        runner.runCellReplicated(cfg, 400, 1200, 3);
    EXPECT_EQ(rep.replications, 3u);
    // The three runs' deliveries accumulate.
    EXPECT_GT(rep.delivered, 2 * one.delivered);
    // Averaged rates stay within sane bounds.
    EXPECT_GT(rep.acceptedFlitRate, 0.2);
    EXPECT_LT(rep.acceptedFlitRate, 0.4);
    EXPECT_GE(rep.detectionRateStd, 0.0);
    // Single replication path has no deviation and matches a plain
    // runCell at the derived replication-0 seed exactly.
    const CellResult single =
        runner.runCellReplicated(cfg, 400, 1200, 1);
    EXPECT_EQ(single.replications, 1u);
    EXPECT_DOUBLE_EQ(single.detectionRateStd, 0.0);
    SimulationConfig derived = cfg;
    derived.seed = deriveSeed(cfg.seed, 0, 0);
    const CellResult oneDerived = runner.runCell(derived, 400, 1200);
    EXPECT_EQ(single.delivered, oneDerived.delivered);
    EXPECT_DOUBLE_EQ(single.detectionRate, oneDerived.detectionRate);
}

TEST(Experiment, TableSpecReplicationsAppliesPerCell)
{
    TableSpec spec;
    spec.title = "mini";
    spec.base = tinyBase();
    spec.thresholds = {8};
    spec.sizeClasses = {"s"};
    spec.rates = {0.2};
    spec.rateLabels = {"r"};
    spec.warmup = 200;
    spec.measure = 500;
    spec.replications = 2;
    const ExperimentRunner runner;
    const TableResult result = runner.runTable(spec);
    EXPECT_EQ(result.cells[0][0][0].replications, 2u);
}

TEST(Experiment, SaturationSearchBracketsTheKnee)
{
    const ExperimentRunner runner;
    SimulationConfig cfg = tinyBase();
    const double sat =
        runner.findSaturationRate(cfg, 0.1, 2.0, 0.05, 500, 1500, 5);
    // The 4x4 torus saturates well inside (0.1, 2.0).
    EXPECT_GT(sat, 0.2);
    EXPECT_LT(sat, 1.5);

    // Below the returned knee the network accepts ~everything.
    cfg.flitRate = sat * 0.7;
    const CellResult below = runner.runCell(cfg, 500, 2000);
    EXPECT_GT(below.acceptedFlitRate, 0.9 * cfg.flitRate);
}

TEST(Experiment, SaturationSearchDegenerateBrackets)
{
    const ExperimentRunner runner;
    const SimulationConfig cfg = tinyBase();
    // Entire bracket below saturation: returns the upper bound.
    const double low = runner.findSaturationRate(cfg, 0.05, 0.1, 0.05,
                                                 300, 800, 2);
    EXPECT_DOUBLE_EQ(low, 0.1);
    EXPECT_THROW(runner.findSaturationRate(cfg, 0.5, 0.2), PanicError);
}

} // namespace
} // namespace wormnet
