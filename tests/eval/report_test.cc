#include "eval/report.h"

#include <cstdlib>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace pinocchio {
namespace {

TEST(TablePrinterTest, AlignsColumnsAndPrintsAllRows) {
  TablePrinter table("Demo", {"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow({"much_longer_name", "23456"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Demo"), std::string::npos);
  EXPECT_NE(text.find("short"), std::string::npos);
  EXPECT_NE(text.find("much_longer_name"), std::string::npos);
  EXPECT_NE(text.find("23456"), std::string::npos);
  // Header precedes data.
  EXPECT_LT(text.find("name"), text.find("short"));
}

TEST(TablePrinterDeathTest, RowArityMismatch) {
  TablePrinter table("Demo", {"a", "b"});
  EXPECT_DEATH(table.AddRow({"only_one"}), "Check failed");
}

TEST(FormatSecondsTest, PicksUnits) {
  EXPECT_NE(FormatSeconds(0.0000005).find("us"), std::string::npos);
  EXPECT_NE(FormatSeconds(0.005).find("ms"), std::string::npos);
  EXPECT_NE(FormatSeconds(2.5).find("s"), std::string::npos);
}

TEST(SolverRunJsonLineTest, EmitsValidationCounters) {
  SolverStats stats;
  stats.pairs_validated = 120;
  stats.pairs_refined = 3;
  stats.positions_scanned = 4567;
  const std::string line =
      SolverRunJsonLine("bench", "gowalla", "PIN-VO", 10, 20, stats);
  EXPECT_NE(line.find("\"pairs_validated\":120"), std::string::npos) << line;
  EXPECT_NE(line.find("\"pairs_refined\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"positions_scanned\":4567"), std::string::npos)
      << line;
}

TEST(BenchScaleTest, DefaultWhenUnset) {
  unsetenv("PINOCCHIO_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(0.25), 0.25);
}

TEST(BenchScaleTest, ReadsValidValue) {
  setenv("PINOCCHIO_BENCH_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(1.0), 0.5);
  unsetenv("PINOCCHIO_BENCH_SCALE");
}

TEST(BenchScaleTest, RejectsInvalidValues) {
  setenv("PINOCCHIO_BENCH_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(1.0), 1.0);
  setenv("PINOCCHIO_BENCH_SCALE", "abc", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(1.0), 1.0);
  setenv("PINOCCHIO_BENCH_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(1.0), 1.0);
  unsetenv("PINOCCHIO_BENCH_SCALE");
}

TEST(BenchSeedTest, ReadsAndDefaults) {
  unsetenv("PINOCCHIO_BENCH_SEED");
  EXPECT_EQ(BenchSeedFromEnv(9), 9u);
  setenv("PINOCCHIO_BENCH_SEED", "123", 1);
  EXPECT_EQ(BenchSeedFromEnv(9), 123u);
  setenv("PINOCCHIO_BENCH_SEED", "oops", 1);
  EXPECT_EQ(BenchSeedFromEnv(9), 9u);
  unsetenv("PINOCCHIO_BENCH_SEED");
}

}  // namespace
}  // namespace pinocchio
