// Tests for the shared CLI parsing (common/cli.h): flag semantics, the
// hard-error-on-unknown-flag contract that replaced the old silently
// ignoring parsers, and the strict thread-count parse shared by --threads=
// and PPSIM_THREADS (analysis/experiments.h resolve_thread_count).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/experiments.h"
#include "common/cli.h"

namespace ppsim {
namespace {

char** make_argv(std::vector<std::string>& storage) {
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return ptrs.data();
}

TEST(BenchScaleParse, KnownFlagsAreApplied) {
  std::vector<std::string> args = {"bench", "--smoke", "--threads=3",
                                   "--strategy=geometric_skip", "--micro"};
  const BenchScale s =
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args));
  EXPECT_TRUE(s.smoke);
  EXPECT_TRUE(s.quick);  // smoke implies quick
  EXPECT_TRUE(s.micro);
  EXPECT_EQ(s.threads, 3u);
  EXPECT_EQ(s.strategy_name, "geometric_skip");
  EXPECT_EQ(s.strategy_or(BatchStrategy::kAuto),
            BatchStrategy::kGeometricSkip);
  EXPECT_EQ(s.trials(30), 1u);  // smoke: one trial
  EXPECT_EQ(s.sizes({8, 64, 512}), std::vector<std::uint32_t>{8});
}

TEST(BenchScaleParse, DefaultsWithoutFlags) {
  std::vector<std::string> args = {"bench"};
  const BenchScale s =
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args));
  EXPECT_FALSE(s.smoke);
  EXPECT_FALSE(s.micro);
  EXPECT_EQ(s.trials(30), 30u);
  EXPECT_EQ(s.strategy_or(BatchStrategy::kGeometricSkip),
            BatchStrategy::kGeometricSkip);
}

TEST(BenchScaleParse, FaultKnobsAreApplied) {
  std::vector<std::string> args = {"bench", "--fault.drop=0.25",
                                   "--fault.oneway=1", "--fault.churn=2.5"};
  const BenchScale s =
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args));
  EXPECT_DOUBLE_EQ(s.faults.drop, 0.25);
  EXPECT_DOUBLE_EQ(s.faults.oneway, 1.0);
  EXPECT_DOUBLE_EQ(s.faults.churn, 2.5);
  EXPECT_TRUE(s.faults.active());
}

TEST(BenchScaleParse, FaultKnobsDefaultToZero) {
  std::vector<std::string> args = {"bench"};
  const BenchScale s =
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args));
  EXPECT_DOUBLE_EQ(s.faults.drop, 0.0);
  EXPECT_DOUBLE_EQ(s.faults.oneway, 0.0);
  EXPECT_DOUBLE_EQ(s.faults.churn, 0.0);
  EXPECT_FALSE(s.faults.active());
}

using CliDeath = ::testing::Test;

TEST(CliDeath, UnknownFlagIsAHardError) {
  std::vector<std::string> args = {"bench", "--strateg=geometric_skip"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(CliDeath, BadStrategyValueIsAHardError) {
  std::vector<std::string> args = {"bench", "--strategy=warp"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "unknown --strategy value");
  // Removed strategies fail the same way, naming the ones that remain.
  for (const std::string name : {"multinomial", "tau"}) {
    std::vector<std::string> removed = {"bench", "--strategy=" + name};
    EXPECT_EXIT(BenchScale::from_args(static_cast<int>(removed.size()),
                                      make_argv(removed)),
                ::testing::ExitedWithCode(2),
                "'" + name + "' \\(want geometric_skip \\| auto\\)");
  }
}

TEST(CliDeath, FaultDropOutOfRangeIsAHardError) {
  std::vector<std::string> args = {"bench", "--fault.drop=1.5"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --fault.drop value");
}

TEST(CliDeath, FaultOnewayMalformedNumberIsAHardError) {
  std::vector<std::string> args = {"bench", "--fault.oneway=0.5x"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --fault.oneway value");
}

TEST(CliDeath, FaultChurnNegativeIsAHardError) {
  std::vector<std::string> args = {"bench", "--fault.churn=-1"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --fault.churn value");
}

TEST(CliDeath, FaultEmptyValueIsAHardError) {
  std::vector<std::string> args = {"bench", "--fault.drop="};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --fault.drop value");
}

TEST(CliDeath, MalformedThreadsIsAHardError) {
  for (const char* bad : {"--threads=abc", "--threads=4x", "--threads=-2",
                          "--threads=", "--threads=4294967296"}) {
    std::vector<std::string> args = {"bench", bad};
    EXPECT_EXIT(
        BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
        ::testing::ExitedWithCode(2), "bad --threads value")
        << bad;
  }
}

// PPSIM_THREADS is parsed as strictly as --threads=: a malformed value
// throws instead of falling back to the hardware concurrency, and an
// explicit request still wins over the environment.
TEST(ThreadCount, PpsimThreadsIsParsedStrictly) {
  const char* old = std::getenv("PPSIM_THREADS");
  const std::optional<std::string> saved =
      old ? std::optional<std::string>(old) : std::nullopt;
  for (const char* bad : {"abc", "4x", "-1", "", " 4", "99999999999"}) {
    setenv("PPSIM_THREADS", bad, 1);
    EXPECT_THROW(resolve_thread_count(), std::invalid_argument) << bad;
    EXPECT_EQ(resolve_thread_count(2), 2u) << bad;
  }
  setenv("PPSIM_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(), 3u);
  setenv("PPSIM_THREADS", "0", 1);  // 0 = hardware concurrency
  EXPECT_GE(resolve_thread_count(), 1u);
  if (saved) {
    setenv("PPSIM_THREADS", saved->c_str(), 1);
  } else {
    unsetenv("PPSIM_THREADS");
  }
}

TEST(CliDeath, MisspelledFaultFlagIsAHardError) {
  std::vector<std::string> args = {"bench", "--fault.drops=0.5"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchScaleParse, TopologyFlagIsApplied) {
  std::vector<std::string> args = {"bench", "--topology=mesh:4x8"};
  const BenchScale s =
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args));
  EXPECT_EQ(s.topology, "mesh:4x8");
  std::vector<std::string> args2 = {"bench"};
  EXPECT_TRUE(BenchScale::from_args(static_cast<int>(args2.size()),
                                    make_argv(args2))
                  .topology.empty());
}

TEST(CliDeath, UnknownTopologyNameIsAHardError) {
  std::vector<std::string> args = {"bench", "--topology=smallworld"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --topology value");
}

TEST(CliDeath, MalformedMeshDimsAreAHardError) {
  // Zero dims and missing 'x' are both structural errors the flag parser
  // must catch itself (the n-dependent rows*cols check happens later).
  std::vector<std::string> args = {"bench", "--topology=mesh:0x5"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --topology value");
  std::vector<std::string> args2 = {"bench", "--topology=torus:4"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args2.size()),
                            make_argv(args2)),
      ::testing::ExitedWithCode(2), "bad --topology value");
}

TEST(CliDeath, MissingCustomGraphFileIsAHardError) {
  // validate_spec opens the edge file at flag-parse time, so a typoed
  // path dies here instead of after the bench's warmup.
  std::vector<std::string> args = {
      "bench", "--topology=custom:/nonexistent/graph.edges"};
  EXPECT_EXIT(
      BenchScale::from_args(static_cast<int>(args.size()), make_argv(args)),
      ::testing::ExitedWithCode(2), "bad --topology value");
}

TEST(CliDeath, BackendFlagRejectsUnknown) {
  std::vector<std::string> args = {"example", "--backend=quantum"};
  EXPECT_EXIT(parse_backend_flag(static_cast<int>(args.size()),
                                 make_argv(args)),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(CliDeath, RequireNoArgsRejectsAnything) {
  std::vector<std::string> args = {"demo", "--help"};
  EXPECT_EXIT(require_no_args(static_cast<int>(args.size()),
                              make_argv(args)),
              ::testing::ExitedWithCode(2), "unexpected argument");
}

TEST(BackendFlagParse, SelectsBackend) {
  std::vector<std::string> args = {"example", "--backend=batch"};
  EXPECT_TRUE(
      parse_backend_flag(static_cast<int>(args.size()), make_argv(args)));
  std::vector<std::string> args2 = {"example", "--backend=array"};
  EXPECT_FALSE(
      parse_backend_flag(static_cast<int>(args2.size()), make_argv(args2)));
  std::vector<std::string> args3 = {"example"};
  EXPECT_FALSE(
      parse_backend_flag(static_cast<int>(args3.size()), make_argv(args3)));
}

}  // namespace
}  // namespace ppsim
