// The benches' one command-line parser (bench/bench_util.hpp): values
// land in the bound variables, and anything malformed exits 2 with a
// message naming the flag before any work starts.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"

namespace rh::test {
namespace {

struct Argv {
  std::vector<std::string> args;
  std::vector<char*> ptrs;
  explicit Argv(std::vector<std::string> a) : args(std::move(a)) {
    args.insert(args.begin(), "bench");
    for (auto& s : args) ptrs.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
};

TEST(BenchCli, ParsesEveryValueKind) {
  int hosts = 1;
  std::size_t workers = 1;
  std::uint64_t seed = 7;
  double seconds = 1.0;
  std::vector<double> rates = {0.0};
  std::vector<std::size_t> counts = {1};
  std::string out = "x.json";
  bool quick = false;
  Argv a({"--hosts", "24", "--workers", "4", "--seed", "18446744073709551615",
          "--sim-seconds", "2.5", "--fault-rate", "0,0.1,0.4", "--counts",
          "1,2", "--out", "y.json", "--quick"});
  bench::Cli cli;
  cli.add("--hosts", hosts)
      .add("--workers", workers)
      .add("--seed", seed)
      .add("--sim-seconds", seconds)
      .add("--fault-rate", rates)
      .add("--counts", counts)
      .add("--out", out)
      .add("--quick", quick)
      .add("--unused", hosts)
      .parse(a.argc(), a.argv());
  EXPECT_EQ(hosts, 24);
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(seed, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(seconds, 2.5);
  EXPECT_EQ(rates, (std::vector<double>{0.0, 0.1, 0.4}));
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(out, "y.json");
  EXPECT_TRUE(quick);
  EXPECT_TRUE(cli.given("--hosts"));
  EXPECT_FALSE(cli.given("--unused"));
}

// Each case would otherwise wrap to a huge count or fall back to a
// default; only the parse runs, so no worker or thread is ever started.
void expect_rejected(std::vector<std::string> args, const char* message) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  int hosts = 1;
  std::size_t workers = 1;
  double seconds = 1.0;
  EXPECT_EXIT(
      {
        Argv a(args);
        bench::Cli cli;
        cli.add("--hosts", hosts)
            .add("--workers", workers)
            .add("--sim-seconds", seconds);
        bench::SweepOptions opt;
        opt.parse(a.argc(), a.argv(), cli);
      },
      testing::ExitedWithCode(2), message);
}

TEST(BenchCli, RejectsNegativeWorkerAndThreadCounts) {
  expect_rejected({"--workers", "-4"}, "--workers: negative value '-4'");
  expect_rejected({"--threads", "-1"}, "--threads: negative value '-1'");
  expect_rejected({"--sim-seconds", "-2"},
                  "--sim-seconds: negative value '-2'");
}

TEST(BenchCli, RejectsMalformedCounts) {
  expect_rejected({"--hosts", "2.5"}, "--hosts: '2.5' is not an integer");
  expect_rejected({"--hosts", "3000000000"},
                  "--hosts: '3000000000' is out of range");
  expect_rejected({"--reps", ""}, "--reps: '' is not a number");
  expect_rejected({"--jitter", "nan"}, "--jitter: 'nan' is not a number");
  expect_rejected({"--workers", "4", "--hosts"}, "--hosts: missing value");
  expect_rejected({"--host", "4"}, "--host: unknown flag");
}

}  // namespace
}  // namespace rh::test
