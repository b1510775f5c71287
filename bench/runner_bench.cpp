// Strong-scaling benchmark of the parallel replication runner (src/exp/).
//
// The workload is the real thing, not a synthetic spin loop: every
// replication builds a private Testbed (host + n SSH VMs) and runs a warm
// rejuvenation to completion, exactly like the figure benches do. The
// grid is points (VM counts) x replications, at least 32 tasks in the
// default configuration.
//
// The same grid runs once sequentially (run_grid_sequential, the
// baseline) and once per requested thread count, and every parallel run
// is checked for *bitwise* agreement with the sequential reduction --
// the determinism contract the runner exists to provide.
//
// Emits BENCH_runner.json (schema documented in EXPERIMENTS.md). Note
// that speedup is bounded by the hardware the bench runs on; the JSON
// records hardware_concurrency so a 1-core CI container's ~1x is
// interpretable. Usage:
//
//   runner_bench [--threads T] [--reps R] [--quick] [--out PATH]
//
// --threads T restricts the scaling sweep to the single count T
// (CI smoke: --threads 2 --quick); default sweeps 1, 2, 4, 8.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exp/runner.hpp"

namespace {

using namespace rh;
using bench::Testbed;

/// VM count per grid point: the sweep dimension.
std::vector<int> vm_counts(bool quick) {
  if (quick) return {1, 2};
  return {1, 2, 3, 4};
}

/// One replication: private simulation, warm rejuvenation, downtime-free
/// duration metrics. Returns {total rejuvenation seconds, per-VM resume
/// seconds mean} so the reduction exercises multi-metric merging.
exp::ReplicationResult replicate(const exp::ReplicationContext& ctx, int vms) {
  Testbed tb(ctx.seed);
  tb.add_vms(vms, sim::kGiB, Testbed::ServiceMix::kSsh);
  const sim::SimTime start = tb.sim.now();
  auto driver = tb.rejuvenate(rejuv::RebootKind::kWarm);
  exp::ReplicationResult out;
  out.values = {sim::to_seconds(driver->total_duration()),
                sim::to_seconds(tb.sim.now() - start)};
  return out;
}

/// Bitwise comparison of two grid reductions: every point's per-metric
/// mean and CI must match to the last ULP. Floating-point summation is
/// not associative, so this only holds because the runner reduces in a
/// fixed replication-index order regardless of completion order.
bool bitwise_equal(const exp::GridResult& a, const exp::GridResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const auto& ra = a.points[p];
    const auto& rb = b.points[p];
    if (ra.metrics().size() != rb.metrics().size()) return false;
    for (std::size_t m = 0; m < ra.metrics().size(); ++m) {
      const double ma = ra.mean(m), mb = rb.mean(m);
      const double ca = ra.ci95(m), cb = rb.ci95(m);
      if (std::memcmp(&ma, &mb, sizeof ma) != 0) return false;
      if (std::memcmp(&ca, &cb, sizeof ca) != 0) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t reps = 8;
  std::string out_path = "BENCH_runner.json";
  std::size_t threads = 0;
  bench::Cli cli;
  cli.add("--quick", quick)
      .add("--reps", reps)
      .add("--threads", threads)
      .add("--out", out_path)
      .parse(argc, argv);
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (cli.given("--threads")) thread_counts = {threads};
  if (quick && !cli.given("--reps")) reps = 3;
  if (reps == 0) reps = 1;

  // Jitter on, so replications genuinely differ and the merge paths are
  // exercised on distinct values.
  bench::g_replication_jitter = 0.02;

  const std::vector<int> counts = vm_counts(quick);
  exp::GridSpec spec;
  spec.points = counts.size();
  spec.replications = reps;
  spec.root_seed = bench::kLegacyBenchSeed;

  const auto body = [&counts](const exp::ReplicationContext& ctx) {
    return replicate(ctx, counts[ctx.point_index]);
  };

  const std::size_t tasks = spec.points * spec.replications;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool degenerate = hw <= 1;
  if (degenerate) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency() == %u -- every thread "
                 "count shares one core, so the speedups below are "
                 "degenerate (~1.0x) and say nothing about the runner. "
                 "Recording \"degenerate_scaling\": true.\n",
                 hw);
  }
  std::printf("replication-runner strong scaling: %zu points x %zu reps = "
              "%zu replications, hardware_concurrency %u\n\n",
              spec.points, spec.replications, tasks, hw);

  const auto seq = exp::run_grid_sequential(spec, body);
  std::printf("  %-12s %10.2f s   (baseline)\n", "sequential",
              seq.wall_seconds);

  struct Row {
    std::size_t threads;
    double wall = 0, speedup = 0;
    bool deterministic = false;
  };
  std::vector<Row> rows;
  for (const std::size_t t : thread_counts) {
    exp::GridSpec s = spec;
    s.threads = t;
    const auto par = exp::run_grid(s, body);
    Row row;
    row.threads = par.threads_used;
    row.wall = par.wall_seconds;
    row.speedup = seq.wall_seconds / par.wall_seconds;
    row.deterministic = bitwise_equal(seq, par);
    rows.push_back(row);
    std::printf("  %zu threads %12.2f s   speedup %5.2fx   bitwise-equal "
                "to sequential: %s\n",
                row.threads, row.wall, row.speedup,
                row.deterministic ? "yes" : "NO");
  }

  // Sanity line: the measured quantity itself, so the JSON's workload is
  // interpretable without re-running.
  std::printf("\n  workload check (largest point): warm rejuvenation of %d "
              "VMs takes %s s per replication\n",
              counts.back(),
              bench::fmt_ci(seq.points.back().mean(0),
                            seq.points.back().ci95(0), "%.2f")
                  .c_str());

  std::string json = "{\n  \"benchmark\": \"replication_runner\",\n";
  json += "  \"workload\": \"warm rejuvenation of n SSH VMs per "
          "replication\",\n";
  json += "  \"points\": " + std::to_string(spec.points) + ",\n";
  json += "  \"replications_per_point\": " + std::to_string(spec.replications) +
          ",\n";
  json += "  \"total_replications\": " + std::to_string(tasks) + ",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json += std::string("  \"degenerate_scaling\": ") +
          (degenerate ? "true" : "false") + ",\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "  \"sequential_seconds\": %.4f,\n",
                seq.wall_seconds);
  json += buf;
  json += "  \"scaling\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"threads\": %zu, \"wall_seconds\": %.4f, "
                  "\"speedup_vs_sequential\": %.3f, \"bitwise_deterministic\": "
                  "%s}%s\n",
                  rows[i].threads, rows[i].wall, rows[i].speedup,
                  rows[i].deterministic ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\n  wrote %s\n", out_path.c_str());

  // Determinism is a hard requirement: fail the bench (and CI smoke) if
  // any thread count diverged from the sequential reduction.
  for (const auto& r : rows) {
    if (!r.deterministic) return 1;
  }
  return 0;
}
