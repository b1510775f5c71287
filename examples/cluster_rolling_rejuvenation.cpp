// Section 6's cluster scenario, simulated end to end: three hosts behind a
// load balancer, each running four web VMs. The whole cluster's VMMs are
// rejuvenated one host at a time with the warm-VM reboot; the client fleet
// never sees the service go away, only a throughput dip.
//
// Part two repeats the scenario under 8 independent seeds through the
// replication runner (exp::run_grid) and reports mean ± 95 % CI instead
// of a single draw.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/throughput_model.hpp"
#include "exp/runner.hpp"
#include "obs/export.hpp"

namespace {

using namespace rh;

/// One full rolling-rejuvenation run under `seed`; returns
/// {during-throughput req/s, longest per-host rejuvenation s, deferred}.
exp::ReplicationResult replicated_run(const exp::ReplicationContext& ctx) {
  sim::Simulation sim;
  cluster::Cluster::Config cfg;
  cfg.hosts = 3;
  cfg.vms_per_host = 4;
  cfg.seed = ctx.seed;
  cfg.calib.timing_jitter = 0.02;  // run-to-run timing variation
  cluster::Cluster cl(sim, cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  while (!ready) sim.step();
  cluster::ClusterClientFleet fleet(sim, *cl.sharded_balancer(), {});
  fleet.start();
  sim.run_for(30 * sim::kSecond);
  const sim::SimTime t0 = sim.now();
  bool done = false;
  cl.rolling_rejuvenation_waves(
      {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  while (!done) sim.step();
  const sim::SimTime t1 = sim.now();
  fleet.stop();

  double longest = 0;
  for (const auto d : cl.rejuvenation_durations()) {
    longest = std::max(longest, sim::to_seconds(d));
  }
  exp::ReplicationResult out;
  out.values = {fleet.completions().rate_between(t0, t1), longest,
                static_cast<double>(cl.sharded_balancer()->rejected())};
  return out;
}

/// One rolling pass (every turn supervised) with every host's observer on
/// and a 5 % uniform fault rate (armed after provisioning, so only the
/// pass itself is attacked), exported as a Chrome trace: one Perfetto process per
/// host, pass/rung/phase spans nested, recovery actions as instants.
/// This is the EXPERIMENTS.md "open it in Perfetto" recipe.
void write_supervised_trace(const char* path) {
  sim::Simulation sim;
  cluster::Cluster::Config cfg;
  cfg.hosts = 3;
  cfg.vms_per_host = 4;
  cfg.observe = true;
  cluster::Cluster cl(sim, cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  while (!ready) sim.step();
  for (int h = 0; h < cfg.hosts; ++h) {
    cl.host(h).configure_faults(fault::FaultConfig::uniform(0.05));
  }
  sim.run_for(5 * sim::kSecond);
  bool done = false;
  cl.rolling_rejuvenation_waves(
      {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  while (!done) sim.step();
  std::ofstream os(path);
  obs::ChromeTraceWriter writer(os);
  for (int h = 0; h < cfg.hosts; ++h) {
    writer.add_process(h, "host" + std::to_string(h), cl.host(h).obs());
  }
  std::printf("\nwrote Chrome trace of one supervised rolling pass to %s\n",
              path);
}

}  // namespace

int main(int argc, char** argv) {
  sim::Simulation sim;
  cluster::Cluster::Config cfg;
  cfg.hosts = 3;
  cfg.vms_per_host = 4;
  cluster::Cluster cl(sim, cfg);

  std::printf("starting %d hosts x %d web VMs...\n", cfg.hosts, cfg.vms_per_host);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  while (!ready) sim.step();
  std::printf("cluster up at t=%.1f s; %zu backends registered\n",
              sim::to_seconds(sim.now()),
              cl.sharded_balancer()->backend_count());

  cluster::ClusterClientFleet fleet(sim, *cl.sharded_balancer(), {});
  fleet.start();
  sim.run_for(30 * sim::kSecond);
  const sim::SimTime t0 = sim.now();

  std::printf("\nrolling warm-VM rejuvenation across all hosts...\n");
  bool done = false;
  cl.rolling_rejuvenation_waves(
      {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  while (!done) sim.step();
  const sim::SimTime t1 = sim.now();
  sim.run_for(60 * sim::kSecond);
  fleet.stop();

  std::printf("per-host rejuvenation durations:");
  for (const auto d : cl.rejuvenation_durations()) {
    std::printf(" %.1f s", sim::to_seconds(d));
  }
  std::printf("\n\ncluster throughput timeline (10 s bins):\n");
  for (const auto& s : fleet.completions().rate_series(
           t0 - 30 * sim::kSecond, t1 + 50 * sim::kSecond, 10 * sim::kSecond)) {
    std::printf("  t=%5.0f s  %6.0f req/s  %s\n", sim::to_seconds(s.time - t0),
                s.value, s.time < t0 || s.time >= t1 ? "" : "<- rejuvenating");
  }
  std::printf("\nrequests rejected by the balancer during the whole run: %llu "
              "(zero = no service downtime)\n",
              static_cast<unsigned long long>(cl.sharded_balancer()->rejected()));

  // Compare with the paper's analytic Fig. 9 expectation.
  cluster::ClusterThroughputParams p;
  p.hosts = cfg.hosts;
  cluster::ClusterThroughputModel model(p);
  std::printf("analytic expectation while one host is down: %.2f of full "
              "throughput\n",
              model.throughput_at(cluster::ClusterStrategy::kWarm, 10.0) /
                  model.throughput_at(cluster::ClusterStrategy::kWarm, 1e6));

  // Part two: the same scenario replicated under 8 independent seeds (2 %
  // timing jitter), reduced to mean ± 95 % CI by the replication runner.
  enum { kDuring, kLongest, kDeferred };
  exp::GridSpec spec;
  spec.points = 1;
  spec.replications = 8;
  spec.root_seed = 1000;
  const auto grid = exp::run_grid(spec, replicated_run);
  const auto& red = grid.point(0);
  std::printf("\nreplicated x%zu (seeds from root %llu, %zu threads, "
              "%.2f s wall):\n",
              red.replications(), static_cast<unsigned long long>(spec.root_seed),
              grid.threads_used, grid.wall_seconds);
  std::printf("  throughput during rolling rejuvenation: %.0f ± %.1f req/s "
              "(95 %% CI)\n",
              red.mean(kDuring), red.ci95(kDuring));
  std::printf("  longest per-host rejuvenation:          %.1f ± %.1f s\n",
              red.mean(kLongest), red.ci95(kLongest));
  std::printf("  requests deferred and retried:          %.0f ± %.0f "
              "(permanently failed: always 0)\n",
              red.mean(kDeferred), red.ci95(kDeferred));

  // Optional: a Chrome/Perfetto trace of a supervised pass under faults.
  if (argc > 1) write_supervised_trace(argv[1]);
  return 0;
}
