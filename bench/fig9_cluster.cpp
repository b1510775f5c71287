// Figure 9: total throughput of an m-host cluster while one host's VMM is
// rejuvenated -- warm-VM reboot vs cold-VM reboot vs live migration.
//
// Part 1 instantiates the paper's analytic model with this simulator's
// measured host-level numbers. Part 2 runs an actual DES cluster behind a
// load balancer through a rolling warm rejuvenation and reports the
// observed throughput dip.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/scale_scenario.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/throughput_model.hpp"
#include "cluster/vm_migrator.hpp"
#include "guest/sshd.hpp"
#include "obs/export.hpp"
#include "simcore/parallel.hpp"

namespace {

using namespace rh;

void analytic_part() {
  cluster::ClusterThroughputParams p;
  p.hosts = 4;
  p.per_host_throughput = 1.0;
  // The paper's measured inputs: warm 42 s, cold 241 s (11 JBoss VMs),
  // delta = 0.69, migration 17 min at 12 % degradation.
  cluster::ClusterThroughputModel model(p);

  std::printf("\n  analytic timelines (m=4, p=1; total throughput):\n");
  std::printf("  %8s %12s %12s %12s\n", "t (s)", "warm", "cold", "migration");
  for (const double t : {0.0, 30.0, 41.9, 42.0, 120.0, 240.9, 241.0, 248.0,
                         249.5, 600.0, 1019.0, 1021.0}) {
    std::printf("  %8.1f %12.2f %12.2f %12.2f\n", t,
                model.throughput_at(cluster::ClusterStrategy::kWarm, t),
                model.throughput_at(cluster::ClusterStrategy::kCold, t),
                model.throughput_at(cluster::ClusterStrategy::kLiveMigration, t));
  }
  std::printf("\n  lost work over 30 min (throughput-seconds vs ideal m*p):\n");
  for (const auto s :
       {cluster::ClusterStrategy::kWarm, cluster::ClusterStrategy::kCold,
        cluster::ClusterStrategy::kLiveMigration}) {
    std::printf("    %-18s %10.1f\n", cluster::to_string(s),
                model.lost_work(s, 1800.0));
  }

  const auto est = cluster::estimate_migration(800 * sim::kMiB, {});
  std::printf("\n  live-migration model check: 800 MiB VM migrates in %.0f s "
              "(paper/Clark: 72 s), stop-and-copy %.2f s, %d rounds\n",
              sim::to_seconds(est.total), sim::to_seconds(est.stop_and_copy),
              est.rounds);
  const auto evac = cluster::estimate_host_evacuation(11, sim::kGiB, {});
  std::printf("  evacuating 11 x 1 GiB: %.1f min (paper: ~17 min)\n",
              sim::to_seconds(evac) / 60.0);
}

struct SimRow {
  double baseline = 0, during = 0, after = 0;
  double longest_host_s = 0;
  std::uint64_t deferred = 0;
};

SimRow simulated_once(std::uint64_t seed, const std::string& trace_path = "") {
  sim::Simulation s;
  cluster::Cluster::Config cfg;
  cfg.hosts = 3;
  cfg.vms_per_host = 4;
  cfg.seed = seed;
  cfg.calib.timing_jitter = bench::g_replication_jitter;
  // Observability is free when off and RNG-free when on, so the --trace
  // run measures the same numbers as the default one.
  cfg.observe = !trace_path.empty();
  cluster::Cluster cl(s, cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  while (!ready) s.step();

  cluster::ClusterClientFleet fleet(s, *cl.sharded_balancer(), {});
  fleet.start();
  s.run_for(30 * sim::kSecond);
  const sim::SimTime t0 = s.now();
  const double baseline = fleet.completions().rate_between(
      t0 - 20 * sim::kSecond, t0);

  bool done = false;
  cl.rolling_rejuvenation_waves(
      {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  while (!done) s.step();
  const sim::SimTime t1 = s.now();
  s.run_for(60 * sim::kSecond);
  fleet.stop();

  SimRow row;
  row.baseline = baseline;
  row.during = fleet.completions().rate_between(t0, t1);
  // Skip the last host's 25 s creation-artifact window for the "after"
  // sample.
  row.after =
      fleet.completions().rate_between(t1 + 26 * sim::kSecond, t1 + 56 * sim::kSecond);
  for (const auto d : cl.rejuvenation_durations()) {
    row.longest_host_s = std::max(row.longest_host_s, sim::to_seconds(d));
  }
  row.deferred = cl.sharded_balancer()->rejected();
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    obs::ChromeTraceWriter writer(os);
    for (int h = 0; h < cfg.hosts; ++h) {
      writer.add_process(h, "host" + std::to_string(h), cl.host(h).obs());
    }
  }
  return row;
}

// --workers N: the same scenario on the conservative parallel engine
// (DESIGN.md §11), one partition per host plus the control plane. Prints
// a deterministic digest so CI can diff `--workers 1` against
// `--workers 4` -- equal digests mean the worker count is unobservable.
void parallel_once(std::size_t workers, std::uint64_t seed) {
  const int hosts = 3;
  sim::ParallelSimulation engine({.partitions = hosts + 1, .workers = workers});
  cluster::Cluster::Config cfg;
  cfg.hosts = hosts;
  cfg.vms_per_host = 4;
  cfg.seed = seed;
  cfg.engine = &engine;
  cluster::Cluster cl(engine.partition(0), cfg);
  cluster::ClusterClientFleet fleet(engine.partition(0),
                                    *cl.sharded_balancer(), {});

  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });
  engine.run_on(0, [&fleet] { fleet.start(); });
  engine.run_until(engine.partition(0).now() + 30 * sim::kSecond);
  bool done = false;
  engine.run_on(0, [&cl, &done] {
    cl.rolling_rejuvenation_waves(
        {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  });
  engine.run_while([&done] { return !done; });
  engine.run_until(engine.partition(0).now() + 60 * sim::kSecond);

  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) {
    cluster::mix_digest(digest, v);
  };
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    mix(static_cast<std::uint64_t>(engine.partition(p).now()));
    mix(engine.partition(p).executed_events());
  }
  mix(static_cast<std::uint64_t>(fleet.completions().total()));
  mix(cl.sharded_balancer()->dispatched());
  mix(cl.sharded_balancer()->rejected());
  for (const auto d : cl.rejuvenation_durations()) {
    mix(static_cast<std::uint64_t>(d));
  }
  mix(engine.messages_routed());
  std::printf("  parallel DES cluster: hosts=%d workers=%zu windows=%llu "
              "messages=%llu events=%llu digest=%016llx\n",
              hosts, workers,
              static_cast<unsigned long long>(engine.windows_executed()),
              static_cast<unsigned long long>(engine.messages_routed()),
              static_cast<unsigned long long>(engine.total_executed_events()),
              static_cast<unsigned long long>(digest));
}

// --hosts/--shards: the datacenter-scale scenario (DESIGN.md §12,
// cluster::ScaleScenario) with a warm wave pass running through the
// measurement window. Emits pooled p99/p999 availability and session
// throughput into BENCH_scale.json plus a worker-count-invariant digest
// line (CI diffs --workers 1 vs 4 at both --shards 1 and --shards 8).
struct ScaleOptions {
  /// workers = 0 until the command line asks for the engine.
  cluster::ScaleScenario::Config sc{.hosts = 100, .shards = 4, .workers = 0};
  int wave = 8;
  double sim_seconds = 6.0;
  std::string out = "BENCH_scale.json";
};

int run_scale(const ScaleOptions& o) {
  const auto wall_start = std::chrono::steady_clock::now();
  cluster::ScaleScenario scenario(o.sc);
  cluster::Cluster::WaveConfig wc;
  wc.wave_size = o.wave;
  wc.kind = rejuv::RebootKind::kWarm;
  scenario.run(wc, 2 * sim::kSecond, sim::from_seconds(o.sim_seconds));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  sim::ParallelSimulation& engine = scenario.engine();
  cluster::Cluster& cl = scenario.cluster();
  const auto stats = scenario.fleet()->stats(scenario.window_end());
  const auto& waves = cl.last_wave_report();
  const std::uint64_t digest = scenario.digest();
  const std::uint64_t sessions = cluster::ScaleScenario::sessions(o.sc);

  const double sim_window =
      sim::to_seconds(scenario.window_end() - scenario.window_start());
  const double sessions_per_sec =
      wall > 0 ? static_cast<double>(stats.completions) / wall : 0.0;
  std::printf("  scale: hosts=%d shards=%d wave=%d sessions=%llu workers=%zu "
              "digest=%s\n",
              o.sc.hosts, o.sc.shards, o.wave,
              static_cast<unsigned long long>(sessions), o.sc.workers,
              bench::hex_digest(digest).c_str());
  std::printf("    window %.1f sim-s in %.1f wall-s; %llu completions "
              "(%.0f sessions/s wall, %.0f/sim-s), %llu failures\n",
              sim_window, wall,
              static_cast<unsigned long long>(stats.completions),
              sessions_per_sec,
              sim_window > 0
                  ? static_cast<double>(stats.completions) / sim_window
                  : 0.0,
              static_cast<unsigned long long>(stats.failures));
  std::printf("    pooled availability %.6f; per-session p99 %.6f p999 %.6f "
              "(downtime p99 %.0f ms, p999 %.0f ms); %zu sessions still "
              "down\n",
              stats.pooled_availability, stats.availability_p99,
              stats.availability_p999,
              static_cast<double>(stats.session_downtime.percentile(99.0)) /
                  sim::kMillisecond,
              static_cast<double>(stats.session_downtime.percentile(99.9)) /
                  sim::kMillisecond,
              static_cast<std::size_t>(stats.sessions_down_at_end));
  std::printf("    waves: %zu started, %zu hosts rejuvenated (K=%d)%s; "
              "federated dispatches %llu, rejected %llu\n",
              waves.waves.size(), waves.hosts_rejuvenated, o.wave,
              scenario.waves_done() ? ", pass complete"
                                    : ", pass still rolling",
              static_cast<unsigned long long>(
                  cl.sharded_balancer()->federated()),
              static_cast<unsigned long long>(
                  cl.sharded_balancer()->rejected()));
  std::printf("    engine: %llu windows, %llu messages, %llu events "
              "(%.2fM events/s)\n",
              static_cast<unsigned long long>(engine.windows_executed()),
              static_cast<unsigned long long>(engine.messages_routed()),
              static_cast<unsigned long long>(engine.total_executed_events()),
              wall > 0 ? static_cast<double>(engine.total_executed_events()) /
                             wall / 1e6
                       : 0.0);

  std::ofstream js(o.out);
  if (!js) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  bench::write_scale_json_header(js, "fig9_scale", o.sc, o.wave);
  js << "  \"lookahead_us\": "
     << static_cast<long long>(cluster::ScaleScenario::kLinkLatency) << ",\n"
     << "  \"sim_seconds\": " << sim_window << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"completions\": " << stats.completions << ",\n"
     << "  \"failures\": " << stats.failures << ",\n"
     << "  \"sessions_per_sec\": " << sessions_per_sec << ",\n"
     << "  \"sessions_per_sim_sec\": "
     << (sim_window > 0
             ? static_cast<double>(stats.completions) / sim_window
             : 0.0)
     << ",\n"
     << "  \"pooled_availability\": " << stats.pooled_availability << ",\n"
     << "  \"p99_availability\": " << stats.availability_p99 << ",\n"
     << "  \"p999_availability\": " << stats.availability_p999 << ",\n"
     << "  \"planned_downtime_us\": " << stats.planned_downtime << ",\n"
     << "  \"unplanned_downtime_us\": " << stats.unplanned_downtime << ",\n"
     << "  \"p99_session_downtime_us\": "
     << stats.session_downtime.percentile(99.0) << ",\n"
     << "  \"p999_session_downtime_us\": "
     << stats.session_downtime.percentile(99.9) << ",\n"
     << "  \"p99_request_latency_us\": "
     << stats.request_latency.percentile(99.0) << ",\n"
     << "  \"waves_started\": " << waves.waves.size() << ",\n"
     << "  \"hosts_rejuvenated\": " << waves.hosts_rejuvenated << ",\n"
     << "  \"federated_dispatches\": " << cl.sharded_balancer()->federated()
     << ",\n"
     << "  \"rejected_dispatches\": " << cl.sharded_balancer()->rejected()
     << ",\n"
     << "  \"events\": " << engine.total_executed_events() << ",\n"
     << "  \"windows\": " << engine.windows_executed() << ",\n"
     << "  \"digest\": \"" << bench::hex_digest(digest) << "\"\n"
     << "}\n";
  std::printf("    wrote %s\n", o.out.c_str());
  return 0;
}

// The paper's stated future work: empirically evaluate migration-based
// rejuvenation. Evacuate a host to a spare by live migration, rejuvenate
// the (now empty) host, migrate everything back.
struct MigrationRow {
  double total_min = 0;
  double worst_downtime_s = 0;
};

MigrationRow migration_based_once(sim::Rng rng) {
  sim::Simulation s;
  const Calibration calib = bench::replication_calibration();
  vmm::Host active(s, calib, rng.next());
  vmm::Host spare(s, calib, rng.next());
  active.instant_start();
  spare.instant_start();
  constexpr int kVms = 4;
  std::vector<std::unique_ptr<guest::GuestOs>> vms;
  int booted = 0;
  for (int i = 0; i < kVms; ++i) {
    vms.push_back(std::make_unique<guest::GuestOs>(
        active, "vm" + std::to_string(i), sim::kGiB));
    vms.back()->add_service(std::make_unique<guest::SshService>());
    vms.back()->create_and_boot([&booted] { ++booted; });
  }
  while (booted < kVms) s.step();

  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& vm : vms) {
    auto* ssh = vm->find_service("sshd");
    probers.push_back(std::make_unique<workload::Prober>(
        s, workload::Prober::Config{10 * sim::kMillisecond},
        [vm = vm.get(), ssh] { return vm->service_reachable(*ssh); }));
    probers.back()->start();
  }
  const sim::SimTime start = s.now();

  // Evacuate, rejuvenate, return -- sequentially, like xm migrate would.
  cluster::VmMigrator migrator;
  std::function<void(std::size_t, vmm::Host&, vmm::Host&, std::function<void()>)>
      move_all = [&](std::size_t i, vmm::Host& from, vmm::Host& to,
                     std::function<void()> done) {
        if (i == vms.size()) {
          done();
          return;
        }
        (void)from;
        migrator.migrate(*vms[i], to,
                         [&, i, done](const cluster::VmMigrator::Result&) {
                           move_all(i + 1, from, to, std::move(done));
                         });
      };
  bool finished = false;
  move_all(0, active, spare, [&] {
    // The active host is empty: plain reboot (nothing to preserve), then
    // bring every VM home.
    active.shutdown_dom0([&] {
      active.hardware_reboot([&] {
        move_all(0, spare, active, [&] { finished = true; });
      });
    });
  });
  while (!finished && s.pending_events() > 0) s.step();
  s.run_for(sim::kSecond);

  MigrationRow row;
  for (auto& p : probers) {
    p->stop();
    row.worst_downtime_s =
        std::max(row.worst_downtime_s,
                 sim::to_seconds(p->total_downtime(start, s.now())));
  }
  row.total_min = sim::to_seconds(s.now() - start) / 60.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace FILE: additionally run one observed cluster pass and write a
  // Perfetto-loadable Chrome trace there. --workers N: run ONLY the
  // partitioned-engine scenario and print its digest (CI diffs N=1 vs
  // N=4). --hosts/--shards/...: run ONLY the datacenter-scale scenario
  // (sharded balancer + session fleet + waves) and write BENCH_scale.json.
  // Without them the default invocation (and its output) is untouched.
  std::string trace_path;
  ScaleOptions scale;
  rh::bench::SweepOptions opt;
  rh::bench::Cli cli;
  cli.add("--trace", trace_path)
      .add("--workers", scale.sc.workers)
      .add("--hosts", scale.sc.hosts)
      .add("--shards", scale.sc.shards)
      .add("--wave", scale.wave)
      .add("--sessions", scale.sc.sessions)
      .add("--sim-seconds", scale.sim_seconds)
      .add("--out", scale.out);
  opt.parse(argc, argv, cli);
  const bool scale_mode =
      cli.given("--hosts") || cli.given("--shards") || cli.given("--wave") ||
      cli.given("--sessions") || cli.given("--sim-seconds");
  const std::size_t par_workers = scale.sc.workers;
  if (scale_mode) {
    if (scale.sc.hosts < 1 || scale.sc.shards < 1 || scale.wave < 1 ||
        scale.sim_seconds <= 0) {
      std::fprintf(stderr, "scale mode needs hosts/shards/wave >= 1 and "
                           "sim-seconds > 0\n");
      return 2;
    }
    scale.sc.workers = std::max<std::size_t>(par_workers, 1);
    scale.sc.seed = opt.root_seed;
    return run_scale(scale);
  }
  if (par_workers > 0) {
    parallel_once(par_workers, opt.root_seed);
    return 0;
  }
  rh::bench::print_header(
      "Figure 9 / Section 6: cluster throughput during rejuvenation");
  using rh::bench::fmt_ci;

  // The analytic model is closed-form: one evaluation, no replication.
  analytic_part();

  // DES cluster: one grid point, replicated under independent seeds.
  enum { kBase, kDuring, kAfter, kLongest, kDeferred };
  const auto sim_grid =
      exp::run_grid(opt.grid(1), [](const exp::ReplicationContext& ctx) {
        const SimRow r = simulated_once(ctx.seed);
        exp::ReplicationResult out;
        out.values = {r.baseline, r.during, r.after, r.longest_host_s,
                      static_cast<double>(r.deferred)};
        return out;
      });
  const auto& sg = sim_grid.point(0);
  std::printf("\n  DES cluster (m=3 hosts x 4 VMs, rolling warm rejuvenation; "
              "%zu replications, %zu threads):\n",
              opt.reps, sim_grid.threads_used);
  std::printf("    baseline %s req/s; during rolling rejuvenation %s req/s "
              "(expect ~(m-1)/m = %.0f); after %s req/s\n",
              fmt_ci(sg.mean(kBase), sg.ci95(kBase), "%.0f").c_str(),
              fmt_ci(sg.mean(kDuring), sg.ci95(kDuring), "%.0f").c_str(),
              sg.mean(kBase) * 2.0 / 3.0,
              fmt_ci(sg.mean(kAfter), sg.ci95(kAfter), "%.0f").c_str());
  std::printf("    longest per-host rejuvenation: %s s\n",
              fmt_ci(sg.mean(kLongest), sg.ci95(kLongest), "%.1f").c_str());
  std::printf("    service downtime at the load balancer: zero requests were "
              "permanently failed; %s were deferred and retried\n",
              fmt_ci(sg.mean(kDeferred), sg.ci95(kDeferred), "%.0f").c_str());
  if (!trace_path.empty()) {
    simulated_once(opt.root_seed, trace_path);
    std::printf("    wrote Chrome trace of one observed pass to %s\n",
                trace_path.c_str());
  }

  // Migration-based rejuvenation (the paper's future work), replicated.
  enum { kTotalMin, kWorstDt };
  const auto mig_grid =
      exp::run_grid(opt.grid(1), [](const exp::ReplicationContext& ctx) {
        const MigrationRow r = migration_based_once(ctx.rng);
        exp::ReplicationResult out;
        out.values = {r.total_min, r.worst_downtime_s};
        return out;
      });
  const auto& mg = mig_grid.point(0);
  std::printf("\n  migration-based rejuvenation, measured (1 host + 1 spare, "
              "4 x 1 GiB VMs; %zu replications):\n", opt.reps);
  std::printf("    total procedure (evacuate + reboot + return): %s min\n",
              fmt_ci(mg.mean(kTotalMin), mg.ci95(kTotalMin), "%.1f").c_str());
  std::printf("    worst per-VM service downtime: %s s (stop-and-copy only "
              "-- vs 42 s warm, 241 s cold)\n",
              fmt_ci(mg.mean(kWorstDt), mg.ci95(kWorstDt), "%.2f").c_str());
  std::printf("    but a spare host was occupied the whole time: cluster "
              "capacity (m-1)p throughout.\n");
  return 0;
}
