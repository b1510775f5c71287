// Steady faults at datacenter scale (DESIGN.md §14): per-host steady
// fault arrivals answered by reusable recovery drivers, crash-evict /
// readmit membership riding the sharded balancer, failure-reactive wave
// admission (unplanned outages count against the downtime budget), and
// the session fleet's planned-vs-unplanned downtime attribution.
#include <array>
#include <cstdint>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/metrics_scraper.hpp"
#include "cluster/scale_scenario.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/sharded_balancer.hpp"

namespace rh::test {
namespace {

// Sequential sharded cluster with steady VMM faults armed at `rate`.
struct CrashRig {
  static cluster::Cluster::Config config(int hosts, int shards, double rate) {
    cluster::Cluster::Config c;
    c.hosts = hosts;
    c.shards = shards;
    c.vms_per_host = 1;
    c.files_per_vm = 8;
    c.file_size = 64 * sim::kKiB;
    c.faults.vmm_crash_rate = rate;
    return c;
  }

  sim::Simulation sim;
  cluster::Cluster cl;

  CrashRig(int hosts, int shards, double rate)
      : cl(sim, config(hosts, shards, rate)) {
    bool ready = false;
    cl.start([&ready] { ready = true; });
    while (!ready && sim.pending_events() > 0) sim.step();
    EXPECT_TRUE(ready);
  }
};

TEST(SteadyFaultsAtScale, CrashRecoverReadmitCycleKeepsTheFleetWhole) {
  CrashRig rig(2, 2, /*rate=*/1.0);
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  sfc.supervisor.micro.enabled = true;
  sfc.supervisor.micro.success_rate = 1.0;  // every hit recovers in place
  rig.cl.start_steady_faults(sfc);

  rig.sim.run_for(10 * sim::kSecond);
  // Disarming stops new arrivals; in-flight ladders drain out, after
  // which every failure has a matching recovery and readmission.
  rig.cl.stop_steady_faults();
  rig.sim.run_for(10 * sim::kSecond);
  const auto& rep = rig.cl.unplanned_report();
  // Certain hit on every check: both hosts cycled through crash ->
  // micro-recover -> readmit repeatedly.
  EXPECT_GT(rep.failures, std::uint64_t{4});
  EXPECT_EQ(rep.recoveries, rep.failures);
  EXPECT_EQ(rep.micro_recoveries, rep.recoveries);
  EXPECT_EQ(rep.unrecovered, std::uint64_t{0});
  EXPECT_GT(rep.downtime, sim::Duration{0});
  // Every eviction was matched by a readmission.
  EXPECT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{0});
  EXPECT_EQ(rig.cl.sharded_balancer()->crashed_backends(), std::size_t{0});
  EXPECT_EQ(rig.cl.sharded_balancer()->crash_broadcasts(),
            2 * rep.recoveries);

  // And no further arrivals fire once disarmed.
  const std::uint64_t before = rep.failures;
  rig.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(rig.cl.unplanned_report().failures, before);
}

TEST(SteadyFaultsAtScale, WaveAdmissionPausesUntilCrashBudgetFrees) {
  // Micro-recovery disabled: a crash takes the legacy hardware reboot, so
  // both hosts are down for minutes of sim time after the first check.
  CrashRig rig(2, 2, /*rate=*/1.0);
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = 500 * sim::kMillisecond;
  rig.cl.start_steady_faults(sfc);
  rig.sim.run_for(2 * sim::kSecond);
  ASSERT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{2});

  // With every host crash-down, the unplanned outages exhaust the budget:
  // the wave must pause instead of admitting turns onto dead hosts.
  bool done = false;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.wave_size = 1;
  wcfg.max_concurrent_down = 1;
  rig.cl.rolling_rejuvenation_waves(
      wcfg, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  EXPECT_FALSE(done);
  EXPECT_GE(rig.cl.last_wave_report().admission_pauses, std::size_t{1});

  // While the steady process keeps striking every 500 ms, some host is
  // crash-down essentially always, so the budget never frees: the wave
  // starves rather than admit a turn it has no downtime budget for.
  rig.sim.run_for(10 * sim::kMinute);
  EXPECT_FALSE(done);

  // Once the fault source dries up, the last recovery's kick replans the
  // remaining order from the live outcomes and the pass completes.
  rig.cl.stop_steady_faults();
  rig.sim.run_for(30 * sim::kMinute);
  EXPECT_TRUE(done);
  const auto& report = rig.cl.last_wave_report();
  EXPECT_EQ(report.hosts_rejuvenated + report.recovered_hosts.size() +
                report.unrecovered_hosts.size(),
            std::size_t{2});
  EXPECT_GT(report.planned_downtime, sim::Duration{0});
  // Unplanned ladders ran alongside the planned pass the whole time.
  EXPECT_GT(rig.cl.unplanned_report().failures, std::uint64_t{0});
}

TEST(SteadyFaultsAtScale, FaultsDuringAnOwnedLadderAreAbsorbed) {
  // One host, so the planned wave pass owns it while steady arrivals keep
  // landing: the recovery driver must absorb them instead of stacking a
  // second ladder onto the host (the PR-8 overlap guard).
  CrashRig rig(1, 1, /*rate=*/1.0);
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  sfc.supervisor.micro.enabled = true;
  sfc.supervisor.micro.success_rate = 1.0;
  rig.cl.start_steady_faults(sfc);

  bool done = false;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.wave_size = 1;
  rig.cl.rolling_rejuvenation_waves(
      wcfg, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  rig.sim.run_for(5 * sim::kMinute);
  EXPECT_TRUE(done);
  rig.cl.stop_steady_faults();
  rig.sim.run_for(10 * sim::kSecond);  // drain the last in-flight ladder
  const auto& rep = rig.cl.unplanned_report();
  EXPECT_GT(rep.absorbed, std::uint64_t{0});
  EXPECT_EQ(rep.failures, rep.recoveries + rep.unrecovered);
}

TEST(SteadyFaultsAtScale, FleetSplitsPlannedFromUnplannedDowntime) {
  CrashRig rig(2, 2, /*rate=*/0.0);
  cluster::SessionFleet fleet(*rig.cl.sharded_balancer(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.sim);
  rig.sim.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.sim.now());

  // First outage: a planned drain (admin eviction of every backend).
  rig.cl.sharded_balancer()->set_host_evicted(0, true);
  rig.cl.sharded_balancer()->set_host_evicted(1, true);
  rig.sim.run_for(4 * sim::kSecond);
  rig.cl.sharded_balancer()->set_host_evicted(0, false);
  rig.cl.sharded_balancer()->set_host_evicted(1, false);
  rig.sim.run_for(6 * sim::kSecond);
  const auto planned = fleet.stats(rig.sim.now());
  EXPECT_GT(planned.planned_downtime, sim::Duration{0});
  EXPECT_EQ(planned.unplanned_downtime, sim::Duration{0});

  // Second outage: the same shape, but the shards know their backends are
  // crash-down, so the downtime lands in the unplanned column.
  rig.cl.sharded_balancer()->set_host_crashed(0, true);
  rig.cl.sharded_balancer()->set_host_crashed(1, true);
  rig.sim.run_for(4 * sim::kSecond);
  rig.cl.sharded_balancer()->set_host_crashed(0, false);
  rig.cl.sharded_balancer()->set_host_crashed(1, false);
  rig.sim.run_for(6 * sim::kSecond);
  fleet.stop();
  const auto both = fleet.stats(rig.sim.now());
  EXPECT_GT(both.unplanned_downtime, sim::Duration{0});
  EXPECT_EQ(both.planned_downtime, planned.planned_downtime);
  // The split is an attribution, not extra downtime: the columns sum to
  // what the availability accounting already charges.
  EXPECT_DOUBLE_EQ(
      static_cast<double>(both.planned_downtime + both.unplanned_downtime),
      both.session_downtime.mean() * 16.0);
}

// cluster::ScaleScenario is the one builder behind every fleet-level
// bench; each shape the benches arm must digest identically for any
// worker count. Shapes run on 8 hosts behind 2 shards.
/// Runs one shape at 1 and at 4 workers; returns both digests.
template <class Arm, class Check>
std::array<std::uint64_t, 2> digests(bool fleet, double fault_rate, Arm arm,
                                     Check check) {
  std::array<std::uint64_t, 2> out{};
  const std::size_t workers[] = {1, 4};
  for (std::size_t i = 0; i < out.size(); ++i) {
    cluster::ScaleScenario s({.hosts = 8,
                              .shards = 2,
                              .workers = workers[i],
                              .fleet = fleet,
                              .fault_rate = fault_rate});
    cluster::Cluster::WaveConfig wc;
    wc.wave_size = 2;
    arm(s.cluster(), wc);
    s.run(wc, 3 * sim::kSecond, 20 * sim::kSecond);
    check(s);
    out[i] = s.digest();
  }
  return out;
}

TEST(ScaleScenario, PlainWavesDigestIsWorkerCountInvariant) {
  const auto d = digests(
      true, 0.0, [](cluster::Cluster&, cluster::Cluster::WaveConfig&) {},
      [](cluster::ScaleScenario& s) {
        EXPECT_GT(s.cluster().last_wave_report().waves.size(), std::size_t{0});
        EXPECT_GT(s.fleet()->stats(s.window_end()).completions,
                  std::uint64_t{0});
      });
  EXPECT_EQ(d[0], d[1]);
}

TEST(ScaleScenario, SteadyFaultsMicroLadderDigestIsWorkerCountInvariant) {
  const auto d = digests(
      true, 0.4,
      [](cluster::Cluster& cl, cluster::Cluster::WaveConfig& wc) {
        wc.supervisor.micro.enabled = true;
        cluster::Cluster::SteadyFaultsConfig sfc;
        sfc.process.check_interval = 2 * sim::kSecond;
        sfc.supervisor = wc.supervisor;
        cl.start_steady_faults(sfc);
      },
      [](cluster::ScaleScenario& s) {
        EXPECT_GT(s.cluster().unplanned_report().micro_recoveries,
                  std::uint64_t{0});
      });
  EXPECT_EQ(d[0], d[1]);
}

TEST(ScaleScenario, FleetlessScrapedDigestIsWorkerCountInvariant) {
  const auto d = digests(
      false, 0.0,
      [](cluster::Cluster& cl, cluster::Cluster::WaveConfig& wc) {
        cluster::Cluster::ScrapeConfig sc;
        sc.interval = 2 * sim::kSecond;
        sc.timeout = sim::kSecond;
        cl.start_scraping(sc);
        wc.signals = cluster::Cluster::WaveSignalSource::kScraped;
      },
      [](cluster::ScaleScenario& s) {
        EXPECT_EQ(s.fleet(), nullptr);
        EXPECT_GT(s.cluster().scraper()->stats().scrapes_ok, std::uint64_t{0});
        EXPECT_GT(s.cluster().last_wave_report().waves.size(), std::size_t{0});
      });
  EXPECT_EQ(d[0], d[1]);
}

}  // namespace
}  // namespace rh::test
