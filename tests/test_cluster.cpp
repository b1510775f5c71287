// Cluster: analytic throughput model + DES load balancer + rolling rejuv.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/throughput_model.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(ClusterModel, TimelinesMatchFig9Shape) {
  cluster::ClusterThroughputParams p;  // defaults: paper's numbers, m=4
  cluster::ClusterThroughputModel model(p);
  using S = cluster::ClusterStrategy;
  // During the warm reboot: (m-1)p; after: m*p.
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kWarm, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kWarm, 43.0), 4.0);
  // Cold: longer dip, then the (m - delta)p cache-refill shoulder.
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kCold, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kCold, 244.0), 4.0 - 0.69);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kCold, 250.0), 4.0);
  // Migration: permanently (m-1)p, worse while migrating.
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kLiveMigration, 100.0), 3.0 - 0.12);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kLiveMigration, 1500.0), 3.0);
}

TEST(ClusterModel, WarmLosesLeastWork) {
  cluster::ClusterThroughputModel model({});
  using S = cluster::ClusterStrategy;
  const double warm = model.lost_work(S::kWarm, 1800);
  const double cold = model.lost_work(S::kCold, 1800);
  const double mig = model.lost_work(S::kLiveMigration, 1800);
  EXPECT_LT(warm, cold);
  EXPECT_LT(cold, mig);  // the reserved host dominates over 30 min
  EXPECT_NEAR(warm, 42.0, 1.0);
}

TEST(ClusterModel, SeriesCoversAllStrategies) {
  cluster::ClusterThroughputModel model({});
  const auto series = model.series(300.0, 10.0);
  ASSERT_EQ(series.size(), std::size_t{31});
  for (const auto& pt : series) {
    EXPECT_GT(pt.warm, 0.0);
    EXPECT_GE(pt.warm, pt.cold - 1e-9);  // warm never worse than cold
  }
}

TEST(ClusterModel, Validation) {
  cluster::ClusterThroughputParams p;
  p.hosts = 1;
  EXPECT_THROW(cluster::ClusterThroughputModel{p}, InvariantViolation);
}

// ------------------------------------------------------------------ DES

struct ClusterRig {
  static cluster::Cluster::Config config(int hosts, int vms) {
    cluster::Cluster::Config c;
    c.hosts = hosts;
    c.vms_per_host = vms;
    c.files_per_vm = 20;
    return c;
  }

  sim::Simulation sim;
  cluster::Cluster cl;

  explicit ClusterRig(int hosts = 2, int vms = 2)
      : cl(sim, config(hosts, vms)) {
    bool ready = false;
    cl.start([&ready] { ready = true; });
    while (!ready && sim.pending_events() > 0) sim.step();
    EXPECT_TRUE(ready);
  }

  cluster::ShardedBalancer& balancer() { return *cl.sharded_balancer(); }

  /// Backends answering right now, read off the guests themselves.
  std::size_t reachable_backends() {
    std::size_t n = 0;
    for (int h = 0; h < cl.host_count(); ++h) {
      for (auto* os : cl.guests_of(h)) {
        auto* apache =
            static_cast<guest::ApacheService*>(os->find_service("httpd"));
        if (os->service_reachable(*apache)) ++n;
      }
    }
    return n;
  }

  std::uint64_t served_by(int host) {
    std::uint64_t n = 0;
    for (auto* os : cl.guests_of(host)) {
      n += static_cast<guest::ApacheService*>(os->find_service("httpd"))
               ->requests_served();
    }
    return n;
  }
};

TEST(Cluster, StartBringsAllBackendsUp) {
  ClusterRig rig;
  EXPECT_EQ(rig.balancer().backend_count(), std::size_t{4});
  EXPECT_EQ(rig.reachable_backends(), std::size_t{4});
  for (int h = 0; h < 2; ++h) {
    EXPECT_TRUE(rig.cl.host(h).up());
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(rig.cl.guest(h, v).state(), guest::OsState::kRunning);
    }
  }
}

TEST(Cluster, BalancerSkipsUnreachableBackends) {
  ClusterRig rig;
  // Take host 0 down (dom0 shutdown kills its network path).
  bool down = false;
  rig.cl.host(0).shutdown_dom0([&down] { down = true; });
  while (!down) rig.sim.step();
  EXPECT_EQ(rig.reachable_backends(), std::size_t{2});
  int served = 0;
  for (int i = 0; i < 10; ++i) {
    rig.balancer().dispatch(static_cast<std::uint64_t>(i),
                            [&](bool ok) { served += ok ? 1 : 0; });
  }
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 10);  // host 1 carried everything
}

TEST(Cluster, DispatchFailsOnlyWhenAllDown) {
  ClusterRig rig(1, 1);
  bool down = false;
  rig.cl.host(0).shutdown_dom0([&down] { down = true; });
  while (!down) rig.sim.step();
  bool ok = true;
  rig.balancer().dispatch(0, [&](bool served) { ok = served; });
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.balancer().rejected(), std::uint64_t{1});
}

TEST(Cluster, RollingWarmRejuvenationKeepsServiceAvailable) {
  ClusterRig rig;
  cluster::ClusterClientFleet fleet(rig.sim, rig.balancer(), {});
  fleet.start();
  rig.sim.run_for(10 * sim::kSecond);
  bool done = false;
  rig.cl.rolling_rejuvenation_waves(
      {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  while (!done) rig.sim.step();
  rig.sim.run_for(10 * sim::kSecond);
  fleet.stop();
  // Two hosts rejuvenated sequentially (~50 s each) -- throughout, the
  // other host kept answering: there is never a window with zero backends.
  ASSERT_EQ(rig.cl.rejuvenation_durations().size(), std::size_t{2});
  for (const auto d : rig.cl.rejuvenation_durations()) {
    EXPECT_NEAR(sim::to_seconds(d), 52.0, 8.0);
  }
  EXPECT_EQ(rig.balancer().rejected(), std::uint64_t{0});
  // All guests everywhere survived with state intact.
  for (int h = 0; h < 2; ++h) {
    for (int v = 0; v < 2; ++v) {
      EXPECT_TRUE(rig.cl.guest(h, v).integrity_ok());
      EXPECT_EQ(rig.cl.guest(h, v).state(), guest::OsState::kRunning);
    }
  }
}

TEST(Cluster, GuestsOfValidatesIndex) {
  ClusterRig rig;
  EXPECT_THROW((void)rig.cl.host(5), InvariantViolation);
  EXPECT_THROW((void)rig.cl.guest(0, 9), InvariantViolation);
  EXPECT_EQ(rig.cl.guests_of(0).size(), std::size_t{2});
}

TEST(Cluster, OverlappingRollingPassesAreRejected) {
  // A second rolling pass while one is in flight would silently drop the
  // first pass's ladders mid-reboot; it must fail fast instead.
  ClusterRig rig;
  bool done = false;
  rig.cl.rolling_rejuvenation_waves(
      {.wave_size = 2},
      [&done](const cluster::Cluster::WaveReport&) { done = true; });
  EXPECT_TRUE(rig.cl.rolling_in_progress());
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves({}, [](auto&) {}),
               InvariantViolation);
  while (!done) rig.sim.step();
  EXPECT_FALSE(rig.cl.rolling_in_progress());
  // The concurrent wave ran both hosts together (one wave, two durations).
  EXPECT_EQ(rig.cl.last_wave_report().waves.size(), std::size_t{1});
  EXPECT_EQ(rig.cl.rejuvenation_durations().size(), std::size_t{2});
  // Retry knobs are validated at the entry point.
  EXPECT_THROW(
      rig.cl.rolling_rejuvenation_waves({.max_host_retries = -1},
                                        [](auto&) {}),
      InvariantViolation);
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves(
                   {.host_retry_base = 2 * sim::kHour,
                    .host_retry_cap = sim::kHour},
                   [](auto&) {}),
               InvariantViolation);
  EXPECT_FALSE(rig.cl.rolling_in_progress());
  // Once the pass finished, a new one is welcome again.
  bool again = false;
  rig.cl.rolling_rejuvenation_waves(
      {}, [&again](const cluster::Cluster::WaveReport&) { again = true; });
  while (!again) rig.sim.step();
  EXPECT_TRUE(again);
}

TEST(Cluster, SupervisedRollingPassIsCleanWithoutFaults) {
  ClusterRig rig;
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      {}, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done) rig.sim.step();
  EXPECT_TRUE(report.fully_recovered());
  // One turn per host, no retries.
  ASSERT_EQ(report.waves.size(), std::size_t{2});
  for (const auto& wave : report.waves) {
    ASSERT_EQ(wave.outcomes.size(), std::size_t{1});
    EXPECT_TRUE(wave.outcomes[0].success);
    EXPECT_EQ(wave.outcomes[0].resumed_vms, std::size_t{2});
  }
  EXPECT_TRUE(report.retries.empty());
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{2});
  EXPECT_TRUE(report.unrecovered_hosts.empty());
  EXPECT_EQ(rig.balancer().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_backends(), std::size_t{4});
}

TEST(Cluster, SupervisedRollingEvictsFailedHostAndRetriesIt) {
  ClusterRig rig;
  // Host 1's boots will hang forever (until the operator intervenes).
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  cfg.supervisor.max_step_retries = 0;
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      cfg, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  // Step until host 1's ladder exhausts and it is evicted mid-pass...
  while (!done && rig.balancer().evicted_backends() == 0) rig.sim.step();
  ASSERT_FALSE(done);
  EXPECT_EQ(rig.balancer().evicted_backends(), std::size_t{2});
  EXPECT_EQ(rig.cl.last_wave_report().unrecovered_hosts,
            (std::vector<std::size_t>{1}));
  // ...the balancer keeps serving from host 0 in the meantime...
  int served = 0;
  for (int i = 0; i < 8; ++i) {
    rig.balancer().dispatch(static_cast<std::uint64_t>(i),
                            [&](bool ok) { served += ok ? 1 : 0; });
  }
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 8);
  EXPECT_EQ(rig.served_by(1), std::uint64_t{0});
  // ...then the root cause is fixed, and the end-of-pass retry succeeds.
  rig.cl.host(1).configure_faults(fault::FaultConfig{});
  while (!done) rig.sim.step();

  EXPECT_TRUE(report.fully_recovered());
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  EXPECT_EQ(report.recovered_hosts, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(report.unrecovered_hosts.empty());
  ASSERT_EQ(report.retries.size(), std::size_t{1});
  EXPECT_TRUE(report.retries[0].success);
  EXPECT_EQ(rig.balancer().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_backends(), std::size_t{4});
  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(rig.cl.guest(1, v).state(), guest::OsState::kRunning);
  }
}

TEST(Cluster, SupervisedRollingGivesUpAfterHostRetryBudget) {
  ClusterRig rig;
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;  // never fixed this time
  rig.cl.host(0).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  cfg.supervisor.max_step_retries = 0;
  cfg.max_host_retries = 1;
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      cfg, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done) rig.sim.step();
  EXPECT_FALSE(report.fully_recovered());
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(report.recovered_hosts.empty());
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  // The dead host stays out of rotation; the healthy one still serves.
  EXPECT_EQ(rig.balancer().evicted_backends(), std::size_t{2});
  EXPECT_EQ(rig.reachable_backends(), std::size_t{2});
  // One turn on each host + 2 recovery attempts on host 0.
  EXPECT_EQ(report.waves.size(), std::size_t{2});
  ASSERT_EQ(report.retries.size(), std::size_t{2});
  for (const auto& retry : report.retries) EXPECT_FALSE(retry.success);
}

TEST(Cluster, HostsRejuvenatedCountsOnlySuccessfulTurns) {
  ClusterRig rig;
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  cfg.supervisor.max_step_retries = 0;
  cfg.max_host_retries = 0;
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      cfg, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done) rig.sim.step();
  // Host 1's turn exhausted: it ran, but it was not rejuvenated.
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{1}));
}

TEST(Cluster, EvictionExcludesBackendsFromDispatchUntilLifted) {
  ClusterRig rig;
  rig.balancer().set_host_evicted(0, true);
  EXPECT_EQ(rig.balancer().evicted_backends(), std::size_t{2});
  EXPECT_EQ(rig.reachable_backends(), std::size_t{4});  // evicted, not down
  int served = 0;
  for (int i = 0; i < 6; ++i) {
    rig.balancer().dispatch(static_cast<std::uint64_t>(i),
                            [&](bool ok) { served += ok ? 1 : 0; });
  }
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 6);
  EXPECT_EQ(rig.served_by(0), std::uint64_t{0});  // host 1 carried everything
  EXPECT_EQ(rig.served_by(1), std::uint64_t{6});
  rig.balancer().set_host_evicted(0, false);
  EXPECT_EQ(rig.balancer().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_backends(), std::size_t{4});
}

}  // namespace
}  // namespace rh::test
