// Sharded control plane + batched session store + wave scheduling
// (DESIGN.md §12): hash routing, shard-local round-robin determinism,
// federated failover when a shard empties, two-phase pressure spillover,
// SessionFleet downtime accounting, and the wave scheduler's
// signal-driven ordering / downtime-budget clamp.
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/sharded_balancer.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

TEST(ShardedBalancer, HashRoutingIsUniformAndStable) {
  cluster::ShardedBalancer sb(4);
  std::vector<int> hits(4, 0);
  for (std::uint64_t k = 0; k < 10000; ++k) ++hits[sb.home_shard(k)];
  // Dense keys 0..M-1 must decorrelate through the splitmix64 finaliser:
  // every shard takes a fair share, not stripes of the key space.
  for (const int h : hits) EXPECT_GT(h, 2000);
  // The mapping is a pure function of (key, shard count).
  cluster::ShardedBalancer other(4);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(other.home_shard(k), sb.home_shard(k));
  }
}

// Sequential sharded cluster: hosts h belong to shard h % shards.
struct ShardedRig {
  static cluster::Cluster::Config config(int hosts, int shards, int vms) {
    cluster::Cluster::Config c;
    c.hosts = hosts;
    c.shards = shards;
    c.vms_per_host = vms;
    c.files_per_vm = 8;
    c.file_size = 64 * sim::kKiB;
    return c;
  }

  sim::Simulation sim;
  cluster::Cluster cl;

  explicit ShardedRig(int hosts, int shards, int vms = 1)
      : cl(sim, config(hosts, shards, vms)) {
    bool ready = false;
    cl.start([&ready] { ready = true; });
    while (!ready && sim.pending_events() > 0) sim.step();
    EXPECT_TRUE(ready);
  }

  cluster::ShardedBalancer& sb() { return *cl.sharded_balancer(); }

  std::uint64_t key_homed_to(std::size_t shard) {
    for (std::uint64_t k = 0;; ++k) {
      if (sb().home_shard(k) == shard) return k;
    }
  }

  std::uint64_t served_by_host(int h) {
    std::uint64_t n = 0;
    for (auto* g : cl.guests_of(h)) {
      n += static_cast<guest::ApacheService*>(g->find_service("httpd"))
               ->requests_served();
    }
    return n;
  }
};

TEST(ShardedBalancer, ShardLocalDispatchStaysOnOwnedBackends) {
  ShardedRig rig(2, 2, 2);  // shard 0 owns host 0's two VMs
  int served = 0;
  for (int i = 0; i < 5; ++i) {
    rig.sb().dispatch_on(0, /*key=*/i, [&](bool ok) { served += ok ? 1 : 0; });
  }
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 5);
  EXPECT_EQ(rig.sb().shard_dispatched(0), std::uint64_t{5});
  EXPECT_EQ(rig.sb().dispatched(), std::uint64_t{5});
  EXPECT_EQ(rig.sb().federated(), std::uint64_t{0});
  // Shard 0 never touched host 1 (shard 1's backend).
  EXPECT_EQ(rig.served_by_host(0), std::uint64_t{5});
  EXPECT_EQ(rig.served_by_host(1), std::uint64_t{0});
}

TEST(ShardedBalancer, IdenticalRunsProduceIdenticalStateDigests) {
  auto run = [] {
    ShardedRig rig(2, 2, 2);
    for (int i = 0; i < 7; ++i) {
      rig.sb().dispatch(static_cast<std::uint64_t>(i), [](bool) {});
    }
    rig.sim.run_for(5 * sim::kSecond);
    return rig.sb().state_digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(ShardedBalancer, EmptiedShardFailsOverDeterministically) {
  ShardedRig rig(4, 2, 1);  // shard 0 owns hosts {0, 2}, shard 1 owns {1, 3}
  rig.sb().set_host_evicted(0, true);
  rig.sb().set_host_evicted(2, true);
  EXPECT_EQ(rig.sb().evicted_backends(), std::size_t{2});

  const std::uint64_t key = rig.key_homed_to(0);
  int served = 0;
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);

  EXPECT_EQ(served, 2);
  // Both requests spilled over the ring to shard 1, which walked its own
  // round-robin: host 1 first, host 3 second.
  EXPECT_EQ(rig.sb().federated(), std::uint64_t{2});
  EXPECT_EQ(rig.sb().shard_federated(1), std::uint64_t{2});
  EXPECT_EQ(rig.sb().shard_dispatched(1), std::uint64_t{2});
  EXPECT_EQ(rig.served_by_host(1), std::uint64_t{1});
  EXPECT_EQ(rig.served_by_host(3), std::uint64_t{1});
  EXPECT_EQ(rig.sb().rejected(), std::uint64_t{0});

  // Lifting the eviction restores home-shard service.
  rig.sb().set_host_evicted(0, false);
  rig.sb().set_host_evicted(2, false);
  EXPECT_EQ(rig.sb().evicted_backends(), std::size_t{0});
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 3);
  EXPECT_EQ(rig.sb().federated(), std::uint64_t{2});  // unchanged
}

TEST(ShardedBalancer, AllBackendsEvictedRejects) {
  ShardedRig rig(2, 2, 1);
  rig.sb().set_host_evicted(0, true);
  rig.sb().set_host_evicted(1, true);
  bool called = false, ok = true;
  rig.sb().dispatch(0, [&](bool served) {
    called = true;
    ok = served;
  });
  EXPECT_TRUE(called);  // sequential mode rejects inline
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.sb().rejected(), std::uint64_t{1});
  EXPECT_EQ(rig.sb().dispatched(), std::uint64_t{0});
}

TEST(ShardedBalancer, CrashEvictionRoutesAroundThenReadmits) {
  ShardedRig rig(4, 2, 1);  // shard 0 owns hosts {0, 2}
  rig.sb().set_host_crashed(0, true);
  EXPECT_EQ(rig.sb().crashed_backends(), std::size_t{1});
  // The broadcast reaches every shard's membership view, not just the
  // owner's: spillover targets must also know the backend is dead.
  EXPECT_EQ(rig.sb().shard_unplanned_down(0), std::uint32_t{1});
  EXPECT_EQ(rig.sb().shard_unplanned_down(1), std::uint32_t{1});

  const std::uint64_t key = rig.key_homed_to(0);
  int served = 0;
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  // The surviving home backend picks it up: no federation, no rejection.
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rig.served_by_host(0), std::uint64_t{0});
  EXPECT_EQ(rig.served_by_host(2), std::uint64_t{1});
  EXPECT_EQ(rig.sb().federated(), std::uint64_t{0});

  // Recovery readmits; the broadcast counter saw both membership flips
  // (and a redundant re-broadcast is not a flip).
  rig.sb().set_host_crashed(0, false);
  rig.sb().set_host_crashed(0, false);
  EXPECT_EQ(rig.sb().crashed_backends(), std::size_t{0});
  EXPECT_EQ(rig.sb().shard_unplanned_down(0), std::uint32_t{0});
  EXPECT_EQ(rig.sb().crash_broadcasts(), std::uint64_t{2});
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(rig.served_by_host(0), std::uint64_t{1});  // back in rotation
}

TEST(ShardedBalancer, CrashAndAdminEvictionAreIndependent) {
  ShardedRig rig(4, 2, 1);
  // Host 0 is both drained by the operator and crash-downed. The crash
  // recovery readmit must NOT cancel the admin drain.
  rig.sb().set_host_evicted(0, true);
  rig.sb().set_host_crashed(0, true);
  rig.sb().set_host_crashed(0, false);
  EXPECT_EQ(rig.sb().crashed_backends(), std::size_t{0});
  EXPECT_EQ(rig.sb().evicted_backends(), std::size_t{1});

  const std::uint64_t key = rig.key_homed_to(0);
  int served = 0;
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rig.served_by_host(0), std::uint64_t{0});  // still drained
  EXPECT_EQ(rig.served_by_host(2), std::uint64_t{1});

  // And the drain lifting alone restores service while a *new* crash
  // keeps the host out.
  rig.sb().set_host_evicted(0, false);
  rig.sb().set_host_crashed(0, true);
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(rig.served_by_host(0), std::uint64_t{0});
  EXPECT_EQ(rig.served_by_host(2), std::uint64_t{2});
}

TEST(ShardedBalancer, PressuredHomeSpillsOverThenServesAsLastResort) {
  ShardedRig rig(2, 2, 1);  // shard s owns host s
  rig.sb().set_host_pressured(0, true);
  const std::uint64_t key = rig.key_homed_to(0);
  int served = 0;
  // First phase: the pressured home backend is skipped and the request
  // federates to the unpressured shard 1.
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rig.sb().federated(), std::uint64_t{1});
  EXPECT_EQ(rig.served_by_host(1), std::uint64_t{1});
  // Second phase: everything pressured -- the second lap accepts the home
  // backend rather than failing the request.
  rig.sb().set_host_pressured(1, true);
  rig.sb().dispatch(key, [&](bool ok) { served += ok ? 1 : 0; });
  rig.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(rig.sb().rejected(), std::uint64_t{0});
  EXPECT_EQ(rig.served_by_host(0), std::uint64_t{1});
}

// ------------------------------------------------------- session fleet

TEST(SessionFleet, ClosedLoopReachesFullAvailabilityWithoutFaults) {
  ShardedRig rig(2, 2, 2);
  cluster::SessionFleet fleet(rig.sb(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.sim);
  rig.sim.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.sim.now());
  rig.sim.run_for(10 * sim::kSecond);
  fleet.stop();
  const auto stats = fleet.stats(rig.sim.now());
  EXPECT_GT(stats.completions, std::uint64_t{0});
  EXPECT_EQ(stats.failures, std::uint64_t{0});
  EXPECT_EQ(stats.sessions_down_at_end, std::uint64_t{0});
  EXPECT_DOUBLE_EQ(stats.pooled_availability, 1.0);
  EXPECT_DOUBLE_EQ(stats.availability_p99, 1.0);
  EXPECT_DOUBLE_EQ(stats.availability_p999, 1.0);
  EXPECT_EQ(fleet.session_count(), std::uint64_t{16});
}

TEST(SessionFleet, OutageChargesPerSessionDowntimeIntoPercentiles) {
  ShardedRig rig(2, 2, 2);
  cluster::SessionFleet fleet(rig.sb(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.sim);
  rig.sim.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.sim.now());

  // Total outage: every dispatch fails, sessions go down at their issue
  // time and stay down until service returns.
  rig.sb().set_host_evicted(0, true);
  rig.sb().set_host_evicted(1, true);
  rig.sim.run_for(5 * sim::kSecond);
  const auto mid = fleet.stats(rig.sim.now());
  EXPECT_GT(mid.failures, std::uint64_t{0});
  EXPECT_GT(mid.sessions_down_at_end, std::uint64_t{0});
  EXPECT_LT(mid.pooled_availability, 1.0);

  rig.sb().set_host_evicted(0, false);
  rig.sb().set_host_evicted(1, false);
  rig.sim.run_for(10 * sim::kSecond);
  fleet.stop();
  const auto stats = fleet.stats(rig.sim.now());
  EXPECT_GT(stats.completions, std::uint64_t{0});
  EXPECT_EQ(stats.sessions_down_at_end, std::uint64_t{0});  // all recovered
  // The outage shows up both pooled and in the per-session tail.
  EXPECT_LT(stats.pooled_availability, 1.0);
  EXPECT_LT(stats.availability_p99, 1.0);
  EXPECT_GT(stats.session_downtime.percentile(0.99), 0);
}

// ------------------------------------------------------ wave scheduling

TEST(ClusterWaves, OrderFollowsLoadSignalsWithIndexTieBreak) {
  ShardedRig rig(3, 3, 1);  // shard s owns host s
  // Only host 2 carries traffic, so it must be rejuvenated last; hosts 0
  // and 1 tie at zero load (and unlimited preserved headroom) and fall
  // back to index order.
  int served = 0;
  for (int i = 0; i < 6; ++i) {
    rig.sb().dispatch_on(2, /*key=*/i, [&](bool ok) { served += ok ? 1 : 0; });
  }
  rig.sim.run_for(5 * sim::kSecond);
  ASSERT_EQ(served, 6);

  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      {.wave_size = 1}, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done) rig.sim.step();

  ASSERT_EQ(report.waves.size(), std::size_t{3});
  EXPECT_EQ(report.waves[0].hosts, (std::vector<std::size_t>{0}));
  EXPECT_EQ(report.waves[1].hosts, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.waves[2].hosts, (std::vector<std::size_t>{2}));
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{3});
  for (const auto& w : report.waves) EXPECT_LT(w.started, w.finished);
  EXPECT_EQ(rig.cl.rejuvenation_durations().size(), std::size_t{3});
}

TEST(ClusterWaves, DowntimeBudgetClampsWaveSize) {
  ShardedRig rig(3, 1, 1);
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      {.wave_size = 3, .max_concurrent_down = 2},
      [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done) rig.sim.step();
  // Never more than two hosts down at once: a wave of 2, then the rest.
  ASSERT_EQ(report.waves.size(), std::size_t{2});
  EXPECT_EQ(report.waves[0].hosts.size(), std::size_t{2});
  EXPECT_EQ(report.waves[1].hosts.size(), std::size_t{1});
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{3});
}

TEST(ClusterWaves, OverlappingPassesAreRejected) {
  ShardedRig rig(2, 1, 1);
  bool done = false;
  rig.cl.rolling_rejuvenation_waves(
      {.wave_size = 2}, [&done](const cluster::Cluster::WaveReport&) {
        done = true;
      });
  EXPECT_TRUE(rig.cl.rolling_in_progress());
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves({}, [](auto&) {}),
               InvariantViolation);
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves(
                   {.kind = rejuv::RebootKind::kWarm}, [](auto&) {}),
               InvariantViolation);
  while (!done) rig.sim.step();
  EXPECT_FALSE(rig.cl.rolling_in_progress());
  // The concurrent wave ran both hosts together (one wave, two durations).
  EXPECT_EQ(rig.cl.last_wave_report().waves.size(), std::size_t{1});
  EXPECT_EQ(rig.cl.rejuvenation_durations().size(), std::size_t{2});
}

TEST(ClusterWaves, SignalsMirrorIntoMetricsWhenObserved) {
  cluster::Cluster::Config cfg = ShardedRig::config(2, 1, 1);
  cfg.observe = true;
  sim::Simulation sim;
  cluster::Cluster cl(sim, cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  while (!ready && sim.pending_events() > 0) sim.step();
  ASSERT_TRUE(ready);

  bool done = false;
  cl.rolling_rejuvenation_waves(
      {.wave_size = 1}, [&done](const cluster::Cluster::WaveReport&) {
        done = true;
      });
  while (!done) sim.step();
  for (int h = 0; h < 2; ++h) {
    auto& metrics = cl.host(h).obs().metrics();
    bool saw_load = false, saw_headroom = false;
    for (const auto& g : metrics.gauges()) {
      saw_load = saw_load || g.name == "host.load";
      saw_headroom = saw_headroom || g.name == "host.preserved_headroom";
    }
    EXPECT_TRUE(saw_load);
    EXPECT_TRUE(saw_headroom);
  }
}

}  // namespace
}  // namespace rh::test
