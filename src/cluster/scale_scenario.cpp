#include "cluster/scale_scenario.hpp"

#include "cluster/metrics_scraper.hpp"

namespace rh::cluster {

namespace {

Cluster::Config cluster_config(const ScaleScenario::Config& c,
                               sim::ParallelSimulation& engine) {
  Cluster::Config cfg;
  cfg.hosts = c.hosts;
  cfg.vms_per_host = ScaleScenario::kVmsPerHost;
  cfg.seed = c.seed;
  cfg.shards = c.shards;
  cfg.engine = &engine;
  // Slim per-host footprint so 1000 hosts fit: small machines, small VMs,
  // little replicated content. The scale figures measure control-plane
  // scaling, not per-host memory realism.
  cfg.calib.machine.ram = sim::kGiB;
  cfg.calib.dom0_memory = 256 * sim::kMiB;
  cfg.vm_memory = 128 * sim::kMiB;
  cfg.files_per_vm = 4;
  cfg.file_size = 32 * sim::kKiB;
  cfg.calib.link.latency = ScaleScenario::kLinkLatency;
  cfg.faults.vmm_crash_rate = c.fault_rate;
  cfg.faults.vmm_hang_rate = c.fault_rate / 2.0;
  return cfg;
}

}  // namespace

ScaleScenario::ScaleScenario(const Config& config)
    : engine_({.partitions = 1 + config.shards + config.hosts,
               .workers = config.workers}),
      cluster_(engine_.partition(0), cluster_config(config, engine_)) {
  if (config.fleet) {
    SessionFleet::Config fc;
    fc.sessions = sessions(config);
    fc.think_base = 20 * sim::kSecond;
    fc.think_spread = 20 * sim::kSecond;
    fc.retry_interval = sim::kSecond;
    fc.tick = 250 * sim::kMillisecond;
    fleet_ = std::make_unique<SessionFleet>(*cluster_.sharded_balancer(), fc);
  }
  bool ready = false;
  cluster_.start([&ready] { ready = true; });
  engine_.run_while([&ready] { return !ready; });
  if (fleet_ != nullptr) fleet_->start(engine_);
}

void ScaleScenario::run(const Cluster::WaveConfig& waves,
                        sim::Duration warmup, sim::Duration window) {
  // Warm-up: let the staggered first requests reach steady state before
  // the measurement window opens.
  engine_.run_until(engine_.partition(0).now() + warmup);
  window_start_ = engine_.partition(0).now();
  if (fleet_ != nullptr) fleet_->begin_window(window_start_);
  engine_.run_on(0, [this, waves] {
    cluster_.rolling_rejuvenation_waves(
        waves, [this](const Cluster::WaveReport&) { waves_done_ = true; });
  });
  engine_.run_until(window_start_ + window);
  window_end_ = engine_.partition(0).now();
}

std::uint64_t ScaleScenario::digest() {
  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) { mix_digest(digest, v); };
  for (std::int32_t p = 0; p < engine_.partition_count(); ++p) {
    mix(static_cast<std::uint64_t>(engine_.partition(p).now()));
    mix(engine_.partition(p).executed_events());
  }
  if (fleet_ != nullptr) mix(fleet_->state_digest());
  mix(cluster_.sharded_balancer()->state_digest());
  if (cluster_.steady_faults_armed()) {
    const Cluster::UnplannedReport& u = cluster_.unplanned_report();
    mix(u.failures);
    mix(u.absorbed);
    mix(u.recoveries);
    mix(u.micro_recoveries);
    mix(u.unrecovered);
    mix(static_cast<std::uint64_t>(u.downtime));
  }
  for (const auto& w : cluster_.last_wave_report().waves) {
    mix(static_cast<std::uint64_t>(w.started));
    mix(static_cast<std::uint64_t>(w.finished));
    for (const auto h : w.hosts) mix(h);
  }
  for (const auto d : cluster_.rejuvenation_durations()) {
    mix(static_cast<std::uint64_t>(d));
  }
  if (cluster_.scraper() != nullptr) mix(cluster_.scraper()->state_digest());
  mix(engine_.messages_routed());
  return digest;
}

}  // namespace rh::cluster
