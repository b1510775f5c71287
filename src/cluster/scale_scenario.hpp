// The datacenter-scale scenario (DESIGN.md §12) behind every fleet-level
// figure: H slim hosts of two 128 MiB VMs behind S balancer shards on the
// parallel engine, a closed-loop SessionFleet, and one rolling pass run
// through a measurement window. fig9_cluster's scale mode, fig_crashscale
// and fig_scrape are cell tables over this one builder, so they measure
// the identical scenario and mix one digest.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "simcore/parallel.hpp"

namespace rh::cluster {

/// Folds `v` into a running digest (boost::hash_combine's mixer).
inline void mix_digest(std::uint64_t& digest, std::uint64_t v) {
  digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
}

class ScaleScenario {
 public:
  static constexpr int kVmsPerHost = 2;
  static constexpr std::uint64_t kSessionsPerHost = 1100;
  /// One-way link latency, and so the engine's lookahead: fat enough to
  /// keep the window count -- and the per-window barrier cost across
  /// 1000+ partitions -- affordable.
  static constexpr sim::Duration kLinkLatency = 500 * sim::kMicrosecond;

  struct Config {
    int hosts = 1000;
    int shards = 8;
    std::size_t workers = 1;
    std::uint64_t seed = 7;
    /// Concurrent closed-loop sessions; 0 means kSessionsPerHost per host.
    std::uint64_t sessions = 0;
    /// false: no SessionFleet at all, so nothing but the control plane
    /// and the hosts runs (fig_scrape's idle wave-order fidelity pair).
    bool fleet = true;
    /// Steady VMM crash rate per check (Cluster::Config::faults); hangs
    /// ride at half of it. Nothing fires until the caller arms
    /// cluster().start_steady_faults().
    double fault_rate = 0.0;
  };

  /// Builds the engine, the cluster and the fleet, boots every host and
  /// VM, and starts the fleet. Arm steady faults or scraping through
  /// cluster() before run().
  explicit ScaleScenario(const Config& config);

  /// The fleet's session count for `config`.
  [[nodiscard]] static std::uint64_t sessions(const Config& config) {
    return config.sessions != 0
               ? config.sessions
               : kSessionsPerHost * static_cast<std::uint64_t>(config.hosts);
  }

  /// Runs `warmup`, opens the fleet's measurement window, kicks the
  /// rolling pass on the control partition and runs `window` more.
  void run(const Cluster::WaveConfig& waves, sim::Duration warmup,
           sim::Duration window);

  [[nodiscard]] sim::ParallelSimulation& engine() { return engine_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  /// Null for a fleet-less scenario.
  [[nodiscard]] SessionFleet* fleet() { return fleet_.get(); }
  [[nodiscard]] sim::SimTime window_start() const { return window_start_; }
  [[nodiscard]] sim::SimTime window_end() const { return window_end_; }
  /// True once the rolling pass has finished inside the window.
  [[nodiscard]] bool waves_done() const { return waves_done_; }

  /// Worker-count-invariant digest of the finished run: partition clocks
  /// and event counts, fleet, balancer, the unplanned report (steady
  /// faults armed only), the waves, the turn durations, the scraper
  /// (scraping armed only) and the routed message count.
  [[nodiscard]] std::uint64_t digest();

 private:
  sim::ParallelSimulation engine_;
  Cluster cluster_;
  std::unique_ptr<SessionFleet> fleet_;
  sim::SimTime window_start_ = 0;
  sim::SimTime window_end_ = 0;
  bool waves_done_ = false;
};

}  // namespace rh::cluster
