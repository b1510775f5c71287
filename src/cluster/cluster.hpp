// A simulated cluster: m full hosts behind a load balancer, with rolling
// VMM rejuvenation (the Section 6 scenario, simulated rather than only
// analysed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/sharded_balancer.hpp"
#include "fault/fault.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "rejuv/recovery_driver.hpp"
#include "rejuv/supervisor.hpp"

namespace rh::cluster {

class MetricsScraper;

class Cluster {
 public:
  struct Config {
    int hosts = 3;
    int vms_per_host = 4;
    sim::Bytes vm_memory = sim::kGiB;
    int files_per_vm = 50;
    sim::Bytes file_size = 512 * sim::kKiB;
    Calibration calib;
    /// Base RNG seed; host h is seeded with `seed + h`. The default keeps
    /// the historical single-run behaviour; replicated experiments pass a
    /// per-replication seed from exp::ReplicationContext.
    std::uint64_t seed = 1000;
    /// Per-host fault plan. All-zero (the default) arms nothing and draws
    /// nothing, so fault-free clusters reproduce historical runs exactly.
    fault::FaultConfig faults;
    /// Enables every host's typed observer (events/spans/metrics) plus the
    /// cluster-level rolling-pass spans. Off by default: disabled
    /// observability is one predicted branch per site and the run stays
    /// byte-identical to pre-observability builds.
    bool observe = false;
    /// Conservative parallel-in-run engine (DESIGN.md §11), non-owning.
    /// When set it must have exactly 1 + shards + hosts partitions:
    /// partition 0 is the control plane (client fleet + rolling-pass
    /// control, driven by the engine's partition(0) Simulation, which
    /// must be the `sim` passed to the constructor), balancer shard s
    /// lives on partition 1 + s (the lone shard of shards = 0 shares
    /// partition 0), and host h lives on partition 1 + shards + h. All
    /// cross-host interaction then flows through the engine's mailboxes;
    /// results are bitwise identical for any worker count, but not
    /// byte-identical to the null-engine fast path (balancer RPCs gain
    /// real link latency). Null (default): one calendar for everything.
    sim::ParallelSimulation* engine = nullptr;
    /// Balancer shards (DESIGN.md §12). The cluster runs one
    /// ShardedBalancer with max(shards, 1) shards; every VM registers at
    /// construction with its host's shard (host h's backends belong to
    /// shard h % shards). 0 (default): one shard, which under the engine
    /// lives on the control partition -- the paper's single balancer.
    /// > 0: under the engine each shard gets its own partition so
    /// dispatch is parallel-in-run.
    int shards = 0;
  };

  Cluster(sim::Simulation& sim, Config config);
  ~Cluster();  ///< out-of-line: scraper_ is a unique_ptr of a fwd decl
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every host instantly, then creates and boots all VMs (taking
  /// simulated time). `on_ready` fires when every backend answers. Call
  /// while the engine (if any) is quiescent, then drive the engine:
  /// on_ready fires on the control partition once the boot events have
  /// run.
  void start(std::function<void()> on_ready);

  /// Partition carrying host `i` under the parallel engine
  /// (1 + shards + i), or 0 when the cluster runs on a single calendar.
  [[nodiscard]] std::int32_t partition_of(int i) const {
    return config_.engine != nullptr ? 1 + config_.shards + i : 0;
  }

  [[nodiscard]] int host_count() const { return config_.hosts; }
  [[nodiscard]] vmm::Host& host(int i);
  [[nodiscard]] guest::GuestOs& guest(int host, int vm);
  [[nodiscard]] std::vector<guest::GuestOs*> guests_of(int host);
  /// The cluster's balancer; never null.
  [[nodiscard]] ShardedBalancer* sharded_balancer() { return &balancer_; }

  /// Where rolling_rejuvenation_waves reads its per-host ordering
  /// signals from.
  enum class WaveSignalSource : std::uint8_t {
    /// Wire-tap: probe every pending host's in-process gauges over the
    /// mailboxes before each wave (the historical behaviour).
    kWireTap,
    /// Production-shaped: read the latest scraped samples from the
    /// MetricsScraper's TimeSeriesStore -- no direct gauge reads at all.
    /// Requires start_scraping(); hosts whose series are missing or
    /// stale are treated as unloaded/unconstrained (the scheduler acts
    /// on what the telemetry shows, not on the truth).
    kScraped,
  };

  /// Knobs for the rolling pass (rolling_rejuvenation_waves). The
  /// defaults are the paper's pass: one host at a time, warm reboot.
  struct WaveConfig {
    /// Hosts rejuvenated concurrently per wave.
    int wave_size = 1;
    /// Global concurrent-downtime budget: never more than this many hosts
    /// down at once, across all causes the scheduler controls. 0 means
    /// "the wave size is the budget". Waves are clamped to the budget.
    int max_concurrent_down = 0;
    rejuv::RebootKind kind = rejuv::RebootKind::kWarm;
    /// Every wave turn runs under a rejuv::Supervisor (watchdogs, retries,
    /// the full degradation ladder incl. micro-recovery). `kind` above
    /// overrides `supervisor.preferred`, so historical call sites keep
    /// their meaning.
    rejuv::SupervisorConfig supervisor{};
    /// Signal source for the wave ordering (DESIGN.md §15).
    WaveSignalSource signals = WaveSignalSource::kWireTap;
    /// A host whose turn ladder exhausted is evicted from the balancer and
    /// retried once every wave is done: up to max_host_retries + 1
    /// recovery attempts, with capped exponential backoff before each.
    int max_host_retries = 2;
    sim::Duration host_retry_base = 30 * sim::kMinute;
    sim::Duration host_retry_cap = 2 * sim::kHour;
  };

  /// Knobs for the telemetry plane (DESIGN.md §15): per-host /metrics
  /// exporters scraped by a control-plane MetricsScraper over the
  /// simulated links.
  struct ScrapeConfig {
    /// Scrape round cadence. Every host is scraped once per round.
    sim::Duration interval = 15 * sim::kSecond;
    /// A scrape unanswered for this long counts as failed; must exceed
    /// the round-trip link latency and fit inside the interval.
    sim::Duration timeout = 2 * sim::kSecond;
    obs::TimeSeriesStore::Config tsdb;
    obs::SloConfig slo;
    /// Let the SLO evaluator's burn-rate rule pause wave admission.
    bool gate_admission = true;
    /// EventRing tail length snapshotted into flight-recorder dumps.
    std::size_t flight_recorder_tail = 64;
  };

  /// Arms the telemetry plane: one MetricsExporter per host (on the
  /// host's own partition) and a control-plane scraper round every
  /// `interval`, paying real link latency both ways and timing out on
  /// hosts that are down. Scraping off (the default) schedules nothing
  /// and the run stays byte-identical to pre-telemetry builds. Call
  /// while the engine (if any) is quiescent.
  void start_scraping(const ScrapeConfig& config);
  /// Stops future scrape rounds (in-flight ones resolve); the scraper
  /// and its TimeSeriesStore stay readable. Quiescent callers only.
  void stop_scraping();
  /// The telemetry plane, or null before start_scraping().
  [[nodiscard]] MetricsScraper* scraper() { return scraper_.get(); }

  /// Knobs for steady in-service faults at cluster scale (DESIGN.md §14).
  struct SteadyFaultsConfig {
    /// Per-host check cadence; the rates come from Config::faults.
    fault::SteadyFaultProcess::Config process;
    /// Ladder template for every unplanned failure (micro-recovery etc.).
    rejuv::SupervisorConfig supervisor;
  };

  /// Control-plane accounting of unplanned (steady-fault) downtime.
  struct UnplannedReport {
    std::uint64_t failures = 0;  ///< steady faults that started a ladder
    std::uint64_t absorbed = 0;  ///< arrivals covered by in-flight recovery
    std::uint64_t recoveries = 0;
    std::uint64_t micro_recoveries = 0;
    std::uint64_t unrecovered = 0;  ///< ladders that exhausted (host evicted)
    /// Summed unplanned ladder durations (host-level wall of downtime).
    sim::Duration downtime = 0;
  };

  /// Arms a SteadyFaultProcess plus a rejuv::RecoveryDriver on every
  /// host's own partition: hosts crash and recover in service, each
  /// failure is answered by a fresh supervised ladder (or absorbed when a
  /// planned wave turn already owns the host), and outcomes are notified
  /// to the control plane over the mailboxes -- crash-evicting/readmitting
  /// the host's backends on every balancer shard and steering wave
  /// admission.
  /// With both steady rates zero nothing is scheduled and no RNG is drawn,
  /// so fault-free runs stay digest-identical. Call while the engine (if
  /// any) is quiescent.
  void start_steady_faults(const SteadyFaultsConfig& config);
  /// Disarms every host's steady process. Quiescent callers only.
  void stop_steady_faults();
  [[nodiscard]] const UnplannedReport& unplanned_report() const {
    return unplanned_;
  }
  /// True between start_steady_faults() and stop_steady_faults().
  [[nodiscard]] bool steady_faults_armed() const { return steady_started_; }
  /// Hosts the control plane currently believes to be crash-down.
  [[nodiscard]] std::size_t unplanned_down_hosts() const;

  /// Outcome of one rolling pass.
  struct WaveReport {
    struct Wave {
      /// Hosts in this wave, in the order the scheduler picked them.
      std::vector<std::size_t> hosts;
      /// Ladder outcome of each host in this wave, in *completion* order
      /// (a wave's hosts finish in signal-dependent order;
      /// outcome_hosts[i] names the host whose ladder produced
      /// outcomes[i]).
      std::vector<std::size_t> outcome_hosts;
      std::vector<rejuv::SupervisorReport> outcomes;
      sim::SimTime started = 0;
      sim::SimTime finished = 0;
    };
    std::vector<Wave> waves;
    /// Turns whose ladder succeeded, counted as they land (live mid-pass).
    std::size_t hosts_rejuvenated = 0;
    /// Hosts that came back, but on a lower rung than the wave asked for
    /// (completed != attempted: a mid-wave ladder descent).
    std::vector<std::size_t> degraded_hosts;
    /// Hosts left with VMs unrecovered. A host whose turn ladder exhausted
    /// is evicted from the balancer and retried at the end of the pass; it
    /// stays listed here only if every retry failed too. With steady
    /// faults armed this also lists hosts an *unplanned* ladder lost while
    /// they were still pending -- the pass skips them instead of running a
    /// turn on a dead host, and does not retry them.
    std::vector<std::size_t> unrecovered_hosts;
    /// Hosts an end-of-pass retry brought back; their eviction is lifted.
    std::vector<std::size_t> recovered_hosts;
    /// One report per end-of-pass recovery attempt, in execution order.
    std::vector<rejuv::SupervisorReport> retries;
    /// Hosts whose turn succeeded but whose admission controller reported
    /// preserved-memory pressure (demand over budget). They stay in
    /// service as a last resort, but the balancer stops preferring them
    /// (ShardedBalancer::set_host_pressured) -- backpressure instead of
    /// deepening the overcommit.
    std::vector<std::size_t> pressured_hosts;
    /// Planned host-level downtime: summed wave-turn ladder durations
    /// (the unplanned share lives in Cluster::unplanned_report()).
    sim::Duration planned_downtime = 0;
    /// Times wave admission paused because unplanned crashes exhausted the
    /// concurrent-downtime budget (or every pending host was crash-down);
    /// the next unplanned recovery replans and resumes the pass.
    std::size_t admission_pauses = 0;
    /// Wave turns that arrived at a host an unplanned ladder already
    /// owned; the turn was requeued and replanned, not run.
    std::size_t deferred_turns = 0;
    [[nodiscard]] bool fully_recovered() const {
      return unrecovered_hosts.empty();
    }
  };

  /// The rolling pass: rejuvenates every host's VMM, wave_size hosts per
  /// wave, a barrier between waves, under the concurrent-downtime budget
  /// (the default config is the paper's one-host-at-a-time warm pass).
  /// Each host's turn runs under a rejuv::Supervisor, so a mid-wave fault
  /// walks the degradation ladder (micro-recovery, warm->saved->cold)
  /// instead of aborting the pass; outcomes land in the WaveReport. A host
  /// left unrecovered is evicted from the balancer and retried with
  /// backoff once every wave is done. Before
  /// each wave the scheduler gathers live signals from every pending host
  /// -- served-request load and preserved-budget headroom, mirrored into
  /// the host's MetricsRegistry when observability is on -- and
  /// rejuvenates the least-loaded hosts first (tie-break: smaller
  /// headroom, then host index), so the wave drains as few active
  /// sessions as possible while prioritising memory-tight hosts.
  /// Signals are gathered over the mailboxes under the engine, so the
  /// schedule is bitwise reproducible for any worker count. Overlapping
  /// passes are an invariant violation: a second call while a pass is in
  /// flight fails fast instead of dropping the first pass's ladders.
  /// Partitioned mode: invoke from control-partition context
  /// (engine.run_on(0, ...)); each turn hops to the host's partition and
  /// back through the mailboxes.
  void rolling_rejuvenation_waves(
      WaveConfig config, std::function<void(const WaveReport&)> on_done);

  /// Report of the last rolling pass (valid after it completes).
  [[nodiscard]] const WaveReport& last_wave_report() const {
    return wave_report_;
  }

  /// True while a rolling pass is in flight.
  [[nodiscard]] bool rolling_in_progress() const { return rolling_in_progress_; }

  /// Duration of each turn of the last rolling pass, in completion order.
  [[nodiscard]] const std::vector<sim::Duration>& rejuvenation_durations() const {
    return durations_;
  }

 private:
  friend class MetricsScraper;

  [[nodiscard]] sim::Duration host_retry_backoff(int attempt) const;
  /// (served-request load, preserved-budget headroom) for one host; runs
  /// on the host's partition under the engine. With `mirror` the signals
  /// are also written into the host's MetricsRegistry.
  [[nodiscard]] std::pair<std::uint64_t, std::int64_t> host_signals(
      std::size_t host_index, bool mirror);
  /// Exporter-side collection hook: the wave signals (mirrored even with
  /// Config::observe off) plus the VMM generation, into the host's
  /// MetricsRegistry. Runs on the host's partition.
  void collect_host_metrics(std::size_t host_index);
  /// The scraper's SLO gate (control partition): while blocked,
  /// wave_launch admits nothing; clearing the block kicks a paused pass.
  void set_scrape_admission_blocked(bool blocked);
  /// Host-partition handler for one steady fault arrival.
  void steady_fault(std::size_t host_index, fault::FaultKind kind);
  /// Control-partition notifications from the per-host recovery drivers.
  void on_unplanned_down(std::size_t host_index);
  void on_unplanned_outcome(std::size_t host_index, bool success, bool micro,
                            sim::Duration took);
  /// Runs `fn` on the control partition (posted under the engine, inline
  /// on the single calendar).
  void to_control(std::function<void()> fn);
  /// Runs `fn` on host `host_index`'s partition (posted under the engine,
  /// inline on the single calendar).
  void to_host(std::size_t host_index, std::function<void()> fn);
  void wave_gather();
  void wave_collect(std::size_t host_index, std::uint64_t load,
                    std::int64_t headroom);
  void wave_launch();
  void wave_run_host(std::size_t host_index);
  void wave_host_done(std::size_t host_index, rejuv::SupervisorReport report);
  /// A launched turn found its host owned by an unplanned ladder: requeue.
  void wave_host_deferred(std::size_t host_index);
  /// Resumes a paused pass after an unplanned recovery (replans from the
  /// next signal gather).
  void wave_kick();
  /// End-of-pass recovery attempt `attempt` on retry_queue[queue_index],
  /// after its backoff; past the end of the queue the pass finishes.
  void wave_retry(std::size_t queue_index, int attempt);
  void wave_retry_done(std::size_t queue_index, int attempt, bool recovered);

  sim::Simulation& sim_;
  Config config_;
  std::vector<std::unique_ptr<vmm::Host>> hosts_;
  std::vector<std::vector<std::unique_ptr<guest::GuestOs>>> guests_;
  ShardedBalancer balancer_;
  /// Per-host supervisor slots (a wave runs several turns at once),
  /// created and destroyed only in the owning host's partition context
  /// (the window barriers order those accesses against the control
  /// partition).
  std::vector<std::unique_ptr<rejuv::Supervisor>> host_supervisors_;
  std::vector<sim::Duration> durations_;
  bool rolling_in_progress_ = false;
  /// In-flight rolling pass. The gather fan-out and the wave barrier both
  /// count down control-side, so all mutation happens on partition 0.
  struct WaveState {
    WaveConfig config;
    std::function<void(const WaveReport&)> on_done;
    std::vector<std::uint8_t> scheduled;  ///< host already covered
    std::vector<std::uint64_t> load;
    std::vector<std::int64_t> headroom;
    std::size_t replies_pending = 0;
    std::size_t inflight = 0;
    std::size_t remaining = 0;
    /// Admission paused on an exhausted crash budget; an unplanned
    /// recovery clears it and re-gathers.
    bool paused = false;
    /// Hosts whose turn ladder exhausted, in eviction order: retried once
    /// every wave is done.
    std::vector<std::size_t> retry_queue;
  };
  std::unique_ptr<WaveState> wave_;
  WaveReport wave_report_;
  /// Per-host steady fault machinery; each slot is constructed, driven and
  /// destroyed on its host's own partition.
  struct SteadySlot {
    std::unique_ptr<fault::SteadyFaultProcess> process;
    std::unique_ptr<rejuv::RecoveryDriver> driver;
  };
  std::vector<SteadySlot> steady_slots_;
  bool steady_started_ = false;
  /// Control-plane crash state (all mutated on partition 0 only).
  UnplannedReport unplanned_;
  std::vector<std::uint8_t> crash_down_;  ///< unplanned ladder in flight
  /// Hosts that just micro-recovered; deprioritised in the next wave sort
  /// (cleared once the pass schedules them).
  std::vector<std::uint8_t> recently_recovered_;
  /// Telemetry plane (DESIGN.md §15); null until start_scraping().
  std::unique_ptr<MetricsScraper> scraper_;
  /// SLO burn-rate gate: wave admission pauses while set.
  bool scrape_blocked_ = false;
};

}  // namespace rh::cluster
