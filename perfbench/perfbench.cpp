// perfbench: one iteration of a named fleet workload, driven through the
// simulator's public API, printed as a single JSON object on stdout.
//
//   perfbench --workload NAME --seed N [--workers W] [--hosts H]
//             [--sessions S] [--sim-seconds T] [--trace FILE]
//   perfbench --probe --seed N
//   perfbench --provenance
//
// run.py starts a fresh process per iteration, so peak RSS and allocator
// state belong to that iteration alone; it checks the outputs and reports
// medians. The scenarios rebuild, call for call, the fig9_cluster scale
// mode (fleet_steady) and one fig_crashscale cell (crash_*), and mix the
// same digest, so equal digests prove the benchmark runs the scenario
// those benches print (test_perfbench.py checks this at a smoke size).
//
// --trace FILE is the traced run: the measurement window runs in 90
// equal run_until slices instead of one, and a span (name, parent, wall
// start/end, counter deltas) is recorded around each top-level call into
// a layer. Spans stay in memory and are written to FILE at the end.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "simcore/parallel.hpp"
#include "vmm/host.hpp"

namespace {

using namespace rh;

// ------------------------------------------------------------ workloads

struct Scenario {
  const char* name = "";
  int hosts = 0;
  /// Closed-loop sessions; 0 means 1100 per host, as in the fig9 and
  /// fig_crashscale defaults.
  std::uint64_t sessions = 0;
  double sim_seconds = 0;
  /// PDES worker threads; run.py re-runs cell 0 at 2 to check that the
  /// digest does not depend on it.
  std::size_t workers = 1;
  /// A fig_crashscale cell: steady faults armed at kCrashRate and the
  /// unplanned report mixed into the digest. Otherwise the fig9 scale
  /// mode, which arms nothing.
  bool crash_cell = false;
  /// Micro-recovery rung above the warm ladder (crash_micro).
  bool micro = false;
};

// Sizes are chosen so one iteration takes a few seconds of host time on
// a 4-core box, so a run holds several iterations and reports medians;
// README.md relates them to the full-size fig9/fig_crashscale cells. The
// crash cells run 100 hosts (at 50 the waves start or starve depending
// on the seed, and host time doubles between the two regimes) with 110
// sessions per host, a tenth of the default: the reject storm of
// crash_reboot scales with sessions. crash_micro gets a short window
// because each micro-recovery costs ~25 ms of host time and they arrive
// at ~17 per simulated second.
const Scenario kScenarios[] = {
    {.name = "fleet_steady", .hosts = 100, .sim_seconds = 60},
    {.name = "crash_reboot", .hosts = 100, .sessions = 11000,
     .sim_seconds = 90, .crash_cell = true},
    {.name = "crash_micro", .hosts = 100, .sessions = 11000,
     .sim_seconds = 8, .crash_cell = true, .micro = true},
};

constexpr int kShards = 8;
constexpr int kWaveSize = 25;
constexpr rejuv::RebootKind kLadder = rejuv::RebootKind::kWarm;
/// VMM crash rate of the crash cells (fig_crashscale --fault-rate);
/// hangs at half of it.
constexpr double kCrashRate = 0.4;
constexpr double kWarmupSeconds = 2.0;
constexpr int kTraceSlices = 90;
constexpr std::uint64_t kSessionsPerHost = 1100;
constexpr sim::Bytes kVmMemory = 128 * sim::kMiB;
constexpr int kVmsPerHost = 2;
constexpr int kFilesPerVm = 4;
constexpr sim::Bytes kFileSize = 32 * sim::kKiB;
constexpr int kProbeReps = 5;

/// The fig9 scale-mode host: 1 GiB machine, 256 MiB dom0, 500 us links.
Calibration slim_calibration() {
  Calibration c;
  c.machine.ram = sim::kGiB;
  c.dom0_memory = 256 * sim::kMiB;
  c.link.latency = 500 * sim::kMicrosecond;
  return c;
}

// ------------------------------------------------------- host-side clocks

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user = 0;
  double sys = 0;
};

CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- counters

/// Engine and balancer counters read at a layer boundary (the engine is
/// quiescent there). Events are split by partition group: 0 is the
/// control plane, then one per balancer shard, then one per host.
struct Counters {
  std::uint64_t events_control = 0;
  std::uint64_t events_shards = 0;
  std::uint64_t events_hosts = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t rejected = 0;
  std::uint64_t federated = 0;
  std::uint64_t crash_broadcasts = 0;

  [[nodiscard]] Counters minus(const Counters& o) const {
    return {events_control - o.events_control, events_shards - o.events_shards,
            events_hosts - o.events_hosts,     windows - o.windows,
            messages - o.messages,             dispatched - o.dispatched,
            rejected - o.rejected,             federated - o.federated,
            crash_broadcasts - o.crash_broadcasts};
  }
};

Counters read_counters(sim::ParallelSimulation& engine,
                       cluster::Cluster* cl) {
  Counters c;
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    const auto n = engine.partition(p).executed_events();
    if (p == 0) {
      c.events_control += n;
    } else if (p <= kShards) {
      c.events_shards += n;
    } else {
      c.events_hosts += n;
    }
  }
  c.windows = engine.windows_executed();
  c.messages = engine.messages_routed();
  if (cl != nullptr) {
    const auto* sb = cl->sharded_balancer();
    c.dispatched = sb->dispatched();
    c.rejected = sb->rejected();
    c.federated = sb->federated();
    c.crash_broadcasts = sb->crash_broadcasts();
  }
  return c;
}

// ---------------------------------------------------------------- spans

/// In-memory span log for the traced run. Each span carries the counter
/// deltas across it, so ratios are measured where the work happens.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0;
    double end = 0;
    Counters at_open;
    Counters delta;
  };

  int open(std::string name, const Counters& now) {
    spans_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(),
                      wall_now() - origin_, 0, now, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, const Counters& now) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = wall_now() - origin_;
    s.delta = now.minus(s.at_open);
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const Counters& d = s.delta;
      char buf[768];
      std::snprintf(
          buf, sizeof buf,
          "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
          "\"start_s\": %.9f, \"end_s\": %.9f, \"events_control\": %llu, "
          "\"events_shards\": %llu, \"events_hosts\": %llu, \"windows\": "
          "%llu, \"messages\": %llu, \"dispatched\": %llu, \"rejected\": "
          "%llu, \"federated\": %llu, \"crash_broadcasts\": %llu}%s\n",
          i, s.name.c_str(), s.parent, s.start, s.end,
          static_cast<unsigned long long>(d.events_control),
          static_cast<unsigned long long>(d.events_shards),
          static_cast<unsigned long long>(d.events_hosts),
          static_cast<unsigned long long>(d.windows),
          static_cast<unsigned long long>(d.messages),
          static_cast<unsigned long long>(d.dispatched),
          static_cast<unsigned long long>(d.rejected),
          static_cast<unsigned long long>(d.federated),
          static_cast<unsigned long long>(d.crash_broadcasts),
          i + 1 < spans_.size() ? "," : "");
      os << buf;
    }
    os << "]\n";
    return static_cast<bool>(os);
  }

 private:
  double origin_ = wall_now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------ iteration

struct Result {
  // Host time.
  double setup_s = 0, run_s = 0, cpu_s = 0;
  double setup_sys_s = 0, run_sys_s = 0;
  double cluster_ctor_s = 0, fleet_ctor_s = 0;
  double boot_s = 0, stats_s = 0;
  double build_rss_mb = 0, peak_rss_mb = 0;
  std::vector<double> slice_s;  ///< traced run only
  // Simulated outcome.
  cluster::SessionFleet::Stats stats;
  std::uint64_t sessions = 0;
  sim::Duration window = 0;
  /// Unplanned recovery counts over the measurement window only (the
  /// digest mixes the whole run's report, as fig_crashscale does).
  cluster::Cluster::UnplannedReport unplanned;
  /// Wave turns whose ladder recovered every VM.
  std::size_t hosts_rejuvenated = 0;
  std::size_t waves_started = 0;
  std::size_t admission_pauses = 0;
  std::size_t deferred_turns = 0;
  Counters run;           ///< boot-ready .. end of window
  Counters window_delta;  ///< measurement window only
  double host_event_skew = 0;
  std::uint64_t digest = 0;
};

Result run_iteration(const Scenario& sc, std::uint64_t seed,
                     SpanLog* trace) {
  Result r;
  std::unique_ptr<sim::ParallelSimulation> engine;
  std::unique_ptr<cluster::Cluster> cl;
  std::unique_ptr<cluster::SessionFleet> fleet;
  const auto counters = [&] {
    return engine ? read_counters(*engine, cl.get()) : Counters{};
  };
  // Times `fn` into `*out` (when non-null) and, in the traced run,
  // records it as a span under whichever span is open.
  const auto phase = [&](const char* name, double* out, auto&& fn) {
    const int id = trace != nullptr ? trace->open(name, counters()) : -1;
    const double t0 = wall_now();
    fn();
    if (out != nullptr) *out = wall_now() - t0;
    if (trace != nullptr) trace->close(id, counters());
  };

  // ---- setup: engine, cluster and fleet construction up to boot-ready.
  const double setup_t0 = wall_now();
  const CpuTimes setup_cpu0 = cpu_now();
  const int setup_span = trace != nullptr ? trace->open("setup", {}) : -1;
  phase("engine.ctor", nullptr, [&] {
    engine = std::make_unique<sim::ParallelSimulation>(
        sim::ParallelSimulation::Config{
            .partitions = 1 + kShards + sc.hosts, .workers = sc.workers});
  });
  cluster::Cluster::Config cfg;
  cfg.hosts = sc.hosts;
  cfg.vms_per_host = kVmsPerHost;
  cfg.seed = seed;
  cfg.shards = kShards;
  cfg.engine = engine.get();
  cfg.calib = slim_calibration();
  cfg.vm_memory = kVmMemory;
  cfg.files_per_vm = kFilesPerVm;
  cfg.file_size = kFileSize;
  if (sc.crash_cell) {
    cfg.faults.vmm_crash_rate = kCrashRate;
    cfg.faults.vmm_hang_rate = kCrashRate / 2.0;
  }
  phase("cluster.ctor", &r.cluster_ctor_s, [&] {
    cl = std::make_unique<cluster::Cluster>(engine->partition(0), cfg);
  });
  r.sessions = sc.sessions != 0
                   ? sc.sessions
                   : kSessionsPerHost * static_cast<std::uint64_t>(sc.hosts);
  cluster::SessionFleet::Config fc;
  fc.sessions = r.sessions;
  fc.think_base = 20 * sim::kSecond;
  fc.think_spread = 20 * sim::kSecond;
  fc.retry_interval = sim::kSecond;
  fc.tick = 250 * sim::kMillisecond;
  phase("fleet.ctor", &r.fleet_ctor_s, [&] {
    fleet = std::make_unique<cluster::SessionFleet>(*cl->sharded_balancer(),
                                                    fc);
  });
  phase("cluster.start+boot", &r.boot_s, [&] {
    bool ready = false;
    cl->start([&ready] { ready = true; });
    engine->run_while([&ready] { return !ready; });
  });
  if (trace != nullptr) trace->close(setup_span, counters());
  r.setup_s = wall_now() - setup_t0;
  const CpuTimes setup_cpu1 = cpu_now();
  r.setup_sys_s = setup_cpu1.sys - setup_cpu0.sys;
  r.build_rss_mb = peak_rss_mb();

  // ---- run: warm-up, measurement window, stats and digest.
  const double run_t0 = wall_now();
  const CpuTimes run_cpu0 = setup_cpu1;
  const Counters at_ready = counters();
  std::vector<std::uint64_t> host_events0(static_cast<std::size_t>(sc.hosts));
  for (int h = 0; h < sc.hosts; ++h) {
    host_events0[static_cast<std::size_t>(h)] =
        engine->partition(cl->partition_of(h)).executed_events();
  }
  const int run_span = trace != nullptr ? trace->open("run", at_ready) : -1;

  rejuv::SupervisorConfig scfg;
  scfg.preferred = kLadder;
  if (sc.micro) {
    scfg.micro.enabled = true;
    scfg.micro.success_rate = 0.85;  // ReHype's reported recovery rate
  }
  phase("fleet.start", nullptr, [&] { fleet->start(*engine); });
  if (sc.crash_cell) {
    phase("cluster.start_steady_faults", nullptr, [&] {
      cluster::Cluster::SteadyFaultsConfig sfc;
      sfc.process.check_interval = sim::from_seconds(2.0);
      sfc.supervisor = scfg;
      cl->start_steady_faults(sfc);
    });
  }
  phase("warmup", nullptr, [&] {
    engine->run_until(engine->partition(0).now() +
                      sim::from_seconds(kWarmupSeconds));
  });
  const sim::SimTime meas_start = engine->partition(0).now();
  fleet->begin_window(meas_start);
  const Counters at_window = counters();
  const cluster::Cluster::UnplannedReport unplanned0 = cl->unplanned_report();

  phase("waves.kick", nullptr, [&] {
    cluster::Cluster::WaveConfig wc;
    wc.wave_size = kWaveSize;
    wc.kind = kLadder;
    if (sc.crash_cell) wc.supervisor = scfg;
    cluster::Cluster* c = cl.get();
    engine->run_on(0, [c, wc] {
      c->rolling_rejuvenation_waves(
          wc, [](const cluster::Cluster::WaveReport&) {});
    });
  });
  r.window = sim::from_seconds(sc.sim_seconds);
  phase("window", nullptr, [&] {
    if (trace == nullptr) {
      engine->run_until(meas_start + r.window);
      return;
    }
    for (int i = 1; i <= kTraceSlices; ++i) {
      double wall = 0;
      phase("slice", &wall, [&] {
        engine->run_until(meas_start + r.window * i / kTraceSlices);
      });
      r.slice_s.push_back(wall);
    }
  });
  const sim::SimTime meas_end = engine->partition(0).now();
  r.window_delta = counters().minus(at_window);

  phase("fleet.stats", &r.stats_s,
        [&] { r.stats = fleet->stats(meas_end); });
  phase("digest", nullptr, [&] {
    const auto& waves = cl->last_wave_report();
    const cluster::Cluster::UnplannedReport unplanned = cl->unplanned_report();
    std::uint64_t digest = 0;
    const auto mix = [&digest](std::uint64_t v) {
      digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
    };
    for (std::int32_t p = 0; p < engine->partition_count(); ++p) {
      mix(static_cast<std::uint64_t>(engine->partition(p).now()));
      mix(engine->partition(p).executed_events());
    }
    mix(fleet->state_digest());
    mix(cl->sharded_balancer()->state_digest());
    if (sc.crash_cell) {
      mix(unplanned.failures);
      mix(unplanned.absorbed);
      mix(unplanned.recoveries);
      mix(unplanned.micro_recoveries);
      mix(unplanned.unrecovered);
      mix(static_cast<std::uint64_t>(unplanned.downtime));
    }
    for (const auto& w : waves.waves) {
      mix(static_cast<std::uint64_t>(w.started));
      mix(static_cast<std::uint64_t>(w.finished));
      for (const auto h : w.hosts) mix(h);
    }
    for (const auto d : cl->rejuvenation_durations()) {
      mix(static_cast<std::uint64_t>(d));
    }
    mix(engine->messages_routed());
    r.digest = digest;
    r.waves_started = waves.waves.size();
    r.admission_pauses = waves.admission_pauses;
    r.deferred_turns = waves.deferred_turns;
    for (const auto& w : waves.waves) {
      for (const auto& o : w.outcomes) r.hosts_rejuvenated += o.success;
    }
    r.unplanned = {unplanned.failures - unplanned0.failures,
                   unplanned.absorbed - unplanned0.absorbed,
                   unplanned.recoveries - unplanned0.recoveries,
                   unplanned.micro_recoveries - unplanned0.micro_recoveries,
                   unplanned.unrecovered - unplanned0.unrecovered,
                   unplanned.downtime - unplanned0.downtime};
  });
  const Counters at_end = counters();
  if (trace != nullptr) trace->close(run_span, at_end);
  r.run_s = wall_now() - run_t0;
  const CpuTimes run_cpu1 = cpu_now();
  r.cpu_s = (run_cpu1.user - run_cpu0.user) + (run_cpu1.sys - run_cpu0.sys);
  r.run_sys_s = run_cpu1.sys - run_cpu0.sys;
  r.run = at_end.minus(at_ready);

  double max_events = 0, sum_events = 0;
  for (int h = 0; h < sc.hosts; ++h) {
    const auto n = static_cast<double>(
        engine->partition(cl->partition_of(h)).executed_events() -
        host_events0[static_cast<std::size_t>(h)]);
    max_events = std::max(max_events, n);
    sum_events += n;
  }
  r.host_event_skew =
      sum_events > 0 ? max_events / (sum_events / sc.hosts) : 0.0;
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

void print_iteration(const Scenario& sc, std::uint64_t seed,
                     const Result& r) {
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"workers\": %zu, "
      "\"hosts\": %d, \"shards\": %d, \"wave\": %d, \"sim_seconds\": %.17g, "
      "\"sessions\": %llu, \"window_us\": %lld, \"digest\": \"%016llx\",\n",
      sc.name, u(seed), sc.workers, sc.hosts, kShards, kWaveSize,
      sc.sim_seconds, u(r.sessions), static_cast<long long>(r.window),
      u(r.digest));
  std::printf(
      " \"setup_s\": %.9f, \"run_s\": %.9f, \"cpu_s\": %.9f, "
      "\"setup_sys_s\": %.9f, \"run_sys_s\": %.9f, "
      "\"cluster_ctor_s\": %.9f, \"fleet_ctor_s\": %.9f, \"boot_s\": %.9f, "
      "\"stats_s\": %.9f, \"build_rss_mb\": %.3f, \"peak_rss_mb\": %.3f,\n",
      r.setup_s, r.run_s, r.cpu_s, r.setup_sys_s, r.run_sys_s,
      r.cluster_ctor_s, r.fleet_ctor_s, r.boot_s, r.stats_s,
      r.build_rss_mb, r.peak_rss_mb);
  std::printf(
      " \"completions\": %llu, \"failures\": %llu, \"pooled\": %.17g, "
      "\"p99\": %.17g, \"p999\": %.17g, \"planned_downtime_us\": %lld, "
      "\"unplanned_downtime_us\": %lld, \"hosts_rejuvenated\": %zu, "
      "\"waves_started\": %zu, \"admission_pauses\": %zu, "
      "\"deferred_turns\": %zu,\n",
      u(r.stats.completions), u(r.stats.failures),
      r.stats.pooled_availability, r.stats.availability_p99,
      r.stats.availability_p999,
      static_cast<long long>(r.stats.planned_downtime),
      static_cast<long long>(r.stats.unplanned_downtime),
      r.hosts_rejuvenated, r.waves_started, r.admission_pauses,
      r.deferred_turns);
  std::printf(
      " \"unplanned\": {\"failures\": %llu, \"absorbed\": %llu, "
      "\"recoveries\": %llu, \"micro_recoveries\": %llu, \"unrecovered\": "
      "%llu, \"downtime_us\": %lld},\n",
      u(r.unplanned.failures), u(r.unplanned.absorbed),
      u(r.unplanned.recoveries), u(r.unplanned.micro_recoveries),
      u(r.unplanned.unrecovered),
      static_cast<long long>(r.unplanned.downtime));
  for (const auto& [key, c] :
       {std::pair{"run", &r.run}, std::pair{"window", &r.window_delta}}) {
    std::printf(
        " \"%s\": {\"events_control\": %llu, \"events_shards\": %llu, "
        "\"events_hosts\": %llu, \"windows\": %llu, \"messages\": %llu, "
        "\"dispatched\": %llu, \"rejected\": %llu, \"federated\": %llu, "
        "\"crash_broadcasts\": %llu},\n",
        key, u(c->events_control), u(c->events_shards), u(c->events_hosts),
        u(c->windows), u(c->messages), u(c->dispatched), u(c->rejected),
        u(c->federated), u(c->crash_broadcasts));
  }
  std::printf(" \"host_event_skew\": %.9f, \"slice_s\": [", r.host_event_skew);
  for (std::size_t i = 0; i < r.slice_s.size(); ++i) {
    std::printf("%s%.9f", i == 0 ? "" : ", ", r.slice_s[i]);
  }
  std::printf("]}\n");
}

// ---------------------------------------------------------- layer probe

/// vmm layer in isolation at the workloads' slim calibration: host
/// construction plus instant_start, then fail_vmm plus micro_recover_vmm
/// on a host with two booted VMs. Prints per-rep wall times.
int run_probe(std::uint64_t seed) {
  std::vector<double> build_s, recover_s;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    sim::Simulation s;
    const double t0 = wall_now();
    vmm::Host host(s, slim_calibration(),
                   seed + static_cast<std::uint64_t>(rep));
    host.instant_start();
    build_s.push_back(wall_now() - t0);

    std::vector<std::unique_ptr<guest::GuestOs>> guests;
    int booted = 0;
    for (int v = 0; v < kVmsPerHost; ++v) {
      auto g = std::make_unique<guest::GuestOs>(
          host, "probe-v" + std::to_string(v), kVmMemory);
      g->add_service(std::make_unique<guest::ApacheService>());
      for (int f = 0; f < kFilesPerVm; ++f) {
        g->vfs().create_file("doc" + std::to_string(f), kFileSize);
      }
      g->create_and_boot([&booted] { ++booted; });
      guests.push_back(std::move(g));
    }
    s.run_until(s.now() + sim::kHour);
    if (booted != kVmsPerHost) {
      std::fprintf(stderr, "probe: VMs failed to boot\n");
      return 1;
    }

    const double t1 = wall_now();
    host.fail_vmm(fault::FaultKind::kVmmCrash);
    for (auto& g : guests) g->interrupt_for_vmm_failure();
    const auto report = host.micro_recover_vmm();
    recover_s.push_back(wall_now() - t1);
    if (!report.ok() ||
        report.intact_regions != static_cast<std::size_t>(kVmsPerHost)) {
      std::fprintf(stderr, "probe: micro-recovery report not ok\n");
      return 1;
    }
  }
  const auto list = [](const std::vector<double>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.9f", i == 0 ? "" : ", ", v[i]);
      out += buf;
    }
    return out;
  };
  std::printf("{\"host_build_s\": [%s], \"micro_recover_s\": [%s]}\n",
              list(build_s).c_str(), list(recover_s).c_str());
  return 0;
}

int print_provenance() {
#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"optimised\": %s}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              optimised ? "true" : "false");
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--workers W] "
               "[--hosts H] [--sessions S] [--sim-seconds T]\n"
               "           [--trace FILE]\n"
               "       %s --probe --seed N\n"
               "       %s --provenance\n",
               argv0, argv0, argv0);
  return 2;
}

/// Parses a whole decimal number; false on junk or a leading minus.
bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_path;
  std::uint64_t seed = 7, workers = 0, hosts = 0, sessions = 0;
  double sim_seconds = 0;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (std::strcmp(arg, "--provenance") == 0) {
      return print_provenance();
    } else if (std::strcmp(arg, "--probe") == 0) {
      probe = true;
      continue;
    } else if (std::strcmp(arg, "--workload") == 0 && val != nullptr) {
      workload = val;
    } else if (std::strcmp(arg, "--trace") == 0 && val != nullptr) {
      trace_path = val;
    } else if (std::strcmp(arg, "--seed") == 0) {
      ok = parse_u64(val, &seed);
    } else if (std::strcmp(arg, "--workers") == 0) {
      ok = parse_u64(val, &workers) && workers >= 1;
    } else if (std::strcmp(arg, "--hosts") == 0) {
      ok = parse_u64(val, &hosts) && hosts >= 1 && hosts <= 100000;
    } else if (std::strcmp(arg, "--sessions") == 0) {
      ok = parse_u64(val, &sessions) && sessions >= 1;
    } else if (std::strcmp(arg, "--sim-seconds") == 0 && val != nullptr) {
      char* end = nullptr;
      sim_seconds = std::strtod(val, &end);
      ok = *end == '\0' && sim_seconds > 0 && sim_seconds <= 86400;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
    ++i;
  }
  if (probe) return run_probe(seed);

  const Scenario* base = nullptr;
  for (const auto& sc : kScenarios) {
    if (workload == sc.name) base = &sc;
  }
  if (base == nullptr) return usage(argv[0]);
  Scenario sc = *base;
  if (workers != 0) sc.workers = workers;
  if (hosts != 0) sc.hosts = static_cast<int>(hosts);
  if (sessions != 0) sc.sessions = sessions;
  if (sim_seconds != 0) sc.sim_seconds = sim_seconds;

  SpanLog spans;
  const Result r =
      run_iteration(sc, seed, trace_path.empty() ? nullptr : &spans);
  if (!trace_path.empty() && !spans.write(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  print_iteration(sc, seed, r);
  return 0;
}
