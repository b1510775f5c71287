// Steady faults at datacenter scale: the PR-8 single-host crossover
// (micro-recovery vs the legacy warm/saved/cold ladders under steady
// unplanned VMM crashes), scaled out to the 1000-host fig9 scenario.
//
// For each (steady fault rate x recovery ladder) cell the full scale run
// is rebuilt: H slim hosts behind S balancer shards, a struct-of-arrays
// SessionFleet of closed-loop sessions, wave-based rolling rejuvenation
// with failure-reactive admission, and a per-host SteadyFaultProcess +
// RecoveryDriver crashing and recovering hosts *while* the waves and the
// fleet are in flight. The fleet attributes every session outage as
// planned (wave) or unplanned (crash); the crossover figure is per-ladder
// p99 availability vs fault rate.
//
// Writes BENCH_crashscale.json (the CI smoke artifact); the regression
// gate tracks `p99_availability_at_base_rate` = the micro ladder's p99
// availability at the highest swept rate. Every cell prints a
// worker-count-invariant digest and the run ends with an aggregate
// `digest=` line CI can diff across --workers 1 vs 4.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "simcore/parallel.hpp"

namespace {

using namespace rh;

struct Ladder {
  const char* name;
  rejuv::RebootKind kind;
  bool micro;
};

// Same rungs as tab_microrecovery: micro differs from warm only once a
// crash actually happens, so the rate-0 column is the control.
constexpr Ladder kLadders[] = {
    {"micro", rejuv::RebootKind::kWarm, true},
    {"warm", rejuv::RebootKind::kWarm, false},
    {"saved", rejuv::RebootKind::kSaved, false},
    {"cold", rejuv::RebootKind::kCold, false},
};

struct Options {
  int hosts = 1000;
  int shards = 8;
  int wave = 25;
  int vms_per_host = 2;
  std::uint64_t sessions = 0;  ///< 0: 1100 per host
  double sim_seconds = 90.0;
  double check_interval_s = 2.0;
  std::vector<double> rates = {0.0, 0.1, 0.4};
  std::size_t workers = 1;
  std::uint64_t seed = rh::bench::kLegacyBenchSeed;
  std::string out = "BENCH_crashscale.json";
};

struct Cell {
  double rate = 0;
  cluster::SessionFleet::Stats stats;
  cluster::Cluster::UnplannedReport unplanned;
  std::size_t waves_started = 0;
  std::size_t hosts_rejuvenated = 0;
  std::size_t admission_pauses = 0;
  std::size_t deferred_turns = 0;
  sim::Duration wave_planned_downtime = 0;
  std::uint64_t federated = 0;
  std::uint64_t rejected = 0;
  std::uint64_t crash_broadcasts = 0;
  std::uint64_t digest = 0;
  double wall = 0;
};

Cell run_cell(const Options& o, const Ladder& ladder, double rate) {
  const auto wall_start = std::chrono::steady_clock::now();
  sim::ParallelSimulation engine(
      {.partitions = 1 + o.shards + o.hosts, .workers = o.workers});
  cluster::Cluster::Config cfg;
  cfg.hosts = o.hosts;
  cfg.vms_per_host = o.vms_per_host;
  cfg.seed = o.seed;
  cfg.shards = o.shards;
  cfg.engine = &engine;
  // Same slim per-host calibration as the fig9 scale mode, so the rate-0
  // cells measure the identical fault-free scenario.
  cfg.calib.machine.ram = sim::kGiB;
  cfg.calib.dom0_memory = 256 * sim::kMiB;
  cfg.vm_memory = 128 * sim::kMiB;
  cfg.files_per_vm = 4;
  cfg.file_size = 32 * sim::kKiB;
  cfg.calib.link.latency = 500 * sim::kMicrosecond;
  // Hangs ride at half the crash rate, like tab_microrecovery.
  cfg.faults.vmm_crash_rate = rate;
  cfg.faults.vmm_hang_rate = rate / 2.0;
  cluster::Cluster cl(engine.partition(0), cfg);

  const std::uint64_t sessions =
      o.sessions != 0 ? o.sessions
                      : 1100ull * static_cast<std::uint64_t>(o.hosts);
  cluster::SessionFleet::Config fc;
  fc.sessions = sessions;
  fc.think_base = 20 * sim::kSecond;
  fc.think_spread = 20 * sim::kSecond;
  fc.retry_interval = sim::kSecond;
  fc.tick = 250 * sim::kMillisecond;
  cluster::SessionFleet fleet(*cl.sharded_balancer(), fc);

  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });
  fleet.start(engine);

  rejuv::SupervisorConfig scfg;
  scfg.preferred = ladder.kind;
  if (ladder.micro) {
    scfg.micro.enabled = true;
    scfg.micro.success_rate = 0.85;  // ReHype's reported recovery rate
  }
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::from_seconds(o.check_interval_s);
  sfc.supervisor = scfg;
  cl.start_steady_faults(sfc);

  engine.run_until(engine.partition(0).now() + 2 * sim::kSecond);
  const sim::SimTime meas_start = engine.partition(0).now();
  fleet.begin_window(meas_start);

  cluster::Cluster::WaveConfig wc;
  wc.wave_size = o.wave;
  wc.kind = ladder.kind;
  wc.supervisor = scfg;
  engine.run_on(0, [&cl, wc] {
    cl.rolling_rejuvenation_waves(
        wc, [](const cluster::Cluster::WaveReport&) {});
  });
  engine.run_until(meas_start + sim::from_seconds(o.sim_seconds));
  const sim::SimTime meas_end = engine.partition(0).now();

  Cell cell;
  cell.rate = rate;
  cell.stats = fleet.stats(meas_end);
  cell.unplanned = cl.unplanned_report();
  const auto& waves = cl.last_wave_report();
  cell.waves_started = waves.waves.size();
  cell.hosts_rejuvenated = waves.hosts_rejuvenated;
  cell.admission_pauses = waves.admission_pauses;
  cell.deferred_turns = waves.deferred_turns;
  cell.wave_planned_downtime = waves.planned_downtime;
  cell.federated = cl.sharded_balancer()->federated();
  cell.rejected = cl.sharded_balancer()->rejected();
  cell.crash_broadcasts = cl.sharded_balancer()->crash_broadcasts();

  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) {
    digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
  };
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    mix(static_cast<std::uint64_t>(engine.partition(p).now()));
    mix(engine.partition(p).executed_events());
  }
  mix(fleet.state_digest());
  mix(cl.sharded_balancer()->state_digest());
  mix(cell.unplanned.failures);
  mix(cell.unplanned.absorbed);
  mix(cell.unplanned.recoveries);
  mix(cell.unplanned.micro_recoveries);
  mix(cell.unplanned.unrecovered);
  mix(static_cast<std::uint64_t>(cell.unplanned.downtime));
  for (const auto& w : waves.waves) {
    mix(static_cast<std::uint64_t>(w.started));
    mix(static_cast<std::uint64_t>(w.finished));
    for (const auto h : w.hosts) mix(h);
  }
  for (const auto d : cl.rejuvenation_durations()) {
    mix(static_cast<std::uint64_t>(d));
  }
  mix(engine.messages_routed());
  cell.digest = digest;
  cell.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_start)
                  .count();
  return cell;
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--hosts H] [--shards S] [--wave K] [--sessions M]\n"
      "          [--sim-seconds T] [--check-interval-s C]\n"
      "          [--fault-rate r1,r2,...] [--workers W] [--out FILE]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&i, argc, argv]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--hosts") == 0) {
      if (const char* v = next()) o.hosts = std::atoi(v);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (const char* v = next()) o.shards = std::atoi(v);
    } else if (std::strcmp(argv[i], "--wave") == 0) {
      if (const char* v = next()) o.wave = std::atoi(v);
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      if (const char* v = next()) o.sessions = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--sim-seconds") == 0) {
      if (const char* v = next()) o.sim_seconds = std::atof(v);
    } else if (std::strcmp(argv[i], "--check-interval-s") == 0) {
      if (const char* v = next()) o.check_interval_s = std::atof(v);
    } else if (std::strcmp(argv[i], "--fault-rate") == 0) {
      if (const char* v = next()) {
        o.rates = rh::bench::parse_value_list("--fault-rate", v);
      }
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if (const char* v = next()) o.workers = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (const char* v = next()) o.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (const char* v = next()) o.out = v;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (o.hosts < 1 || o.shards < 1 || o.wave < 1 || o.workers < 1 ||
      o.rates.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (o.sim_seconds <= 0 || o.check_interval_s <= 0) {
    std::fprintf(stderr, "--sim-seconds and --check-interval-s must be > 0\n");
    return 2;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::printf("fig_crashscale: hosts=%d shards=%d wave=%d workers=%zu "
              "check=%.1fs window=%.1fs\n",
              o.hosts, o.shards, o.wave, o.workers, o.check_interval_s,
              o.sim_seconds);

  const double base_rate = o.rates.back();
  double micro_p99_at_base = 0.0;
  double cold_p99_at_base = 0.0;
  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) {
    digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
  };

  std::vector<std::vector<Cell>> cells(std::size(kLadders));
  for (std::size_t l = 0; l < std::size(kLadders); ++l) {
    for (const double rate : o.rates) {
      const Cell c = run_cell(o, kLadders[l], rate);
      std::printf("  %-5s rate=%.2f: pooled=%.6f p99=%.6f p999=%.6f "
                  "unplanned(f=%llu r=%llu u=%llu) pauses=%zu "
                  "digest=%016llx (%.1fs)\n",
                  kLadders[l].name, rate, c.stats.pooled_availability,
                  c.stats.availability_p99, c.stats.availability_p999,
                  static_cast<unsigned long long>(c.unplanned.failures),
                  static_cast<unsigned long long>(c.unplanned.recoveries),
                  static_cast<unsigned long long>(c.unplanned.unrecovered),
                  c.admission_pauses,
                  static_cast<unsigned long long>(c.digest), c.wall);
      mix(c.digest);
      if (rate == base_rate) {
        if (std::strcmp(kLadders[l].name, "micro") == 0) {
          micro_p99_at_base = c.stats.availability_p99;
        } else if (std::strcmp(kLadders[l].name, "cold") == 0) {
          cold_p99_at_base = c.stats.availability_p99;
        }
      }
      cells[l].push_back(c);
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  std::printf("  crossover at rate %.2f: micro p99=%.6f vs cold p99=%.6f\n",
              base_rate, micro_p99_at_base, cold_p99_at_base);
  std::printf("  aggregate digest=%016llx (%.1f wall-s)\n",
              static_cast<unsigned long long>(digest), wall);

  std::ofstream js(o.out);
  if (!js) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  js << "{\n"
     << "  \"benchmark\": \"fig_crashscale\",\n"
     << "  \"hosts\": " << o.hosts << ",\n"
     << "  \"shards\": " << o.shards << ",\n"
     << "  \"wave_size\": " << o.wave << ",\n"
     << "  \"vms_per_host\": " << o.vms_per_host << ",\n"
     << "  \"workers\": " << o.workers << ",\n"
     << "  \"concurrent_sessions\": "
     << (o.sessions != 0 ? o.sessions
                         : 1100ull * static_cast<std::uint64_t>(o.hosts))
     << ",\n"
     << "  \"sim_seconds\": " << o.sim_seconds << ",\n"
     << "  \"check_interval_s\": " << o.check_interval_s << ",\n"
     << "  \"base_rate\": " << base_rate << ",\n"
     << "  \"p99_availability_at_base_rate\": " << micro_p99_at_base << ",\n"
     << "  \"cold_p99_availability_at_base_rate\": " << cold_p99_at_base
     << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"ladders\": [\n";
  for (std::size_t l = 0; l < std::size(kLadders); ++l) {
    js << "    {\"name\": \"" << kLadders[l].name << "\", \"points\": [\n";
    for (std::size_t i = 0; i < cells[l].size(); ++i) {
      const Cell& c = cells[l][i];
      char cell_digest[64];
      std::snprintf(cell_digest, sizeof cell_digest, "%016llx",
                    static_cast<unsigned long long>(c.digest));
      js << "      {\"rate\": " << c.rate
         << ", \"pooled_availability\": " << c.stats.pooled_availability
         << ", \"p99_availability\": " << c.stats.availability_p99
         << ", \"p999_availability\": " << c.stats.availability_p999
         << ", \"completions\": " << c.stats.completions
         << ", \"failures\": " << c.stats.failures
         << ", \"planned_downtime_us\": " << c.stats.planned_downtime
         << ", \"unplanned_downtime_us\": " << c.stats.unplanned_downtime
         << ", \"unplanned_failures\": " << c.unplanned.failures
         << ", \"unplanned_absorbed\": " << c.unplanned.absorbed
         << ", \"unplanned_recoveries\": " << c.unplanned.recoveries
         << ", \"micro_recoveries\": " << c.unplanned.micro_recoveries
         << ", \"unrecovered_hosts\": " << c.unplanned.unrecovered
         << ", \"host_unplanned_downtime_us\": " << c.unplanned.downtime
         << ", \"wave_planned_downtime_us\": " << c.wave_planned_downtime
         << ", \"waves_started\": " << c.waves_started
         << ", \"hosts_rejuvenated\": " << c.hosts_rejuvenated
         << ", \"admission_pauses\": " << c.admission_pauses
         << ", \"deferred_turns\": " << c.deferred_turns
         << ", \"federated_dispatches\": " << c.federated
         << ", \"rejected_dispatches\": " << c.rejected
         << ", \"crash_broadcasts\": " << c.crash_broadcasts
         << ", \"wall_seconds\": " << c.wall
         << ", \"digest\": \"" << cell_digest << "\"}"
         << (i + 1 < cells[l].size() ? ",\n" : "\n");
    }
    js << "    ]}" << (l + 1 < std::size(kLadders) ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"digest\": \"" << buf << "\"\n"
     << "}\n";
  std::printf("  wrote %s\n", o.out.c_str());
  return 0;
}
