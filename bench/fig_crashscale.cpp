// Steady faults at datacenter scale: the PR-8 single-host crossover
// (micro-recovery vs the legacy warm/saved/cold ladders under steady
// unplanned VMM crashes), scaled out to the 1000-host fig9 scenario.
//
// For each (steady fault rate x recovery ladder) cell the full
// cluster::ScaleScenario is rebuilt: H slim hosts behind S balancer
// shards, a struct-of-arrays SessionFleet of closed-loop sessions,
// wave-based rolling rejuvenation with failure-reactive admission, and a
// per-host SteadyFaultProcess + RecoveryDriver crashing and recovering
// hosts *while* the waves and the fleet are in flight. The fleet attributes every session outage as
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
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/scale_scenario.hpp"

namespace {

using namespace rh;
using bench::Ladder;
using bench::kLadders;

struct Options {
  cluster::ScaleScenario::Config sc;
  int wave = 25;
  double sim_seconds = 90.0;
  double check_interval_s = 2.0;
  std::vector<double> rates = {0.0, 0.1, 0.4};
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
  cluster::ScaleScenario::Config cfg = o.sc;
  cfg.fault_rate = rate;
  cluster::ScaleScenario scenario(cfg);
  cluster::Cluster& cl = scenario.cluster();

  // Armed at every rate, so the rate-0 cells are the control: nothing
  // fires and no RNG is drawn.
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::from_seconds(o.check_interval_s);
  sfc.supervisor = ladder.supervisor();
  cl.start_steady_faults(sfc);

  cluster::Cluster::WaveConfig wc;
  wc.wave_size = o.wave;
  wc.kind = ladder.kind;
  wc.supervisor = ladder.supervisor();
  scenario.run(wc, 2 * sim::kSecond, sim::from_seconds(o.sim_seconds));

  Cell cell;
  cell.rate = rate;
  cell.stats = scenario.fleet()->stats(scenario.window_end());
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
  cell.digest = scenario.digest();
  cell.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_start)
                  .count();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  rh::bench::Cli()
      .add("--hosts", o.sc.hosts)
      .add("--shards", o.sc.shards)
      .add("--wave", o.wave)
      .add("--sessions", o.sc.sessions)
      .add("--sim-seconds", o.sim_seconds)
      .add("--check-interval-s", o.check_interval_s)
      .add("--fault-rate", o.rates)
      .add("--workers", o.sc.workers)
      .add("--seed", o.sc.seed)
      .add("--out", o.out)
      .parse(argc, argv);
  if (o.sc.hosts < 1 || o.sc.shards < 1 || o.wave < 1 || o.sc.workers < 1) {
    std::fprintf(stderr, "--hosts, --shards, --wave and --workers must be "
                         ">= 1\n");
    return 2;
  }
  if (o.sim_seconds <= 0 || o.check_interval_s <= 0) {
    std::fprintf(stderr, "--sim-seconds and --check-interval-s must be > 0\n");
    return 2;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::printf("fig_crashscale: hosts=%d shards=%d wave=%d workers=%zu "
              "check=%.1fs window=%.1fs\n",
              o.sc.hosts, o.sc.shards, o.wave, o.sc.workers,
              o.check_interval_s, o.sim_seconds);

  const double base_rate = o.rates.back();
  double micro_p99_at_base = 0.0;
  double cold_p99_at_base = 0.0;
  std::uint64_t digest = 0;

  std::vector<std::vector<Cell>> cells(std::size(kLadders));
  for (std::size_t l = 0; l < std::size(kLadders); ++l) {
    for (const double rate : o.rates) {
      const Cell c = run_cell(o, kLadders[l], rate);
      std::printf("  %-5s rate=%.2f: pooled=%.6f p99=%.6f p999=%.6f "
                  "unplanned(f=%llu r=%llu u=%llu) pauses=%zu "
                  "digest=%s (%.1fs)\n",
                  kLadders[l].name, rate, c.stats.pooled_availability,
                  c.stats.availability_p99, c.stats.availability_p999,
                  static_cast<unsigned long long>(c.unplanned.failures),
                  static_cast<unsigned long long>(c.unplanned.recoveries),
                  static_cast<unsigned long long>(c.unplanned.unrecovered),
                  c.admission_pauses, rh::bench::hex_digest(c.digest).c_str(),
                  c.wall);
      cluster::mix_digest(digest, c.digest);
      if (rate == base_rate) {
        if (std::string_view(kLadders[l].name) == "micro") {
          micro_p99_at_base = c.stats.availability_p99;
        } else if (std::string_view(kLadders[l].name) == "cold") {
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
  rh::bench::write_scale_json_header(js, "fig_crashscale", o.sc, o.wave);
  js << "  \"sim_seconds\": " << o.sim_seconds << ",\n"
     << "  \"check_interval_s\": " << o.check_interval_s << ",\n"
     << "  \"base_rate\": " << base_rate << ",\n"
     << "  \"p99_availability_at_base_rate\": " << micro_p99_at_base << ",\n"
     << "  \"cold_p99_availability_at_base_rate\": " << cold_p99_at_base
     << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"ladders\": [\n";
  for (std::size_t l = 0; l < std::size(kLadders); ++l) {
    js << "    {\"name\": \"" << kLadders[l].name << "\", \"points\": [\n";
    for (std::size_t i = 0; i < cells[l].size(); ++i) {
      const Cell& c = cells[l][i];
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
         << ", \"digest\": \"" << rh::bench::hex_digest(c.digest) << "\"}"
         << (i + 1 < cells[l].size() ? ",\n" : "\n");
    }
    js << "    ]}" << (l + 1 < std::size(kLadders) ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"digest\": \"" << rh::bench::hex_digest(digest) << "\"\n"
     << "}\n";
  std::printf("  wrote %s\n", o.out.c_str());
  return 0;
}
