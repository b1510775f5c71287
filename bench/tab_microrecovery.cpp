// Unplanned-crash resilience: availability vs steady VMM fault rate for
// four recovery ladders, extending tab_availability's --fault-rate sweep
// to failures that arrive *during service*, not just during the planned
// rejuvenation pass.
//
//   micro  kWarm planned pass + in-place micro-recovery of VMM crashes
//   warm   kWarm planned pass, crashes take the legacy hardware reboot
//   saved  kSaved planned pass, legacy crash handling
//   cold   kCold planned pass, legacy crash handling
//
// Each replication is a one-hour window over 4 probed JBoss VMs: one
// supervised rejuvenation at the start, then a SteadyFaultProcess rolling
// kVmmCrash / kVmmHang at the swept rate; every hit goes through a
// rejuv::RecoveryDriver (a fresh Supervisor ladder per failure, arrivals
// absorbed while any ladder owns the host). At rate 0 micro and warm are the same
// run byte-for-byte (micro-recovery costs nothing until a crash happens);
// the figure of interest is the rate region where micro strictly
// dominates warm while warm still dominates saved/cold.
//
// Writes BENCH_microrec.json (the CI smoke artifact); the regression gate
// tracks `availability_at_base_rate` = micro's mean at the highest rate.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "rejuv/recovery_driver.hpp"
#include "rejuv/supervisor.hpp"

namespace {

using namespace rh;
using bench::Testbed;

using bench::kLadders;
using bench::Ladder;
constexpr std::size_t kLadderCount = std::size(kLadders);

/// Per-VM availability over a one-hour window: one planned supervised
/// rejuvenation, then steady unplanned VMM crashes/hangs at `rate` per
/// check, each answered by a fresh Supervisor ladder. The observer rides
/// along so micro-attempt counters reach the merged point metrics.
exp::ReplicationResult microrec_replication(const Ladder& ladder, double rate,
                                            std::uint64_t seed) {
  Testbed tb(seed);
  tb.host->obs().set_enabled(true);
  tb.add_vms(4, sim::kGiB, Testbed::ServiceMix::kJboss);
  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& g : tb.guests) {
    auto* svc = g->find_service("jboss");
    probers.push_back(std::make_unique<workload::Prober>(
        tb.sim, workload::Prober::Config{},
        [g = g.get(), svc] { return g->service_reachable(*svc); }));
    probers.back()->start();
  }
  tb.sim.run_for(sim::kSecond);

  // Arm only the steady VMM kinds: this sweep is about unplanned failures,
  // not about the planned pass's own mechanisms misbehaving. Hangs are
  // modelled at half the crash rate -- rarer, and costlier to detect.
  fault::FaultConfig faults;
  faults.vmm_crash_rate = rate;
  faults.vmm_hang_rate = rate / 2.0;
  tb.host->configure_faults(faults);

  const rejuv::SupervisorConfig scfg = ladder.supervisor();

  const sim::SimTime start = tb.sim.now();
  const sim::SimTime end = start + sim::kHour;

  // The planned pass owns its Supervisor; unplanned arrivals go through
  // the reusable recovery driver (absorb while any ladder owns the host,
  // else a fresh Supervisor per failure).
  rejuv::Supervisor planned(*tb.host, tb.guest_ptrs(), scfg);
  planned.run([](const rejuv::SupervisorReport&) {});

  rejuv::RecoveryDriver driver(*tb.host, tb.guest_ptrs(), scfg);
  fault::SteadyFaultProcess steady(
      tb.sim, tb.host->faults(),
      {.check_interval = 2 * sim::kMinute});
  steady.start([&](fault::FaultKind kind) {
    driver.on_failure(kind, [&steady](const rejuv::RecoveryDriver::Outcome&) {
      steady.resume();
    });
  });
  tb.sim.run_until(end);
  steady.stop();

  double downtime = 0;
  for (auto& p : probers) {
    p->stop();
    downtime += static_cast<double>(p->total_downtime(start, end));
  }
  const double window =
      static_cast<double>(end - start) * static_cast<double>(probers.size());
  exp::ReplicationResult out;
  out.values = {1.0 - downtime / window};
  out.metrics = std::move(tb.host->obs().metrics());
  return out;
}

/// Renders the micro-recovery counters of one point's merged registry.
std::string micro_counters(const obs::MetricsRegistry& m) {
  std::string out;
  for (const auto& c : m.counters()) {
    const bool micro = c.name == "supervisor.micro_attempts" ||
                       c.name == "supervisor.micro_recoveries" ||
                       c.name.rfind("supervisor.recovery.micro", 0) == 0;
    if (!micro || c.value == 0) continue;
    if (!out.empty()) out += ", ";
    out += c.name.substr(std::strlen("supervisor.")) + " x" +
           std::to_string(c.value);
  }
  return out.empty() ? "none" : out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> rates = {0.0, 0.05, 0.1, 0.2, 0.4};
  std::string out_path = "BENCH_microrec.json";
  rh::bench::SweepOptions opt;
  opt.parse(argc, argv,
            rh::bench::Cli().add("--fault-rate", rates).add("--out", out_path));

  rh::bench::print_header(
      "Unplanned-crash resilience: availability vs steady VMM fault rate");
  std::printf("  [4 JBoss VMs, 1 h window; one planned supervised "
              "rejuvenation plus steady\n   kVmmCrash (rate) / kVmmHang "
              "(rate/2) arrivals every 2 min; cells are per-VM\n   "
              "availability %%, mean±95%% CI over %zu replications]\n\n",
              opt.reps);

  // One grid per ladder sharing the root seed: point p of every grid is
  // rate p, so all ladders face the same replication substreams and the
  // micro-vs-warm comparison is paired, not just averaged.
  exp::GridResult grids[kLadderCount];
  for (std::size_t k = 0; k < kLadderCount; ++k) {
    grids[k] = exp::run_grid(
        opt.grid(rates.size()), [&, k](const exp::ReplicationContext& ctx) {
          return microrec_replication(kLadders[k], rates[ctx.point_index],
                                      ctx.seed);
        });
  }
  rh::bench::print_sweep_banner(grids[0], opt);

  std::printf("\n  %-12s", "fault rate");
  for (const auto& l : kLadders) std::printf(" %-22s", l.name);
  std::printf("\n");
  for (std::size_t p = 0; p < rates.size(); ++p) {
    std::printf("  %-12.3f", rates[p]);
    for (std::size_t k = 0; k < kLadderCount; ++k) {
      std::printf(" %-22s",
                  rh::bench::fmt_ci(grids[k].point(p).mean(0) * 100.0,
                                    grids[k].point(p).ci95(0) * 100.0, "%.4f")
                      .c_str());
    }
    std::printf("\n");
  }

  std::printf("\n  micro ladder recovery counters (summed over %zu "
              "replications, from the\n  merged observer metrics):\n",
              opt.reps);
  for (std::size_t p = 0; p < rates.size(); ++p) {
    std::printf("  rate %-7.3f %s\n", rates[p],
                micro_counters(grids[0].point(p).merged_metrics()).c_str());
  }

  // The gate metric: micro's availability at the highest swept rate. This
  // is where the rungs separate most, so a regression in the in-place
  // recovery path moves it first.
  const std::size_t base = rates.size() - 1;
  std::printf("\n  availability_at_base_rate (micro @ rate %.3f): %.6f\n",
              rates[base], grids[0].point(base).mean(0));

  if (out_path.empty()) return 0;
  std::string json = "{\n  \"benchmark\": \"microrecovery_fault_sweep\",\n";
  json += "  \"workload\": \"planned supervised rejuvenation of 4 JBoss VMs "
          "plus steady VMM crash/hang arrivals, 1 h window\",\n";
  json += "  \"replications_per_point\": " + std::to_string(opt.reps) + ",\n";
  json += "  \"root_seed\": " + std::to_string(opt.root_seed) + ",\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "  \"base_fault_rate\": %.6f,\n",
                rates[base]);
  json += buf;
  std::snprintf(buf, sizeof buf, "  \"availability_at_base_rate\": %.8f,\n",
                grids[0].point(base).mean(0));
  json += buf;
  json += "  \"points\": [\n";
  for (std::size_t p = 0; p < rates.size(); ++p) {
    std::snprintf(buf, sizeof buf, "    {\"fault_rate\": %.6f", rates[p]);
    json += buf;
    for (std::size_t k = 0; k < kLadderCount; ++k) {
      std::snprintf(buf, sizeof buf,
                    ", \"%s_availability\": %.8f, \"%s_ci95\": %.8f",
                    kLadders[k].name, grids[k].point(p).mean(0),
                    kLadders[k].name, grids[k].point(p).ci95(0));
      json += buf;
    }
    json += p + 1 < rates.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}
