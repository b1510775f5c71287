// Ablations of the design choices DESIGN.md calls out:
//   1. suspend-by-VMM-after-dom0-shutdown vs original-Xen ordering
//      (the ~7 s of extra service uptime in Fig. 7)
//   2. honouring the preserved-region registry vs plain kexec
//      (without it, frozen images are corrupted)
//   3. the Xen simultaneous-creation artifact on/off
//      (the 25 s post-resume network dip in Fig. 7)
//   4. quick reload vs hardware reset as the warm reboot's reload step
//      (on-memory suspend fundamentally requires quick reload)
#include <cstdio>

#include "bench_util.hpp"
#include "workload/http_client.hpp"
#include "workload/throughput_recorder.hpp"

namespace {

using namespace rh;
using bench::Testbed;

// ------------------------------------------------- 1: suspend ordering

void suspend_ordering() {
  std::printf("\n  [1] suspend ordering (when does the service stop?)\n");
  for (const bool by_vmm : {true, false}) {
    Calibration calib;
    calib.suspend_by_vmm_after_dom0_shutdown = by_vmm;
    Testbed tb(calib);
    tb.add_vms(3, sim::kGiB, Testbed::ServiceMix::kSsh);
    auto& g = *tb.guests[0];
    auto* ssh = g.find_service("sshd");
    workload::Prober prober(tb.sim, {},
                            [&] { return g.service_reachable(*ssh); });
    prober.start();
    tb.sim.run_for(sim::kSecond);
    const sim::SimTime start = tb.sim.now();
    tb.rejuvenate(rejuv::RebootKind::kWarm);
    prober.stop();
    const auto down_at = prober.down_at_after(start);
    const auto outage = prober.outage_after(start);
    std::printf("    %-42s service stops %5.1f s after command, downtime %5.1f s\n",
                by_vmm ? "VMM suspends after dom0 shutdown (RootHammer):"
                       : "dom0 suspends before its shutdown (orig. Xen):",
                sim::to_seconds(down_at.value_or(start) - start),
                sim::to_seconds(outage.value_or(0)));
  }
}

// -------------------------------- 2: preserved-region registry honoured?

void registry_honoured() {
  std::printf("\n  [2] preserved-region registry across the reload\n");
  for (const bool honor : {true, false}) {
    Calibration calib;
    calib.honor_preserved_regions = honor;
    Testbed tb(calib);
    tb.add_vms(2, sim::kGiB, Testbed::ServiceMix::kSsh);
    bool corrupted = false;
    try {
      tb.rejuvenate(rejuv::RebootKind::kWarm);
      for (auto& g : tb.guests) corrupted |= !g->integrity_ok();
    } catch (const InvariantViolation&) {
      corrupted = true;  // frames were handed out before resume could claim
    }
    std::printf("    honor=%-5s -> guest images %s\n", honor ? "true" : "false",
                corrupted ? "CORRUPTED (guests crash)" : "intact");
  }
}

// ------------------------------------------- 3: creation artifact on/off

void creation_artifact() {
  std::printf("\n  [3] Xen simultaneous-VM-creation artifact (Fig. 7 warm dip)\n");
  for (const bool model_artifact : {true, false}) {
    Calibration calib;
    calib.model_xen_creation_artifact = model_artifact;
    Testbed tb(calib);
    tb.add_vm("vm0", sim::kGiB, Testbed::ServiceMix::kApache);
    for (int i = 1; i < 6; ++i) {
      tb.add_vm("vm" + std::to_string(i), sim::kGiB, Testbed::ServiceMix::kSsh);
    }
    auto& web = *tb.guests[0];
    auto* apache = static_cast<guest::ApacheService*>(web.find_service("httpd"));
    std::vector<std::int64_t> files;
    for (int f = 0; f < 200; ++f) {
      files.push_back(web.vfs().create_file('d' + std::to_string(f),
                                            512 * sim::kKiB));
    }
    workload::HttpClientFleet fleet(web, *apache, files, {});
    fleet.start();
    tb.sim.run_for(30 * sim::kSecond);
    const sim::SimTime cmd = tb.sim.now();
    tb.rejuvenate(rejuv::RebootKind::kWarm);
    const sim::SimTime restored = tb.sim.now();
    tb.sim.run_for(60 * sim::kSecond);
    fleet.stop();
    const auto rep = workload::ThroughputAnalyzer::analyze(
        fleet.completions(), cmd, restored, tb.sim.now());
    std::printf("    artifact=%-5s -> post-resume degraded window %4.0f s "
                "(restored at %.0f%% of baseline)\n",
                model_artifact ? "on" : "off",
                sim::to_seconds(rep.degraded_window),
                100.0 * (1.0 - rep.degradation));
  }
}

// ------------------------- 4: on-memory suspend requires quick reload

void reload_vs_reset() {
  std::printf("\n  [4] on-memory suspend + hardware reset (instead of quick "
              "reload)\n");
  Testbed tb;
  tb.add_vms(2, sim::kGiB, Testbed::ServiceMix::kSsh);
  bool suspended = false;
  tb.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  while (!suspended) tb.sim.step();
  bool down = false;
  tb.host->shutdown_dom0([&] { down = true; });
  while (!down) tb.sim.step();
  bool up = false;
  tb.host->hardware_reboot([&] { up = true; });
  while (!up) tb.sim.step();
  std::printf("    after the reset the preserved registry holds %zu regions "
              "(was 2): the frozen images are gone;\n"
              "    resume is impossible and the VMs must cold-boot -- quick "
              "reload is not an optional optimisation.\n",
              tb.host->preserved().size());
}

// -------------------------------- 5: driver domains raise warm downtime

void driver_domains() {
  std::printf("\n  [5] driver domains (cannot be suspended; Sec. 7)\n");
  for (const int drivers : {0, 1, 2}) {
    Testbed tb;
    tb.add_vms(4, sim::kGiB, Testbed::ServiceMix::kSsh);
    for (int i = 0; i < drivers; ++i) tb.guests[static_cast<std::size_t>(i)]
        ->set_driver_domain(true);
    auto driver = tb.rejuvenate(rejuv::RebootKind::kWarm);
    std::printf("    %d driver domain(s) -> warm reboot takes %6.1f s\n",
                drivers, sim::to_seconds(driver->total_duration()));
  }
}

}  // namespace

int main() {
  rh::bench::print_header("Ablations: why each mechanism is load-bearing");
  suspend_ordering();
  registry_honoured();
  creation_artifact();
  reload_vs_reset();
  driver_domains();
  return 0;
}
