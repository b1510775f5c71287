// Quickstart: bring up a consolidated server, rejuvenate its VMM with the
// warm-VM reboot, and watch the services survive.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>
#include <memory>

#include "guest/guest_os.hpp"
#include "guest/sshd.hpp"
#include "obs/export.hpp"
#include "rejuv/reboot_driver.hpp"
#include "vmm/host.hpp"
#include "workload/prober.hpp"

int main() {
  using namespace rh;

  // 1. One physical host (the paper's testbed: 12 GiB RAM, 4 cores).
  sim::Simulation sim;
  vmm::Host host(sim, Calibration::paper_testbed());
  host.obs().set_enabled(true);  // record the run's events for the log below
  host.instant_start();

  // 2. Three 1-GiB VMs, each running an ssh server.
  std::vector<std::unique_ptr<guest::GuestOs>> vms;
  int booted = 0;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(std::make_unique<guest::GuestOs>(
        host, "vm" + std::to_string(i), sim::kGiB));
    vms.back()->add_service(std::make_unique<guest::SshService>());
    vms.back()->create_and_boot([&booted] { ++booted; });
  }
  while (booted < 3) sim.step();
  std::printf("\n--- all VMs up at t=%.1f s ---\n\n", sim::to_seconds(sim.now()));

  // 3. Watch vm0's ssh service from a client.
  auto* ssh = vms[0]->find_service("sshd");
  workload::Prober prober(sim, {}, [&] { return vms[0]->service_reachable(*ssh); });
  prober.start();

  // 4. Rejuvenate the VMM with the warm-VM reboot.
  const sim::SimTime reboot_start = sim.now();
  std::vector<guest::GuestOs*> guest_ptrs;
  for (auto& v : vms) guest_ptrs.push_back(v.get());
  rejuv::WarmVmReboot reboot(host, guest_ptrs);
  bool done = false;
  reboot.run([&done] { done = true; });
  while (!done) sim.step();
  sim.run_for(5 * sim::kSecond);

  // 5. Report: the narrated event log, then the numbers.
  std::printf("\n--- event log ---\n");
  obs::write_event_log(std::cout, host.obs());
  std::printf("\n--- warm-VM reboot completed in %.1f s ---\n",
              sim::to_seconds(reboot.total_duration()));
  std::printf("operation breakdown:\n");
  for (const auto& step : reboot.breakdown()) {
    std::printf("  %-32s %7.2f s\n", step.label.c_str(),
                sim::to_seconds(step.duration()));
  }
  if (const auto outage = prober.outage_after(reboot_start)) {
    std::printf("observed ssh downtime: %.1f s\n", sim::to_seconds(*outage));
  }
  std::printf("vm0 integrity: %s, services never restarted (generation %llu)\n",
              vms[0]->integrity_ok() ? "OK" : "CORRUPTED",
              static_cast<unsigned long long>(ssh->generation()));
  return 0;
}
