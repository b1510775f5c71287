// Failure injection around the reboot window: what survives what.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "rejuv/supervisor.hpp"
#include "test_util.hpp"
#include "workload/http_client.hpp"

namespace rh::test {
namespace {

TEST(FailureInjection, PowerLossAfterSuspendLosesImagesNotDisk) {
  // The operator suspends everything for a warm reboot, but the machine
  // loses power before the quick reload. The in-memory images are gone;
  // anything saved to disk earlier is not.
  HostFixture fx(2);
  // vm1's image goes to disk first (the admin hedged).
  bool saved = false;
  fx.host->vmm().save_domain_to_disk(fx.guests[1]->domain_id(),
                                     fx.host->images(), [&] { saved = true; });
  run_until_flag(fx.sim, saved);
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  bool down = false;
  fx.host->shutdown_dom0([&] { down = true; });
  run_until_flag(fx.sim, down);

  // Power loss instead of quick reload.
  bool up = false;
  fx.host->hardware_reboot([&] { up = true; });
  run_until_flag(fx.sim, up);

  // vm0's frozen image is unrecoverable; resume must fail loudly.
  EXPECT_TRUE(fx.host->preserved().empty());
  EXPECT_THROW(fx.host->vmm().resume_domain_on_memory(
                   "vm0", fx.guests[0].get(), [](DomainId) {}),
               InvariantViolation);
  // vm1 restores from its disk image; vm0 can only cold-boot.
  bool restored = false;
  fx.host->vmm().restore_domain_from_disk("vm1", fx.host->images(),
                                          fx.guests[1].get(),
                                          [&](DomainId) { restored = true; });
  run_until_flag(fx.sim, restored);
  EXPECT_TRUE(fx.guests[1]->integrity_ok());
  EXPECT_EQ(fx.guests[1]->state(), guest::OsState::kRunning);
  // vm0's object still believes it is suspended -- its image is simply
  // gone. Recovery means provisioning a fresh VM.
  EXPECT_EQ(fx.guests[0]->state(), guest::OsState::kSuspended);
}

TEST(FailureInjection, SuspendedStateSurvivesMultipleQuickReloads) {
  // Preserved regions must survive not just one reload but any number of
  // them before the resume happens (e.g. the first new VMM was also bad
  // and was itself rejuvenated).
  HostFixture fx(1);
  auto cycle = [&fx] {
    bool loaded = false;
    fx.host->vmm().xexec_load([&] { loaded = true; });
    run_until_flag(fx.sim, loaded);
    if (fx.host->dom0_state() == vmm::Dom0State::kRunning) {
      bool down = false;
      fx.host->shutdown_dom0([&] { down = true; });
      run_until_flag(fx.sim, down);
    }
    bool up = false;
    fx.host->quick_reload([&] { up = true; });
    run_until_flag(fx.sim, up);
  };
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);

  bool loaded0 = false;
  fx.host->vmm().xexec_load([&] { loaded0 = true; });
  run_until_flag(fx.sim, loaded0);
  bool down0 = false;
  fx.host->shutdown_dom0([&] { down0 = true; });
  run_until_flag(fx.sim, down0);
  bool up0 = false;
  fx.host->quick_reload([&] { up0 = true; });
  run_until_flag(fx.sim, up0);

  cycle();  // a second reload before anyone resumed

  ASSERT_EQ(fx.host->preserved().size(), std::size_t{1});
  bool resumed = false;
  fx.host->vmm().resume_domain_on_memory("vm0", fx.guests[0].get(),
                                         [&](DomainId) { resumed = true; });
  run_until_flag(fx.sim, resumed);
  EXPECT_TRUE(fx.guests[0]->integrity_ok());
  EXPECT_EQ(fx.guests[0]->state(), guest::OsState::kRunning);
}

TEST(FailureInjection, TamperedPreservedPayloadIsRejected) {
  HostFixture fx(1);
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  // Truncate the serialised record (bit-rot / buggy writer).
  const auto* region = fx.host->preserved().find("domain/vm0");
  ASSERT_NE(region, nullptr);
  mm::PreservedRegion corrupted = *region;
  corrupted.payload.resize(corrupted.payload.size() / 2);
  fx.host->preserved().replace(std::move(corrupted));

  // The record is parsed when the (xend-serialised) resume executes.
  bool resumed = false;
  fx.host->vmm().resume_domain_on_memory("vm0", fx.guests[0].get(),
                                         [&](DomainId) { resumed = true; });
  EXPECT_THROW(
      {
        while (!resumed && fx.sim.pending_events() > 0) fx.sim.step();
      },
      InvariantViolation);
  EXPECT_FALSE(resumed);
}

TEST(FailureInjection, WarmRebootUnderActiveWorkloadIsClean) {
  // Requests in flight when the suspend lands must not corrupt anything;
  // the fleet stalls and resumes.
  HostFixture fx(0);
  auto web = std::make_unique<guest::GuestOs>(*fx.host, "web", sim::kGiB);
  auto& apache = static_cast<guest::ApacheService&>(
      web->add_service(std::make_unique<guest::ApacheService>()));
  std::vector<std::int64_t> files;
  for (int f = 0; f < 30; ++f) {
    files.push_back(web->vfs().create_file('f' + std::to_string(f),
                                           512 * sim::kKiB));
  }
  guest::GuestOs* web_ptr = web.get();
  fx.guests.push_back(std::move(web));
  bool booted = false;
  web_ptr->create_and_boot([&] { booted = true; });
  run_until_flag(fx.sim, booted);

  workload::HttpClientFleet fleet(*web_ptr, apache, files, {});
  fleet.start();
  fx.sim.run_for(5 * sim::kSecond);
  const auto ok_before = fleet.requests_ok();

  fx.rejuvenate(rejuv::RebootKind::kWarm);
  fx.sim.run_for(40 * sim::kSecond);
  fleet.stop();

  EXPECT_TRUE(web_ptr->integrity_ok());
  EXPECT_GT(fleet.requests_ok(), ok_before + 500);  // flow resumed
  // All cached content survived: no stale-token evictions.
  EXPECT_EQ(web_ptr->cache().stale_hits(), std::uint64_t{0});
}

TEST(FailureInjection, ResumeOfWrongGuestObjectStillChecksIntegrity) {
  // An operator resumes a preserved image into a *different* GuestOs
  // object (wrong hooks wiring). The signature check catches it.
  HostFixture fx(1);
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);

  auto impostor =
      std::make_unique<guest::GuestOs>(*fx.host, "impostor", sim::kGiB);
  // Force the impostor into a suspended-looking state via its own boot +
  // suspend is impossible (it has no domain); instead verify the API
  // rejects a non-suspended hooks object cleanly.
  bool resumed = false;
  EXPECT_THROW(
      {
        fx.host->vmm().resume_domain_on_memory("vm0", impostor.get(),
                                               [&](DomainId) { resumed = true; });
        while (!resumed && fx.sim.pending_events() > 0) fx.sim.step();
      },
      InvariantViolation);
}

// --------------------------------------------- the supervised ladder

/// Runs a supervised warm pass over the fixture; returns the report.
rejuv::SupervisorReport supervised_pass(HostFixture& fx,
                                        rejuv::SupervisorConfig cfg = {}) {
  rejuv::Supervisor sup(*fx.host, fx.guest_ptrs(), cfg);
  bool done = false;
  sup.run([&done](const rejuv::SupervisorReport&) { done = true; });
  const sim::SimTime deadline = fx.sim.now() + 12 * sim::kHour;
  while (!done && fx.sim.pending_events() > 0 && fx.sim.now() < deadline) {
    fx.sim.step();
  }
  EXPECT_TRUE(done) << "supervised pass did not complete";
  return sup.report();
}

TEST(FailureInjection, LadderWarmFallsBackToSavedAfterXexecFailure) {
  HostFixture fx(2);
  fault::FaultConfig faults;
  faults.xexec_failure_rate = 1.0;
  fx.host->configure_faults(faults);
  const auto report = supervised_pass(fx);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kSaved);
  EXPECT_EQ(report.recovery_count(rejuv::RecoveryAction::kFallbackToSaved),
            std::size_t{1});
  // The fallback preserved every VM's state via the disk path.
  EXPECT_EQ(report.restored_vms, std::size_t{2});
  for (auto& g : fx.guests) EXPECT_TRUE(g->integrity_ok());
}

TEST(FailureInjection, LadderSavedFallsBackToColdAfterDiskWriteError) {
  HostFixture fx(2);
  fault::FaultConfig faults;
  faults.disk_write_error_rate = 1.0;
  fx.host->configure_faults(faults);
  rejuv::SupervisorConfig cfg;
  cfg.preferred = rejuv::RebootKind::kSaved;
  const auto report = supervised_pass(fx, cfg);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.recovery_count(rejuv::RecoveryAction::kFallbackToCold),
            std::size_t{2});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{2});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(FailureInjection, CorruptImageColdBootsThatVmWhileSiblingsResume) {
  // A partial corruption rate: with the fixture's fixed seed, some images
  // rot and some survive. The checksum catches the rotten ones, which
  // cold boot; every sibling still gets its fast on-memory resume, and
  // every VM ends up running.
  HostFixture fx(4);
  fault::FaultConfig faults;
  faults.image_corruption_rate = 0.5;
  fx.host->configure_faults(faults);
  const auto report = supervised_pass(fx);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kWarm);
  const auto corrupted =
      report.recovery_count(rejuv::RecoveryAction::kColdBootSingleVm);
  EXPECT_EQ(report.cold_booted_vms, corrupted);
  EXPECT_EQ(report.resumed_vms + corrupted, std::size_t{4});
  // Seed 42 must actually split the herd, or this test shows nothing.
  EXPECT_GE(corrupted, std::size_t{1});
  EXPECT_GE(report.resumed_vms, std::size_t{1});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

// -------------------------------------------------------- determinism

/// One replication of a faulty supervised pass, reduced to scalars. Runs
/// entirely inside the replication body, so the merged grid exercises the
/// full fault + recovery machinery across worker threads.
exp::ReplicationResult faulty_pass_body(const exp::ReplicationContext& ctx) {
  sim::Simulation sim;
  vmm::Host host(sim, {}, ctx.seed);
  host.instant_start();
  std::vector<std::unique_ptr<guest::GuestOs>> guests;
  std::vector<guest::GuestOs*> ptrs;
  for (int i = 0; i < 2; ++i) {
    guests.push_back(std::make_unique<guest::GuestOs>(
        host, "vm" + std::to_string(i), sim::kGiB));
    guests.back()->add_service(std::make_unique<guest::SshService>());
    bool up = false;
    guests.back()->create_and_boot([&up] { up = true; });
    sim.run_until(sim.now() + sim::kHour);
    EXPECT_TRUE(up);
    ptrs.push_back(guests.back().get());
  }
  // Arm faults only after the testbed is up: the pass under test is the
  // rejuvenation, not the initial provisioning.
  host.configure_faults(fault::FaultConfig::uniform(0.3));
  rejuv::Supervisor sup(host, ptrs, {});
  bool done = false;
  sup.run([&done](const rejuv::SupervisorReport&) { done = true; });
  const sim::SimTime deadline = sim.now() + 12 * sim::kHour;
  while (!done && sim.pending_events() > 0 && sim.now() < deadline) {
    sim.step();
  }
  EXPECT_TRUE(done);

  // FNV-1a over the fault schedule, folded into a double-exact 32-bit
  // value: any divergence in kind, time or site across thread counts
  // shows up as a metric mismatch.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : host.faults().schedule_fingerprint()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  const auto& r = sup.report();
  exp::ReplicationResult out;
  out.values = {static_cast<double>(h >> 32),
                static_cast<double>(h & 0xffffffffu),
                static_cast<double>(host.faults().total_injected()),
                sim::to_seconds(r.total_duration()),
                static_cast<double>(r.resumed_vms),
                static_cast<double>(r.cold_booted_vms),
                static_cast<double>(r.recoveries.size())};
  return out;
}

TEST(FailureInjection, FaultScheduleIsByteIdenticalAcrossRunnerThreads) {
  exp::GridSpec spec;
  spec.points = 2;
  spec.replications = 3;
  spec.root_seed = 7;
  spec.threads = 1;
  const auto serial = exp::run_grid(spec, faulty_pass_body);
  spec.threads = 4;
  const auto parallel = exp::run_grid(spec, faulty_pass_body);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    const auto& a = serial.point(p);
    const auto& b = parallel.point(p);
    ASSERT_EQ(a.metrics().size(), b.metrics().size());
    for (std::size_t m = 0; m < a.metrics().size(); ++m) {
      // Bitwise equality, not tolerance: the runner's contract.
      EXPECT_EQ(a.mean(m), b.mean(m)) << "point " << p << " metric " << m;
      EXPECT_EQ(a.ci95(m), b.ci95(m)) << "point " << p << " metric " << m;
    }
  }
  // Faults actually fired somewhere, or the test proves nothing.
  double injected = 0;
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    injected += serial.point(p).mean(2);
  }
  EXPECT_GT(injected, 0.0);
}

}  // namespace
}  // namespace rh::test
