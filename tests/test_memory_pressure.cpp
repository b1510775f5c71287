// Preserved-memory pressure: budget accounting, admission control and
// per-VM degradation under overcommit (DESIGN.md §9).
//
// The testbed for the supervised tests: three VMs with 2 GiB nominal
// memory booted with a reduced 1 GiB allocation (Xen memory= < maxmem=)
// and a page cache sized to 25 % of nominal, so each VM has ~1028 MiB of
// preserved-frame demand and ~496 MiB of reclaim-safe balloon margin.
// Individual tests pick the preserved-frame budget to land on a specific
// rung of the admission ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/sharded_balancer.hpp"
#include "exp/runner.hpp"
#include "mm/balloon.hpp"
#include "rejuv/admission.hpp"
#include "rejuv/supervisor.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

Calibration pressure_calib(sim::Bytes preserved_budget) {
  Calibration c;
  c.page_cache_fraction = 0.25;
  c.preserved_frame_budget = preserved_budget / sim::kPageSize;
  return c;
}

guest::GuestOs& add_overcommitted_vm(HostFixture& fx, const std::string& name,
                                     sim::Bytes nominal, sim::Bytes alloc) {
  auto g = std::make_unique<guest::GuestOs>(*fx.host, name, nominal);
  g->add_service(std::make_unique<guest::SshService>());
  g->set_boot_allocation(alloc);
  guest::GuestOs& ref = *g;
  fx.guests.push_back(std::move(g));
  bool up = false;
  ref.create_and_boot([&up] { up = true; });
  fx.sim.run_until(fx.sim.now() + 30 * sim::kMinute);
  EXPECT_TRUE(up) << "VM '" << name << "' failed to boot";
  return ref;
}

/// Three 2-GiB-nominal VMs each booted with a 1 GiB allocation.
void add_standard_vms(HostFixture& fx) {
  for (int i = 0; i < 3; ++i) {
    add_overcommitted_vm(fx, "vm" + std::to_string(i), 2 * sim::kGiB,
                         sim::kGiB);
  }
}

rejuv::SupervisorReport supervise(HostFixture& fx,
                                  rejuv::SupervisorConfig cfg = {}) {
  rejuv::Supervisor sup(*fx.host, fx.guest_ptrs(), cfg);
  bool done = false;
  rejuv::SupervisorReport out;
  sup.run([&](const rejuv::SupervisorReport& r) {
    out = r;
    done = true;
  });
  const sim::SimTime deadline = fx.sim.now() + 12 * sim::kHour;
  while (!done && fx.sim.pending_events() > 0 && fx.sim.now() < deadline) {
    fx.sim.step();
  }
  EXPECT_TRUE(done) << "supervised pass did not complete";
  return out;
}

rejuv::AdmissionConfig enabled_admission() {
  rejuv::AdmissionConfig a;
  a.enabled = true;
  return a;
}

// ------------------------------------------------- allocator mechanics

TEST(MemoryPressure, AllocatorDistinguishesFragmentationFromExhaustion) {
  mm::FrameAllocator alloc(16);
  const auto frames = alloc.allocate(1, 16);
  for (std::size_t i = 0; i < frames.size(); i += 2) alloc.release(frames[i]);
  // 8 frames free, but no two adjacent.
  EXPECT_EQ(alloc.free_frames(), 8);
  EXPECT_EQ(alloc.largest_free_run(), 1);
  EXPECT_GT(alloc.fragmentation(), 0.8);
  try {
    alloc.allocate_contiguous(2, 3);
    FAIL() << "expected OutOfMachineMemory";
  } catch (const mm::OutOfMachineMemory& e) {
    EXPECT_NE(std::string(e.what()).find("fragmented"), std::string::npos);
  }
  // Single-frame runs still work, and the books stay balanced.
  EXPECT_EQ(alloc.allocate_contiguous(2, 1).size(), std::size_t{1});
  EXPECT_TRUE(alloc.accounting_ok());
}

TEST(MemoryPressure, CompactionRestoresContiguousRuns) {
  HostFixture fx;
  add_overcommitted_vm(fx, "vm0", sim::kGiB, sim::kGiB);
  add_overcommitted_vm(fx, "vm1", sim::kGiB, sim::kGiB);
  // Balloon out the tail of vm0: the hole sits between vm0's remaining
  // frames and vm1's range, fragmenting free memory.
  auto* d0 = fx.host->vmm().find_domain_by_name("vm0");
  ASSERT_NE(d0, nullptr);
  mm::BalloonDriver balloon(d0->id(), fx.host->vmm().allocator(), d0->p2m());
  EXPECT_EQ(balloon.inflate(4096), 4096);
  const auto before = fx.host->vmm().allocator().largest_free_run();
  const auto moved = fx.host->vmm().compact_memory();
  EXPECT_GT(moved, 0);
  EXPECT_GT(fx.host->vmm().allocator().largest_free_run(), before);
  const auto report = fx.host->vmm().frame_conservation_report();
  EXPECT_TRUE(report.ok());
  // Compaction moved frames, not state.
  EXPECT_TRUE(fx.guests[0]->integrity_ok());
  EXPECT_TRUE(fx.guests[1]->integrity_ok());
}

// ------------------------------------------------- registry accounting

TEST(MemoryPressure, DuplicatePutThrowsAndReplaceOverwritesDeliberately) {
  mm::PreservedRegionRegistry reg;
  mm::PreservedRegion r;
  r.name = "domain/a";
  r.payload.resize(100, std::byte{1});
  reg.put(r);
  // Silent overwrite would leak the old region's frozen frames.
  EXPECT_THROW(reg.put(r), InvariantViolation);
  reg.put({"domain/b", {}, {}, 0});
  // replace() keeps insertion order and restamps the checksum.
  mm::PreservedRegion r2 = r;
  r2.payload.assign(50, std::byte{2});
  reg.replace(r2);
  EXPECT_TRUE(reg.intact("domain/a"));
  const auto names = reg.names();
  ASSERT_EQ(names.size(), std::size_t{2});
  EXPECT_EQ(names[0], "domain/a");
  EXPECT_EQ(names[1], "domain/b");
  // replace() of an absent name is a bug, not an insert.
  mm::PreservedRegion absent;
  absent.name = "domain/missing";
  EXPECT_THROW(reg.replace(absent), InvariantViolation);
}

TEST(MemoryPressure, RegistryBudgetRejectsOverflowAndSurvivesClear) {
  mm::PreservedRegionRegistry reg;
  reg.set_frame_budget(3);
  mm::PreservedRegion r;
  r.name = "a";
  r.payload.resize(2 * sim::kPageSize);  // 2 metadata frames
  r.frozen_frames = {7};                 // + 1 frozen frame
  EXPECT_EQ(mm::PreservedRegionRegistry::frames_of(r), 3);
  reg.put(r);
  EXPECT_EQ(reg.reserved_frames(), 3);
  mm::PreservedRegion over;
  over.name = "b";
  over.frozen_frames = {8};
  EXPECT_THROW(reg.put(over), mm::PreservedBudgetExceeded);
  EXPECT_FALSE(reg.contains("b"));
  // Replacing within the budget is fine: the old record's frames come
  // back before the new ones are charged.
  mm::PreservedRegion smaller = r;
  smaller.payload.resize(sim::kPageSize);
  reg.replace(smaller);
  EXPECT_EQ(reg.reserved_frames(), 2);
  reg.put(over);  // now it fits
  // Power loss destroys contents, not the contract.
  reg.clear();
  EXPECT_EQ(reg.reserved_frames(), 0);
  EXPECT_EQ(reg.frame_budget(), 3);
}

// ------------------------------------------------------ admission plans

TEST(MemoryPressure, PlanFitsUnderUnlimitedBudget) {
  HostFixture fx(0, pressure_calib(0));
  add_standard_vms(fx);
  rejuv::AdmissionController ctl(*fx.host, {});
  const auto plan = ctl.plan(fx.guest_ptrs());
  EXPECT_FALSE(plan.pressured());
  EXPECT_TRUE(plan.reclaims.empty());
  EXPECT_TRUE(plan.demote_saved.empty());
  EXPECT_TRUE(plan.demote_cold.empty());
  EXPECT_EQ(plan.warm.size(), std::size_t{3});
}

TEST(MemoryPressure, PlanCoversMildShortfallByBallooningAlone) {
  HostFixture fx(0, pressure_calib(3000 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::AdmissionController ctl(*fx.host, {});
  const auto plan = ctl.plan(fx.guest_ptrs());
  EXPECT_TRUE(plan.pressured());
  ASSERT_FALSE(plan.reclaims.empty());
  EXPECT_EQ(plan.reclaims.front().guest->name(), "vm0");
  EXPECT_TRUE(plan.demote_saved.empty());
  EXPECT_TRUE(plan.demote_cold.empty());
  EXPECT_EQ(plan.warm.size(), std::size_t{3});
}

TEST(MemoryPressure, PlanDemotesLargestWhenBallooningIsNotEnough) {
  HostFixture fx(0, pressure_calib(1800 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::AdmissionController ctl(*fx.host, {});
  const auto plan = ctl.plan(fx.guest_ptrs());
  EXPECT_TRUE(plan.pressured());
  ASSERT_EQ(plan.demote_saved.size(), std::size_t{1});
  EXPECT_EQ(plan.demote_saved[0]->name(), "vm0");
  EXPECT_TRUE(plan.demote_cold.empty());
  EXPECT_EQ(plan.warm.size(), std::size_t{2});
  // A demoted VM's reclaim would be pointless; only survivors balloon.
  for (const auto& r : plan.reclaims) EXPECT_NE(r.guest->name(), "vm0");
}

TEST(MemoryPressure, PlanFallsToColdBeyondTheSavedDemotionCap) {
  HostFixture fx(0, pressure_calib(1800 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::AdmissionConfig cfg;
  cfg.max_saved_demotions = 0;
  rejuv::AdmissionController ctl(*fx.host, cfg);
  const auto plan = ctl.plan(fx.guest_ptrs());
  EXPECT_TRUE(plan.demote_saved.empty());
  ASSERT_EQ(plan.demote_cold.size(), std::size_t{1});
  EXPECT_EQ(plan.demote_cold[0]->name(), "vm0");

  rejuv::AdmissionConfig no_disk;
  no_disk.demote_to_saved = false;
  const auto plan2 = rejuv::AdmissionController(*fx.host, no_disk)
                         .plan(fx.guest_ptrs());
  EXPECT_TRUE(plan2.demote_saved.empty());
  EXPECT_EQ(plan2.demote_cold.size(), std::size_t{1});
}

TEST(MemoryPressure, ExistingRegionsEatTheAvailableBudget) {
  HostFixture fx(0, pressure_calib(3000 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::AdmissionController ctl(*fx.host, {});
  const auto before = ctl.available_budget_frames();
  mm::PreservedRegion stale;
  stale.name = "stale/old#1";
  stale.payload.resize(8 * sim::kPageSize);
  fx.host->preserved().put(stale);
  EXPECT_EQ(ctl.available_budget_frames(), before - 8);
}

// ------------------------------------------- supervised ladder, rung 1

TEST(MemoryPressure, SupervisedPassBalloonsUnderMildPressureAndStaysWarm) {
  HostFixture fx(0, pressure_calib(3000 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.pressure.consulted);
  EXPECT_TRUE(report.pressure.pressured);
  EXPECT_GT(report.pressure.reclaimed_frames, 0);
  EXPECT_EQ(report.pressure.demoted_saved, std::size_t{0});
  EXPECT_EQ(report.pressure.demoted_cold, std::size_t{0});
  EXPECT_EQ(report.resumed_vms, std::size_t{3});
  EXPECT_GE(report.recovery_count(rejuv::RecoveryAction::kBalloonReclaim),
            std::size_t{1});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
  EXPECT_TRUE(fx.host->vmm().frame_conservation_report().ok());
}

// ---------------------------------------- supervised ladder, rungs 2-3

TEST(MemoryPressure, SupervisedPassDemotesOneVmToDiskUnderHeavyPressure) {
  HostFixture fx(0, pressure_calib(1800 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.pressure.demoted_saved, std::size_t{1});
  EXPECT_EQ(report.resumed_vms, std::size_t{2});
  EXPECT_EQ(report.restored_vms, std::size_t{1});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{0});
  EXPECT_EQ(report.recovery_count(rejuv::RecoveryAction::kDemoteToSaved),
            std::size_t{1});
  // The demoted VM took the disk path: state kept, nothing cold-booted.
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

TEST(MemoryPressure, SupervisedPassDemotesToColdWhenDiskPathDisallowed) {
  HostFixture fx(0, pressure_calib(1800 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  cfg.admission.demote_to_saved = false;
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.pressure.demoted_saved, std::size_t{0});
  EXPECT_EQ(report.pressure.demoted_cold, std::size_t{1});
  EXPECT_EQ(report.resumed_vms, std::size_t{2});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{1});
  EXPECT_EQ(report.recovery_count(rejuv::RecoveryAction::kDemoteToCold),
            std::size_t{1});
  for (auto& g : fx.guests) EXPECT_EQ(g->state(), guest::OsState::kRunning);
}

TEST(MemoryPressure, AbsurdBudgetDemotesEveryVmAndStillRecovers) {
  HostFixture fx(0, pressure_calib(10 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.pressure.demoted_saved, std::size_t{3});
  EXPECT_EQ(report.resumed_vms, std::size_t{0});
  EXPECT_EQ(report.restored_vms, std::size_t{3});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

TEST(MemoryPressure, CompactionPassRunsBeforeSuspendWhenRequested) {
  HostFixture fx(0, pressure_calib(3000 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  cfg.admission.compact_before_suspend = true;
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  // Admission ballooned pages out of the middle of the VMs' ranges, so
  // compaction has real holes to squeeze out.
  EXPECT_GT(report.pressure.compacted_frames, 0);
  EXPECT_GE(report.recovery_count(rejuv::RecoveryAction::kCompactionPass),
            std::size_t{1});
  EXPECT_EQ(report.resumed_vms, std::size_t{3});
  EXPECT_TRUE(fx.host->vmm().frame_conservation_report().ok());
}

// ----------------------------------------- admission-disabled hygiene

TEST(MemoryPressure, DisabledAdmissionDrawsNothingAndConsultsNothing) {
  HostFixture fx(0, pressure_calib(0));
  add_standard_vms(fx);
  const auto report = supervise(fx, {});
  EXPECT_TRUE(report.success);
  EXPECT_FALSE(report.pressure.consulted);
  EXPECT_EQ(report.resumed_vms, std::size_t{3});
  EXPECT_TRUE(report.recoveries.empty());
  // No faults configured, admission disabled: the pass must not have
  // touched the host RNG's fault substream at all.
  EXPECT_EQ(fx.host->faults().total_injected(), std::uint64_t{0});
  EXPECT_TRUE(fx.host->faults().schedule_fingerprint().empty());
}

TEST(MemoryPressure, PressuredPassWithZeroRatesDrawsNoFaults) {
  HostFixture fx(0, pressure_calib(1800 * sim::kMiB));
  add_standard_vms(fx);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.pressure.pressured);
  // roll() at rate 0 never draws: the whole ladder ran without touching
  // the fault substream.
  EXPECT_TRUE(fx.host->faults().schedule_fingerprint().empty());
}

// ----------------------------------------------------- new fault kinds

TEST(MemoryPressure, FrameAllocFailureLosesOnlyThatImage) {
  HostFixture fx(0, pressure_calib(0));
  add_standard_vms(fx);
  fault::FaultConfig faults;
  faults.frame_alloc_failure_rate = 1.0;
  fx.host->configure_faults(faults);
  const auto report = supervise(fx, {});
  EXPECT_TRUE(report.success);
  // Every suspend failed to allocate its image; every VM lost RAM state
  // and cold-booted, but the pass itself kept going.
  EXPECT_EQ(report.resumed_vms, std::size_t{0});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{3});
  EXPECT_EQ(report.recovery_count(rejuv::RecoveryAction::kPreservedImageLost),
            std::size_t{3});
  EXPECT_TRUE(fx.host->preserved().empty());
  for (auto& g : fx.guests) EXPECT_EQ(g->state(), guest::OsState::kRunning);
}

TEST(MemoryPressure, BudgetRejectionAtSuspendDegradesLikeALostImage) {
  // Admission disabled, budget far too small: the registry refuses the
  // images at suspend time, and the resume phase treats the VMs exactly
  // like the injected allocation failure -- per-VM cold boot, no crash.
  HostFixture fx(0, pressure_calib(10 * sim::kMiB));
  add_standard_vms(fx);
  const auto report = supervise(fx, {});
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.resumed_vms, std::size_t{0});
  EXPECT_EQ(report.recovery_count(rejuv::RecoveryAction::kPreservedImageLost),
            std::size_t{3});
  for (auto& g : fx.guests) EXPECT_EQ(g->state(), guest::OsState::kRunning);
}

TEST(MemoryPressure, BalloonReclaimFailureEscalatesToDemotion) {
  HostFixture fx(0, pressure_calib(3000 * sim::kMiB));
  add_standard_vms(fx);
  fault::FaultConfig faults;
  faults.balloon_reclaim_failure_rate = 1.0;
  fx.host->configure_faults(faults);
  rejuv::SupervisorConfig cfg;
  cfg.admission = enabled_admission();
  const auto report = supervise(fx, cfg);
  EXPECT_TRUE(report.success);
  // The planned reclaim would have covered the shortfall, but it failed;
  // the residual escalated into a demotion instead of a lost image.
  EXPECT_EQ(report.pressure.reclaimed_frames, 0);
  EXPECT_GE(report.pressure.demoted_saved, std::size_t{1});
  EXPECT_GE(report.recovery_count(rejuv::RecoveryAction::kBalloonReclaim),
            std::size_t{1});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

TEST(MemoryPressure, LeakedRegionsParkAsStaleAndEatTheBudget) {
  HostFixture fx(0, pressure_calib(0));
  add_standard_vms(fx);
  fault::FaultConfig faults;
  faults.image_corruption_rate = 1.0;      // every image rots...
  faults.preserved_region_leak_rate = 1.0; // ...and every discard leaks
  fx.host->configure_faults(faults);
  const auto report = supervise(fx, {});
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.cold_booted_vms, std::size_t{3});
  // The corrupt images could not be released: they survive as stale/*
  // records whose frames stay reserved against future budgets.
  std::size_t stale = 0;
  for (const auto& name : fx.host->preserved().names()) {
    if (name.rfind("stale/", 0) == 0) ++stale;
  }
  EXPECT_EQ(stale, std::size_t{3});
  EXPECT_GT(fx.host->preserved().reserved_frames(), 0);
  EXPECT_TRUE(fx.host->vmm().frame_conservation_report().ok());
  rejuv::AdmissionController ctl(*fx.host, {});
  EXPECT_LT(ctl.available_budget_frames() + fx.host->preserved().reserved_frames(),
            fx.host->vmm().allocator().total_frames());
}

// ------------------------------------- ballooned sibling + corruption

TEST(MemoryPressure, CorruptBalloonedVmColdBootsWhileBalloonedSiblingsResume) {
  HostFixture fx(0, pressure_calib(0));
  add_standard_vms(fx);
  // Partially balloon every VM (as an admission pass would).
  for (auto& g : fx.guests) {
    auto* d = fx.host->vmm().find_domain_by_name(g->name());
    ASSERT_NE(d, nullptr);
    mm::BalloonDriver balloon(d->id(), fx.host->vmm().allocator(), d->p2m());
    EXPECT_EQ(balloon.inflate(8192), 8192);
  }
  // Manual warm cycle so the corruption lands between suspend and reload.
  bool loaded = false;
  fx.host->vmm().xexec_load([&] { loaded = true; });
  run_until_flag(fx.sim, loaded);
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  fx.host->preserved().corrupt_payload("domain/vm1");
  bool down = false;
  fx.host->shutdown_dom0([&] { down = true; });
  run_until_flag(fx.sim, down);
  bool up = false;
  fx.host->quick_reload([&] { up = true; });
  run_until_flag(fx.sim, up);

  EXPECT_TRUE(fx.host->vmm().frame_conservation_report().ok());
  EXPECT_TRUE(fx.host->vmm().preserved_image_intact("vm0"));
  EXPECT_FALSE(fx.host->vmm().preserved_image_intact("vm1"));
  EXPECT_TRUE(fx.host->vmm().preserved_image_intact("vm2"));
  for (const char* name : {"vm0", "vm2"}) {
    guest::GuestOs* g = name == std::string("vm0") ? fx.guests[0].get()
                                                   : fx.guests[2].get();
    bool resumed = false;
    fx.host->vmm().resume_domain_on_memory(name, g,
                                           [&](DomainId) { resumed = true; });
    run_until_flag(fx.sim, resumed);
    EXPECT_TRUE(g->integrity_ok());
    // The balloon holes survived the round trip.
    EXPECT_EQ(fx.host->vmm().find_domain_by_name(name)->p2m().populated(),
              262144 - 8192);
  }
  // vm1 cold-boots alone.
  fx.guests[1]->force_power_off();
  bool booted = false;
  fx.guests[1]->create_and_boot([&] { booted = true; });
  run_until_flag(fx.sim, booted);
  EXPECT_EQ(fx.guests[1]->state(), guest::OsState::kRunning);
  EXPECT_TRUE(fx.host->vmm().frame_conservation_report().ok());
}

// ------------------------------------------- reduced-allocation boots

TEST(MemoryPressure, ReducedAllocationBootPopulatesOnlyTheWorkingSet) {
  HostFixture fx(0, pressure_calib(0));
  auto& g = add_overcommitted_vm(fx, "thin", 2 * sim::kGiB, sim::kGiB);
  const auto* d = fx.host->vmm().find_domain_by_name("thin");
  ASSERT_NE(d, nullptr);
  // P2M spans the nominal size; only the working set is populated.
  EXPECT_EQ(d->p2m().pfn_count(), 2 * sim::kGiB / sim::kPageSize);
  EXPECT_EQ(d->p2m().populated(), sim::kGiB / sim::kPageSize);
  EXPECT_TRUE(g.integrity_ok());
  // A save/restore round trip keeps the reduced allocation.
  bool saved = false;
  fx.host->vmm().save_domain_to_disk(g.domain_id(), fx.host->images(),
                                     [&] { saved = true; });
  run_until_flag(fx.sim, saved);
  bool restored = false;
  fx.host->vmm().restore_domain_from_disk("thin", fx.host->images(), &g,
                                          [&](DomainId) { restored = true; });
  run_until_flag(fx.sim, restored);
  const auto* d2 = fx.host->vmm().find_domain_by_name("thin");
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(d2->p2m().populated(), sim::kGiB / sim::kPageSize);
  EXPECT_TRUE(g.integrity_ok());
}

// ----------------------------------------------------------- cluster

TEST(MemoryPressure, BalancerStopsPlacingOnPressuredHostsButFallsBack) {
  sim::Simulation sim;
  vmm::Host host_a(sim, {}, 42);
  vmm::Host host_b(sim, {}, 43);
  host_a.instant_start();
  host_b.instant_start();
  cluster::ShardedBalancer balancer(1);
  std::vector<std::unique_ptr<guest::GuestOs>> guests;
  std::vector<guest::ApacheService*> apaches;
  for (vmm::Host* host : {&host_a, &host_b}) {
    const std::size_t host_index = host == &host_a ? 0 : 1;
    auto g = std::make_unique<guest::GuestOs>(
        *host, host == &host_a ? "web-a" : "web-b", sim::kGiB);
    g->add_service(std::make_unique<guest::ApacheService>());
    g->vfs().create_file("doc", sim::kMiB);
    bool up = false;
    g->create_and_boot([&up] { up = true; });
    run_until_flag(sim, up);
    auto* apache =
        static_cast<guest::ApacheService*>(g->find_service("httpd"));
    balancer.add_backend({g.get(), apache, {0}, host_index});
    apaches.push_back(apache);
    guests.push_back(std::move(g));
  }
  const auto serve_one = [&] {
    bool done = false, ok = false;
    balancer.dispatch(0, [&](bool served) {
      ok = served;
      done = true;
    });
    run_until_flag(sim, done);
    return ok;
  };
  // Unpressured: round-robin spreads over both hosts.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(serve_one());
  EXPECT_EQ(apaches[0]->requests_served(), 2);
  EXPECT_EQ(apaches[1]->requests_served(), 2);
  // Pressured host A stops receiving placements...
  balancer.set_host_pressured(0, true);
  EXPECT_EQ(balancer.pressured_backends(), std::size_t{1});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(serve_one());
  EXPECT_EQ(apaches[0]->requests_served(), 2);
  EXPECT_EQ(apaches[1]->requests_served(), 6);
  // ...but is a fallback, not an eviction: with host B down, traffic
  // returns to A instead of being rejected.
  guests[1]->force_power_off();
  EXPECT_TRUE(serve_one());
  EXPECT_EQ(apaches[0]->requests_served(), 3);
  EXPECT_EQ(balancer.rejected(), std::uint64_t{0});
  // Clearing the mark restores normal placement.
  balancer.set_host_pressured(0, false);
  EXPECT_EQ(balancer.pressured_backends(), std::size_t{0});
  EXPECT_TRUE(serve_one());
  EXPECT_EQ(apaches[0]->requests_served(), 4);
}

TEST(MemoryPressure, SupervisedRollingPassMarksPressuredHosts) {
  sim::Simulation sim;
  cluster::Cluster::Config cfg;
  cfg.hosts = 2;
  cfg.vms_per_host = 2;
  cfg.files_per_vm = 5;
  cfg.calib.preserved_frame_budget = 1536 * sim::kMiB / sim::kPageSize;
  cluster::Cluster cl(sim, cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  while (!ready && sim.pending_events() > 0) sim.step();
  ASSERT_TRUE(ready);

  cluster::Cluster::WaveConfig sup;
  sup.supervisor.admission.enabled = true;
  bool done = false;
  cluster::Cluster::WaveReport report;
  cl.rolling_rejuvenation_waves(
      sup, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done && sim.pending_events() > 0) sim.step();
  ASSERT_TRUE(done);
  // Both hosts completed their turn (degraded, not evicted)...
  EXPECT_TRUE(report.fully_recovered());
  EXPECT_TRUE(report.retries.empty());
  ASSERT_EQ(report.waves.size(), std::size_t{2});
  for (const auto& wave : report.waves) {
    for (const auto& turn : wave.outcomes) {
      EXPECT_TRUE(turn.success);
      EXPECT_TRUE(turn.pressure.pressured);
    }
  }
  // ...and both are marked pressured: still in service as a fallback,
  // but no longer preferred for new placements.
  EXPECT_EQ(report.pressured_hosts, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(cl.sharded_balancer()->pressured_backends(), std::size_t{4});
  EXPECT_EQ(cl.sharded_balancer()->evicted_backends(), std::size_t{0});
  for (int h = 0; h < cfg.hosts; ++h) {
    for (auto* os : cl.guests_of(h)) {
      EXPECT_TRUE(os->service_reachable(
          *static_cast<guest::ApacheService*>(os->find_service("httpd"))));
    }
  }
}

// ---------------------------------------------------------- determinism

/// One replication of a pressured, faulty supervised pass exercising all
/// three new fault kinds, reduced to scalars (same scheme as
/// test_failure_injection.cpp).
exp::ReplicationResult pressured_pass_body(const exp::ReplicationContext& ctx) {
  sim::Simulation sim;
  vmm::Host host(sim, pressure_calib(1900 * sim::kMiB), ctx.seed);
  host.instant_start();
  std::vector<std::unique_ptr<guest::GuestOs>> guests;
  std::vector<guest::GuestOs*> ptrs;
  for (int i = 0; i < 3; ++i) {
    guests.push_back(std::make_unique<guest::GuestOs>(
        host, "vm" + std::to_string(i), 2 * sim::kGiB));
    guests.back()->add_service(std::make_unique<guest::SshService>());
    guests.back()->set_boot_allocation(sim::kGiB);
    bool up = false;
    guests.back()->create_and_boot([&up] { up = true; });
    sim.run_until(sim.now() + sim::kHour);
    EXPECT_TRUE(up);
    ptrs.push_back(guests.back().get());
  }
  fault::FaultConfig faults;
  faults.preserved_region_leak_rate = 0.6;
  faults.frame_alloc_failure_rate = 0.4;
  faults.balloon_reclaim_failure_rate = 0.6;
  faults.image_corruption_rate = 0.4;  // feeds the leak's discard path
  host.configure_faults(faults);
  rejuv::SupervisorConfig cfg;
  cfg.admission.enabled = true;
  rejuv::Supervisor sup(host, ptrs, cfg);
  bool done = false;
  sup.run([&done](const rejuv::SupervisorReport&) { done = true; });
  const sim::SimTime deadline = sim.now() + 12 * sim::kHour;
  while (!done && sim.pending_events() > 0 && sim.now() < deadline) {
    sim.step();
  }
  EXPECT_TRUE(done);

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
                static_cast<double>(r.restored_vms),
                static_cast<double>(r.cold_booted_vms),
                static_cast<double>(r.pressure.reclaimed_frames),
                static_cast<double>(r.pressure.demoted_saved +
                                    r.pressure.demoted_cold)};
  return out;
}

TEST(MemoryPressure, NewFaultKindsAreByteIdenticalAcrossRunnerThreads) {
  exp::GridSpec spec;
  spec.points = 2;
  spec.replications = 3;
  spec.root_seed = 11;
  spec.threads = 1;
  const auto serial = exp::run_grid(spec, pressured_pass_body);
  spec.threads = 4;
  const auto parallel = exp::run_grid(spec, pressured_pass_body);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    const auto& a = serial.point(p);
    const auto& b = parallel.point(p);
    ASSERT_EQ(a.metrics().size(), b.metrics().size());
    for (std::size_t m = 0; m < a.metrics().size(); ++m) {
      EXPECT_EQ(a.mean(m), b.mean(m)) << "point " << p << " metric " << m;
      EXPECT_EQ(a.ci95(m), b.ci95(m)) << "point " << p << " metric " << m;
    }
  }
  // The new kinds actually fired, or this proves nothing.
  double injected = 0;
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    injected += serial.point(p).mean(2);
  }
  EXPECT_GT(injected, 0.0);
}

}  // namespace
}  // namespace rh::test
