#include "rejuv/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "mm/balloon.hpp"
#include "simcore/check.hpp"

namespace rh::rejuv {

const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kStepRetry: return "step-retry";
    case RecoveryAction::kWatchdogPowerOff: return "watchdog-power-off";
    case RecoveryAction::kFallbackToSaved: return "fallback-to-saved";
    case RecoveryAction::kFallbackToCold: return "fallback-to-cold";
    case RecoveryAction::kColdBootSingleVm: return "cold-boot-single-vm";
    case RecoveryAction::kHardwareRebootAfterCrash:
      return "hardware-reboot-after-crash";
    case RecoveryAction::kGaveUp: return "gave-up";
    case RecoveryAction::kBalloonReclaim: return "balloon-reclaim";
    case RecoveryAction::kCompactionPass: return "compaction-pass";
    case RecoveryAction::kDemoteToSaved: return "demote-to-saved";
    case RecoveryAction::kDemoteToCold: return "demote-to-cold";
    case RecoveryAction::kPreservedImageLost: return "preserved-image-lost";
    case RecoveryAction::kMicroRecoveryAttempt: return "micro-recovery-attempt";
    case RecoveryAction::kMicroRecoverySucceeded:
      return "micro-recovery-succeeded";
    case RecoveryAction::kMicroRecoveryFailed: return "micro-recovery-failed";
    case RecoveryAction::kMicroRecoveryMetadataCorrupt:
      return "micro-recovery-metadata-corrupt";
  }
  return "unknown";
}

std::size_t SupervisorReport::recovery_count(RecoveryAction a) const {
  std::size_t n = 0;
  for (const auto& r : recoveries) {
    if (r.action == a) ++n;
  }
  return n;
}

Supervisor::Supervisor(vmm::Host& host, std::vector<guest::GuestOs*> guests,
                       SupervisorConfig config)
    : host_(host), guests_(std::move(guests)), config_(config) {
  ensure(config_.max_step_retries >= 0, "Supervisor: negative retry count");
  ensure(config_.backoff_base > 0 && config_.backoff_cap >= config_.backoff_base,
         "Supervisor: backoff cap must be >= base > 0");
  ensure(config_.boot_watchdog > 0, "Supervisor: watchdog must be positive");
  ensure(config_.hang_detection >= 0, "Supervisor: negative hang detection");
  if (config_.micro.enabled) {
    ensure(config_.micro.max_attempts >= 1,
           "Supervisor: micro-recovery needs at least one attempt");
    ensure(config_.micro.success_rate >= 0.0 &&
               config_.micro.success_rate <= 1.0,
           "Supervisor: micro-recovery success rate out of [0, 1]");
    ensure(config_.micro.attempt_base >= 0,
           "Supervisor: negative micro-recovery attempt base");
  }
  for (const auto* g : guests_) ensure(g != nullptr, "Supervisor: null guest");
}

void Supervisor::record(RecoveryAction action, const std::string& subject,
                        const std::string& detail) {
  report_.recoveries.push_back({action, host_.sim().now(), subject, detail});
  // Mirror the typed RecoveryEvent into the trace stream and bump the
  // per-action counter that the availability sweeps aggregate.
  obs::Observer& obs = host_.obs();
  if (obs.enabled()) {
    obs.emit(host_.sim().now(), obs::Category::kSupervisor,
             obs::EventKind::kRecovery, to_string(action), -1,
             static_cast<std::uint64_t>(action));
    ++obs.metrics().counter(std::string("supervisor.recovery.") +
                            to_string(action));
  }
}

void Supervisor::open_rung(const char* label) {
  obs::Observer& obs = host_.obs();
  if (!obs.enabled()) return;
  if (rung_span_ != obs::kNoSpan) {
    obs.span_close(rung_span_, host_.sim().now());
  }
  rung_span_ = obs.span_open_under(host_.sim().now(), obs::Phase::kLadderRung,
                                   label, pass_span_);
  obs.set_ambient(rung_span_);
}

sim::Duration Supervisor::backoff(int attempt) {
  double d = static_cast<double>(config_.backoff_base) *
             std::ldexp(1.0, attempt);
  d = std::min(d, static_cast<double>(config_.backoff_cap));
  if (config_.backoff_jitter > 0.0) {
    const double u = host_.rng().uniform01();
    d *= 1.0 + config_.backoff_jitter * (2.0 * u - 1.0);
  }
  return std::max<sim::Duration>(1, static_cast<sim::Duration>(d));
}

Supervisor::GuestList Supervisor::suspendable_guests() const {
  GuestList out;
  for (auto* g : guests_) {
    if (!g->driver_domain()) out.push_back(g);
  }
  return out;
}

Supervisor::GuestList Supervisor::driver_domain_guests() const {
  GuestList out;
  for (auto* g : guests_) {
    if (g->driver_domain()) out.push_back(g);
  }
  return out;
}

void Supervisor::for_each_parallel(
    const GuestList& guests,
    const std::function<void(guest::GuestOs&, std::function<void()>)>& fn,
    std::function<void()> done) {
  if (guests.empty()) {
    host_.sim().after(0, std::move(done));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(guests.size());
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  for (auto* g : guests) {
    fn(*g, [remaining, shared_done] {
      if (--*remaining == 0) (*shared_done)();
    });
  }
}

void Supervisor::run(std::function<void(const SupervisorReport&)> done) {
  ensure(static_cast<bool>(done), "Supervisor::run: callback required");
  ensure(!started_, "Supervisor::run: supervisors are one-shot");
  ensure(host_.up(), "Supervisor::run: host is not up");
  host_.begin_recovery();
  started_ = true;
  done_ = std::move(done);
  report_.attempted = config_.preferred;
  report_.started_at = host_.sim().now();
  if (host_.obs().enabled()) {
    outer_ambient_ = host_.obs().ambient();
    pass_span_ = host_.obs().span_open(
        report_.started_at, obs::Phase::kPass,
        std::string("supervised ") + to_string(config_.preferred));
    host_.obs().set_ambient(pass_span_);
  }

  // Aging can win the race against the rejuvenation timer: the VMM dies
  // right as (or before) the pass begins, taking every domain with it.
  // This is the quiescent point -- no mechanism is mid-flight -- so the
  // crash tears down state without leaving dangling continuations.
  if (host_.faults().roll(fault::FaultKind::kVmmCrash, host_.sim().now(),
                          "pre-rejuvenation")) {
    handle_vmm_failure(fault::FaultKind::kVmmCrash);
    return;
  }
  // A wedge instead of a clean crash: same quiescent point, but the
  // response only starts once the external watchdog notices. Zero draws
  // when the hang rate is not configured.
  if (host_.faults().roll(fault::FaultKind::kVmmHang, host_.sim().now(),
                          "pre-rejuvenation")) {
    handle_vmm_failure(fault::FaultKind::kVmmHang);
    return;
  }

  switch (config_.preferred) {
    case RebootKind::kWarm: start_warm(); return;
    case RebootKind::kSaved: start_saved(); return;
    case RebootKind::kCold: start_cold(); return;
  }
  throw InvariantViolation("Supervisor::run: bad reboot kind");
}

void Supervisor::recover(std::function<void(const SupervisorReport&)> done) {
  ensure(static_cast<bool>(done), "Supervisor::recover: callback required");
  ensure(!started_, "Supervisor::recover: supervisors are one-shot");
  ensure(host_.up(), "Supervisor::recover: host is not up");
  host_.begin_recovery();
  started_ = true;
  done_ = std::move(done);
  report_.attempted = config_.preferred;
  report_.started_at = host_.sim().now();
  GuestList halted;
  for (auto* g : guests_) {
    if (g->state() == guest::OsState::kHalted) halted.push_back(g);
  }
  if (host_.obs().enabled()) {
    outer_ambient_ = host_.obs().ambient();
    pass_span_ = host_.obs().span_open(report_.started_at, obs::Phase::kPass,
                                       "supervised recovery");
    host_.obs().set_ambient(pass_span_);
  }
  boot_cold(halted, [this] { finish(config_.preferred); });
}

// ----------------------------------------------------------- VMM failure

void Supervisor::respond_to_failure(
    fault::FaultKind kind, std::function<void(const SupervisorReport&)> done) {
  ensure(static_cast<bool>(done),
         "Supervisor::respond_to_failure: callback required");
  ensure(!started_, "Supervisor::respond_to_failure: supervisors are one-shot");
  ensure(host_.up(), "Supervisor::respond_to_failure: host is not up");
  ensure(kind == fault::FaultKind::kVmmCrash ||
             kind == fault::FaultKind::kVmmHang,
         "Supervisor::respond_to_failure: not a VMM failure kind");
  host_.begin_recovery();
  started_ = true;
  done_ = std::move(done);
  report_.attempted = config_.preferred;
  report_.started_at = host_.sim().now();
  if (host_.obs().enabled()) {
    outer_ambient_ = host_.obs().ambient();
    pass_span_ = host_.obs().span_open(
        report_.started_at, obs::Phase::kPass,
        std::string("failure response (") + fault::to_string(kind) + ")");
    host_.obs().set_ambient(pass_span_);
  }
  handle_vmm_failure(kind);
}

void Supervisor::handle_vmm_failure(fault::FaultKind kind) {
  report_.vmm_crashed = true;
  auto proceed = [this, kind] {
    if (config_.micro.enabled) {
      start_micro(kind);
    } else {
      crash_fallback(kind, /*micro_exhausted=*/false);
    }
  };
  if (kind == fault::FaultKind::kVmmHang) {
    // A crash announces itself instantly; a wedged hypervisor is only
    // visible once the external watchdog fires, so the response starts
    // after the detection latency (the teardown is modelled at the
    // detection point).
    host_.sim().after(host_.jittered(config_.hang_detection),
                      std::move(proceed));
    return;
  }
  proceed();
}

void Supervisor::crash_fallback(fault::FaultKind kind, bool micro_exhausted) {
  open_rung("hardware-reboot-after-crash");
  if (micro_exhausted) {
    // Micro-recovery gave up; whatever preserved state the attempts were
    // working over is abandoned before the power cycle.
    host_.abandon_recovery();
  } else {
    host_.crash_vmm();
  }
  // Every domain died with the hypervisor; the guest objects must observe
  // that before they can be cold-booted.
  for (auto* g : guests_) g->force_power_off();
  const char* detail =
      micro_exhausted
          ? "micro-recovery exhausted; hardware reboot and cold boot of "
            "every VM"
          : (kind == fault::FaultKind::kVmmHang
                 ? "VMM hang detected by the watchdog; hardware reboot and "
                   "cold boot of every VM"
                 : "VMM crashed before rejuvenation could run; hardware "
                   "reboot and cold boot of every VM");
  record(RecoveryAction::kHardwareRebootAfterCrash, "vmm", detail);
  host_.hardware_reboot([this] {
    boot_cold(guests_, [this] { finish(RebootKind::kCold); });
  });
}

// -------------------------------- in-place micro-recovery (DESIGN.md §13)

sim::Bytes Supervisor::micro_repair_bytes() const {
  // The rebuild walks every crash snapshot (to re-link P2M and event-
  // channel state into the new instance) plus per-domain heap metadata.
  sim::Bytes total = 0;
  for (const auto& name : host_.preserved().names()) {
    if (name.rfind(vmm::Vmm::kRegionPrefix, 0) != 0) continue;
    if (const auto* region = host_.preserved().find(name)) {
      total += static_cast<sim::Bytes>(region->payload.size()) +
               vmm::Vmm::kDomainHeapCost;
    }
  }
  return total;
}

void Supervisor::start_micro(fault::FaultKind kind) {
  open_rung("micro-recovery");
  // Cut crash snapshots and take the instance down; RAM (and with it the
  // registry) survives for the rebuild.
  host_.fail_vmm(kind);
  // The vCPUs stopped cold under every guest. Memory-preserved guests are
  // frozen in place for a later resume; driver domains lose their backend
  // hardware state with the instance, so they go down for a cold boot
  // exactly as on the warm rung.
  for (auto* g : guests_) {
    if (!g->driver_domain() && g->state() == guest::OsState::kRunning) {
      g->interrupt_for_vmm_failure();
    } else {
      g->force_power_off();
    }
  }
  micro_attempt(kind, 0);
}

void Supervisor::micro_attempt(fault::FaultKind kind, int attempt) {
  ++report_.micro_attempts;
  record(RecoveryAction::kMicroRecoveryAttempt, "vmm",
         "in-place rebuild attempt " + std::to_string(attempt + 1) + " of " +
             std::to_string(config_.micro.max_attempts));
  const sim::Duration repair =
      config_.micro.attempt_base +
      sim::transfer_time(micro_repair_bytes(), host_.calib().mem_copy_bps);
  const obs::SpanId span =
      host_.obs().span_open(host_.sim().now(), obs::Phase::kMicroRecovery,
                            "micro-recovery attempt");
  host_.sim().after(host_.jittered(repair), [this, kind, attempt, span] {
    host_.obs().span_close(span, host_.sim().now());
    if (host_.rng().uniform01() >= config_.micro.success_rate) {
      record(RecoveryAction::kMicroRecoveryFailed, "vmm",
             "heap/domain-metadata rebuild failed (attempt " +
                 std::to_string(attempt + 1) + ")");
      if (attempt + 1 < config_.micro.max_attempts) {
        micro_attempt(kind, attempt + 1);
      } else {
        crash_fallback(kind, /*micro_exhausted=*/true);
      }
      return;
    }
    const vmm::Vmm::MicroRecoveryReport vr = host_.micro_recover_vmm();
    if (!vr.ok()) {
      record(RecoveryAction::kMicroRecoveryMetadataCorrupt, "vmm",
             "rebuilt state unusable (" +
                 std::to_string(vr.corrupt_domains.size()) +
                 " corrupt snapshot(s), frames " +
                 (vr.frames_consistent ? "consistent" : "inconsistent") +
                 "); falling to hardware reboot");
      crash_fallback(kind, /*micro_exhausted=*/true);
      return;
    }
    record(RecoveryAction::kMicroRecoverySucceeded, "vmm",
           "VMM rebuilt in place; " + std::to_string(vr.intact_regions) +
               " of " + std::to_string(vr.regions_checked) +
               " crash snapshot(s) intact");
    report_.micro_recovered = true;
    micro_resume_phase();
  });
}

void Supervisor::micro_resume_phase() {
  sweep_stale_regions();
  // Driver domains never resume over a rebuilt VMM; their crash snapshots
  // are dead weight in the registry.
  for (auto* g : driver_domain_guests()) {
    if (host_.vmm().has_preserved_image(g->name())) {
      discard_preserved_image(g->name());
    }
  }
  // Same per-VM ladder as the warm resume: a missing or corrupt snapshot
  // degrades that VM alone to a cold boot while its siblings resume.
  GuestList intact;
  for (auto* g : suspendable_guests()) {
    if (g->state() != guest::OsState::kSuspended) continue;
    if (!host_.vmm().has_preserved_image(g->name())) {
      record(RecoveryAction::kPreservedImageLost, g->name(),
             "no crash snapshot survived the failure; cold-booting this VM "
             "only");
      g->force_power_off();
      cold_list_.push_back(g);
    } else if (host_.vmm().preserved_image_intact(g->name())) {
      intact.push_back(g);
    } else {
      record(RecoveryAction::kColdBootSingleVm, g->name(),
             "crash snapshot failed its checksum; cold-booting this VM "
             "only");
      discard_preserved_image(g->name());
      g->force_power_off();
      cold_list_.push_back(g);
    }
  }
  const int count = static_cast<int>(intact.size());
  const obs::SpanId resume = host_.obs().span_open(
      host_.sim().now(), obs::Phase::kResume, "micro-recovery resume");
  for_each_parallel(
      intact,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().resume_domain_on_memory(
            g.name(), &g,
            [guest_done = std::move(guest_done)](DomainId) { guest_done(); });
      },
      [this, count, resume] {
        host_.note_simultaneous_creations(count);
        report_.resumed_vms = static_cast<std::size_t>(count);
        host_.obs().span_close(resume, host_.sim().now());
        GuestList to_boot = cold_list_;
        const GuestList drivers = driver_domain_guests();
        to_boot.insert(to_boot.end(), drivers.begin(), drivers.end());
        boot_cold(to_boot, [this] { finish(RebootKind::kWarm); });
      });
}

// ------------------------------------------------------------------ warm

void Supervisor::start_warm() {
  open_rung("warm-VM reboot");
  attempt_xexec(0);
}

void Supervisor::attempt_xexec(int attempt) {
  const obs::SpanId load = host_.obs().span_open(
      host_.sim().now(), obs::Phase::kXexecLoad, "xexec load");
  host_.vmm().xexec_load([this, load, attempt] {
    host_.obs().span_close(load, host_.sim().now());
    if (host_.vmm().xexec_loaded()) {
      warm_after_xexec();
      return;
    }
    if (attempt < config_.max_step_retries) {
      record(RecoveryAction::kStepRetry, "xexec",
             "image load failed (attempt " + std::to_string(attempt + 1) +
                 "); retrying after backoff");
      host_.sim().after(backoff(attempt),
                        [this, attempt] { attempt_xexec(attempt + 1); });
      return;
    }
    // Nothing has been disturbed yet -- every guest still answers -- so
    // degrading to the saved-VM reboot is a clean restart of the ladder.
    record(RecoveryAction::kFallbackToSaved, "xexec",
           "image load failed " + std::to_string(attempt + 1) +
               " times; degrading to saved-VM reboot");
    start_saved();
  });
}

void Supervisor::warm_after_xexec() {
  auto proceed = [this] {
    auto after_drivers = [this] {
      if (host_.calib().suspend_by_vmm_after_dom0_shutdown) {
        host_.shutdown_dom0([this] {
          const obs::SpanId susp = host_.obs().span_open(
              host_.sim().now(), obs::Phase::kSuspend, "on-memory suspend");
          host_.vmm().suspend_all_on_memory([this, susp] {
            host_.obs().span_close(susp, host_.sim().now());
            host_.quick_reload([this] { warm_resume_phase(); });
          });
        });
      } else {
        const obs::SpanId susp = host_.obs().span_open(
            host_.sim().now(), obs::Phase::kSuspend, "on-memory suspend");
        host_.vmm().suspend_all_on_memory([this, susp] {
          host_.obs().span_close(susp, host_.sim().now());
          host_.shutdown_dom0([this] {
            host_.quick_reload([this] { warm_resume_phase(); });
          });
        });
      }
    };
    const GuestList drivers = driver_domain_guests();
    if (drivers.empty()) {
      after_drivers();
      return;
    }
    for_each_parallel(
        drivers,
        [](guest::GuestOs& g, std::function<void()> guest_done) {
          g.shutdown(std::move(guest_done));
        },
        std::move(after_drivers));
  };
  // Preserved-memory admission happens before anything is disturbed:
  // reclaims and demotions need xend (and for saves, the disk path)
  // while dom0 is still up. Disabled admission takes the historical path
  // verbatim -- no extra events, no extra RNG draws.
  if (config_.admission.enabled) {
    run_admission(std::move(proceed));
  } else {
    proceed();
  }
}

// ------------------------------------------- preserved-memory admission

std::int64_t Supervisor::escalate_demotion(AdmissionPlan& plan) {
  if (plan.warm.empty()) return 0;
  auto [g, demand] = plan.warm.front();
  plan.warm.erase(plan.warm.begin());
  const bool saved_allowed =
      config_.admission.demote_to_saved &&
      (config_.admission.max_saved_demotions < 0 ||
       static_cast<int>(plan.demote_saved.size()) <
           config_.admission.max_saved_demotions);
  (saved_allowed ? plan.demote_saved : plan.demote_cold).push_back(g);
  return demand;
}

void Supervisor::run_admission(std::function<void()> done) {
  if (host_.obs().enabled()) {
    const obs::SpanId adm = host_.obs().span_open(
        host_.sim().now(), obs::Phase::kAdmission, "admission");
    done = [this, adm, inner = std::move(done)] {
      host_.obs().span_close(adm, host_.sim().now());
      inner();
    };
  }
  AdmissionController controller(host_, config_.admission);
  AdmissionPlan plan = controller.plan(suspendable_guests());
  report_.pressure.consulted = true;
  report_.pressure.budget_frames = plan.budget_frames;
  report_.pressure.demand_frames = plan.demand_frames;
  report_.pressure.pressured = plan.pressured();

  // Rung 1: execute the planned balloon reclaims. An injected reclaim
  // failure (or a short inflate) leaves a residual shortfall that
  // escalates into further demotions, largest surviving warm VM first.
  std::int64_t residual = 0;
  for (const auto& r : plan.reclaims) {
    if (host_.faults().roll(fault::FaultKind::kBalloonReclaimFailure,
                            host_.sim().now(),
                            "admission:" + r.guest->name())) {
      record(RecoveryAction::kBalloonReclaim, r.guest->name(),
             "balloon reclaim FAILED (injected); 0 of " +
                 std::to_string(r.frames) + " frames reclaimed");
      residual += r.frames;
      continue;
    }
    auto* d = host_.vmm().find_domain_by_name(r.guest->name());
    ensure(d != nullptr, "run_admission: reclaim target has no domain");
    mm::BalloonDriver balloon(d->id(), host_.vmm().allocator(), d->p2m());
    const std::int64_t got = balloon.inflate(r.frames);
    report_.pressure.reclaimed_frames += got;
    residual += r.frames - got;
    record(RecoveryAction::kBalloonReclaim, r.guest->name(),
           "ballooned out " + std::to_string(got) + " of " +
               std::to_string(r.frames) + " frames for admission");
  }
  while (residual > 0) {
    const std::int64_t freed = escalate_demotion(plan);
    if (freed == 0) break;  // nothing left to demote; suspend will shed
    residual -= freed;
  }

  auto execute_demotions = [this, done = std::move(done)]() mutable {
    for_each_parallel(
        admit_saved_,
        [this](guest::GuestOs& g, std::function<void()> guest_done) {
          host_.vmm().save_domain_to_disk(
              g.domain_id(), host_.images(),
              [this, &g, guest_done = std::move(guest_done)] {
                if (host_.images().find(g.name()) == nullptr) {
                  record(RecoveryAction::kFallbackToCold, g.name(),
                         "demotion save lost to a disk write error; VM "
                         "will cold boot");
                  g.force_power_off();
                  cold_list_.push_back(&g);
                }
                guest_done();
              });
        },
        [this, done = std::move(done)]() mutable {
          for_each_parallel(
              admit_cold_,
              [this](guest::GuestOs& g, std::function<void()> guest_done) {
                g.shutdown(std::move(guest_done));
              },
              std::move(done));
        });
  };

  report_.pressure.demoted_saved = plan.demote_saved.size();
  report_.pressure.demoted_cold = plan.demote_cold.size();
  admit_saved_ = plan.demote_saved;
  admit_cold_ = plan.demote_cold;
  for (auto* g : admit_saved_) {
    record(RecoveryAction::kDemoteToSaved, g->name(),
           "preserved-memory shortfall; this VM takes the disk path while "
           "its siblings stay warm");
  }
  for (auto* g : admit_cold_) {
    record(RecoveryAction::kDemoteToCold, g->name(),
           "preserved-memory shortfall; this VM cold boots while its "
           "siblings stay warm");
    cold_list_.push_back(g);
  }

  if (config_.admission.compact_before_suspend) {
    const std::int64_t moved = host_.vmm().compact_memory();
    report_.pressure.compacted_frames = moved;
    const auto copy_time = sim::transfer_time(moved * sim::kPageSize,
                                              host_.calib().mem_copy_bps);
    if (moved > 0) {
      record(RecoveryAction::kCompactionPass, "vmm",
             "compacted " + std::to_string(moved) +
                 " frames before suspend so frozen images and reload "
                 "metadata sit in contiguous runs");
    }
    host_.sim().after(copy_time, std::move(execute_demotions));
  } else {
    execute_demotions();
  }
}

void Supervisor::sweep_stale_regions() {
  std::vector<std::string> stale;
  for (const auto& name : host_.preserved().names()) {
    if (name.rfind("stale/", 0) == 0) stale.push_back(name);
  }
  for (const auto& name : stale) {
    if (host_.faults().roll(fault::FaultKind::kPreservedRegionLeak,
                            host_.sim().now(), "sweep:" + name)) {
      host_.obs().emit(host_.sim().now(), obs::Category::kSupervisor,
                       obs::EventKind::kFaultInjected, "stale region kept",
                       -1,
                       static_cast<std::uint64_t>(
                           fault::FaultKind::kPreservedRegionLeak));
      continue;
    }
    discard_region(name);
    host_.obs().emit(host_.sim().now(), obs::Category::kSupervisor,
                     obs::EventKind::kMark, "released stale region");
  }
}

void Supervisor::discard_region(const std::string& region_name) {
  if (const auto* region = host_.preserved().find(region_name)) {
    // The incoming VMM re-reserved the region's frozen frames; give them
    // back so replacement boots can use the memory.
    host_.vmm().allocator().release_owned(kVmmOwner, region->frozen_frames);
  }
  host_.preserved().erase(region_name);
}

void Supervisor::discard_preserved_image(const std::string& guest_name) {
  const std::string region_name =
      std::string(vmm::Vmm::kRegionPrefix) + guest_name;
  const auto* region = host_.preserved().find(region_name);
  if (region != nullptr &&
      host_.faults().roll(fault::FaultKind::kPreservedRegionLeak,
                          host_.sim().now(), "discard:" + guest_name)) {
    // The release is lost: the frames stay reserved and the record keeps
    // eating the preserved-frame budget until a later sweep gets to it.
    // Renaming frees the canonical slot so the guest's next suspend can
    // record a fresh image.
    mm::PreservedRegion stale;
    stale.name =
        "stale/" + guest_name + "#" + std::to_string(host_.sim().now());
    stale.payload = region->payload;
    stale.frozen_frames = region->frozen_frames;
    host_.preserved().erase(region_name);
    host_.preserved().put(std::move(stale));
    host_.obs().emit(host_.sim().now(), obs::Category::kSupervisor,
                     obs::EventKind::kFaultInjected, "preserved region leaked",
                     -1,
                     static_cast<std::uint64_t>(
                         fault::FaultKind::kPreservedRegionLeak));
    return;
  }
  discard_region(region_name);
}

void Supervisor::warm_resume_phase() {
  // The reload rebuilt frame ownership from the registry; catch a
  // double-owned or dropped frame here, before any guest touches its
  // memory again.
  ensure(host_.vmm().frame_conservation_report().ok(),
         "Supervisor: frame conservation violated after quick reload");
  sweep_stale_regions();

  // Verify every preserved image before resuming anything: a checksum
  // mismatch means that VM's image rotted in RAM, and resuming it would
  // hand the guest corrupted state. The ladder for that VM alone is a
  // fresh cold boot; its siblings still get the fast on-memory resume.
  GuestList intact;
  const auto demoted = [this](guest::GuestOs* g) {
    return std::find(admit_saved_.begin(), admit_saved_.end(), g) !=
               admit_saved_.end() ||
           std::find(admit_cold_.begin(), admit_cold_.end(), g) !=
               admit_cold_.end();
  };
  for (auto* g : suspendable_guests()) {
    if (demoted(g)) continue;  // takes the disk or cold path below
    if (!host_.vmm().has_preserved_image(g->name())) {
      // The suspend never recorded an image (injected allocation failure
      // or a budget rejection): this VM's RAM state is gone, but only
      // this VM's.
      record(RecoveryAction::kPreservedImageLost, g->name(),
             "no preserved image survived the reload; cold-booting this "
             "VM only");
      g->force_power_off();
      cold_list_.push_back(g);
    } else if (host_.vmm().preserved_image_intact(g->name())) {
      intact.push_back(g);
    } else {
      record(RecoveryAction::kColdBootSingleVm, g->name(),
             "preserved image failed its checksum; cold-booting this VM "
             "only");
      discard_preserved_image(g->name());
      g->force_power_off();
      cold_list_.push_back(g);
    }
  }
  const int count = static_cast<int>(intact.size());
  const obs::SpanId resume = host_.obs().span_open(
      host_.sim().now(), obs::Phase::kResume, "on-memory resume");
  for_each_parallel(
      intact,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().resume_domain_on_memory(
            g.name(), &g,
            [guest_done = std::move(guest_done)](DomainId) { guest_done(); });
      },
      [this, count, resume] {
        host_.note_simultaneous_creations(count);
        report_.resumed_vms = static_cast<std::size_t>(count);
        host_.obs().span_close(resume, host_.sim().now());
        warm_restore_demoted();
      });
}

void Supervisor::warm_restore_demoted() {
  GuestList to_restore;
  for (auto* g : admit_saved_) {
    if (host_.images().find(g->name()) != nullptr) to_restore.push_back(g);
  }
  auto boot_rest = [this] {
    GuestList to_boot = cold_list_;
    const GuestList drivers = driver_domain_guests();
    to_boot.insert(to_boot.end(), drivers.begin(), drivers.end());
    boot_cold(to_boot, [this] { finish(RebootKind::kWarm); });
  };
  if (to_restore.empty()) {
    // Nothing took the disk path (in particular: admission disabled). Go
    // straight to the cold boots -- no extra event, the exact schedule
    // from before admission existed.
    boot_rest();
    return;
  }
  const obs::SpanId restore = host_.obs().span_open(
      host_.sim().now(), obs::Phase::kRestore, "restore demoted");
  for_each_parallel(
      to_restore,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().restore_domain_from_disk(
            g.name(), host_.images(), &g,
            [this, &g, guest_done = std::move(guest_done)](DomainId id) {
              if (id == kNoDomain) {
                record(RecoveryAction::kFallbackToCold, g.name(),
                       "demotion restore failed with a disk read error; VM "
                       "will cold boot");
                g.force_power_off();
                cold_list_.push_back(&g);
              } else {
                ++report_.restored_vms;
              }
              guest_done();
            });
      },
      [this, restore, boot_rest = std::move(boot_rest)] {
        host_.obs().span_close(restore, host_.sim().now());
        boot_rest();
      });
}

// ----------------------------------------------------------------- saved

void Supervisor::start_saved() {
  // Reached either as the preferred mechanism or as the fallback from a
  // failed warm attempt; in both cases every guest is still running.
  open_rung("saved-VM reboot");
  const obs::SpanId save = host_.obs().span_open(
      host_.sim().now(), obs::Phase::kSaveToDisk, "save VMs to disk");
  for_each_parallel(
      suspendable_guests(),
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().save_domain_to_disk(
            g.domain_id(), host_.images(),
            [this, &g, guest_done = std::move(guest_done)] {
              if (host_.images().find(g.name()) == nullptr) {
                // The write failed after the domain was torn down: the
                // VM's state is gone. Next rung: cold boot that VM.
                record(RecoveryAction::kFallbackToCold, g.name(),
                       "saved image lost to a disk write error; VM will "
                       "cold boot");
                g.force_power_off();
                cold_list_.push_back(&g);
              }
              guest_done();
            });
      },
      [this, save] {
        host_.obs().span_close(save, host_.sim().now());
        for_each_parallel(
            driver_domain_guests(),
            [](guest::GuestOs& g, std::function<void()> guest_done) {
              g.shutdown(std::move(guest_done));
            },
            [this] {
              host_.shutdown_dom0([this] {
                host_.hardware_reboot([this] { saved_restore_phase(); });
              });
            });
      });
}

void Supervisor::saved_restore_phase() {
  GuestList to_restore;
  for (auto* g : suspendable_guests()) {
    if (host_.images().find(g->name()) != nullptr) to_restore.push_back(g);
  }
  const obs::SpanId restore = host_.obs().span_open(
      host_.sim().now(), obs::Phase::kRestore, "restore VMs from disk");
  for_each_parallel(
      to_restore,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().restore_domain_from_disk(
            g.name(), host_.images(), &g,
            [this, &g, guest_done = std::move(guest_done)](DomainId id) {
              if (id == kNoDomain) {
                record(RecoveryAction::kFallbackToCold, g.name(),
                       "restore failed with a disk read error; VM will "
                       "cold boot");
                g.force_power_off();
                cold_list_.push_back(&g);
              } else {
                ++report_.restored_vms;
              }
              guest_done();
            });
      },
      [this, restore] {
        host_.obs().span_close(restore, host_.sim().now());
        GuestList to_boot = cold_list_;
        const GuestList drivers = driver_domain_guests();
        to_boot.insert(to_boot.end(), drivers.begin(), drivers.end());
        boot_cold(to_boot, [this] { finish(RebootKind::kSaved); });
      });
}

// ------------------------------------------------------------------ cold

void Supervisor::start_cold() {
  open_rung("cold-VM reboot");
  for_each_parallel(
      guests_,
      [](guest::GuestOs& g, std::function<void()> guest_done) {
        g.shutdown(std::move(guest_done));
      },
      [this] {
        host_.shutdown_dom0([this] {
          host_.hardware_reboot([this] {
            boot_cold(guests_, [this] { finish(RebootKind::kCold); });
          });
        });
      });
}

// --------------------------------------------------- supervised booting

void Supervisor::supervised_boot(guest::GuestOs& g, int attempt,
                                 std::function<void(bool)> done) {
  auto settled = std::make_shared<bool>(false);
  auto shared_done =
      std::make_shared<std::function<void(bool)>>(std::move(done));
  const sim::EventId watchdog = host_.sim().after(
      config_.boot_watchdog, [this, &g, attempt, settled, shared_done] {
        if (*settled) return;
        *settled = true;
        record(RecoveryAction::kWatchdogPowerOff, g.name(),
               "boot hung past the watchdog (attempt " +
                   std::to_string(attempt + 1) + "); forced power-off");
        g.force_power_off();
        if (attempt < config_.max_step_retries) {
          host_.sim().after(backoff(attempt), [this, &g, attempt,
                                               shared_done] {
            supervised_boot(g, attempt + 1, std::move(*shared_done));
          });
          return;
        }
        record(RecoveryAction::kGaveUp, g.name(),
               "boot hung " + std::to_string(attempt + 1) +
                   " times; leaving the VM down");
        report_.unrecovered_vms.push_back(g.name());
        (*shared_done)(false);
      });
  g.create_and_boot([this, settled, watchdog, shared_done] {
    if (*settled) return;
    *settled = true;
    host_.sim().cancel(watchdog);
    (*shared_done)(true);
  });
}

void Supervisor::boot_cold(const GuestList& guests,
                           std::function<void()> done) {
  obs::SpanId boot = obs::kNoSpan;
  if (!guests.empty()) {
    boot = host_.obs().span_open(host_.sim().now(), obs::Phase::kGuestBoot,
                                 "supervised guest boots");
  }
  for_each_parallel(
      guests,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        supervised_boot(g, 0, [this, guest_done = std::move(guest_done)](
                                  bool ok) {
          if (ok) ++report_.cold_booted_vms;
          guest_done();
        });
      },
      [this, boot, done = std::move(done)] {
        host_.obs().span_close(boot, host_.sim().now());
        done();
      });
}

// ---------------------------------------------------------------- finish

void Supervisor::finish(RebootKind completed_kind) {
  report_.completed = completed_kind;
  report_.success = report_.unrecovered_vms.empty();
  report_.finished_at = host_.sim().now();
  completed_ = true;
  obs::Observer& obs = host_.obs();
  if (obs.enabled()) {
    obs.span_close(rung_span_, report_.finished_at);
    obs.span_close(pass_span_, report_.finished_at);
    obs.set_ambient(outer_ambient_);
    rung_span_ = obs::kNoSpan;
    obs::MetricsRegistry& m = obs.metrics();
    m.counter("supervisor.passes") += 1;
    m.counter("supervisor.vms_resumed") += report_.resumed_vms;
    m.counter("supervisor.vms_restored") += report_.restored_vms;
    m.counter("supervisor.vms_cold_booted") += report_.cold_booted_vms;
    m.counter("supervisor.vms_unrecovered") += report_.unrecovered_vms.size();
    if (!report_.success) m.counter("supervisor.failed_passes") += 1;
    if (report_.micro_attempts > 0) {
      m.counter("supervisor.micro_attempts") += report_.micro_attempts;
    }
    if (report_.micro_recovered) m.counter("supervisor.micro_recoveries") += 1;
    m.histogram("supervisor.pass_duration_us").add(report_.total_duration());
  }
  host_.end_recovery();
  auto done = std::move(done_);
  done(report_);
}

}  // namespace rh::rejuv
