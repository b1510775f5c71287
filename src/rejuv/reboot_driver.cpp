#include "rejuv/reboot_driver.hpp"

#include <memory>
#include <utility>

#include "simcore/check.hpp"

namespace rh::rejuv {

const char* to_string(RebootKind k) {
  switch (k) {
    case RebootKind::kWarm: return "warm-VM reboot";
    case RebootKind::kSaved: return "saved-VM reboot";
    case RebootKind::kCold: return "cold-VM reboot";
  }
  return "unknown";
}

RebootDriver::RebootDriver(vmm::Host& host, std::vector<guest::GuestOs*> guests)
    : host_(host), guests_(std::move(guests)) {
  for (const auto* g : guests_) {
    ensure(g != nullptr, "RebootDriver: null guest");
  }
}

void RebootDriver::run(std::function<void()> on_complete) {
  ensure(static_cast<bool>(on_complete), "RebootDriver::run: callback required");
  ensure(!started_, "RebootDriver::run: drivers are one-shot");
  ensure(host_.up(), "RebootDriver::run: host is not up");
  started_ = true;
  started_at_ = host_.sim().now();
  obs::Observer& obs = host_.obs();
  pass_span_ = obs.span_open(started_at_, obs::Phase::kPass, to_string(kind()));
  outer_ambient_ = obs.ambient();
  obs.set_ambient(pass_span_);
  script_ = std::make_unique<sim::Script>(host_.sim());
  // Mirror each completed step verbatim (same label, start and end) into a
  // kStep span under the pass span: Fig. 7's breakdown falls out of the
  // span tree byte-identical to breakdown().
  script_->set_step_observer([this](const sim::StepRecord& rec) {
    host_.obs().span_complete_under(rec.start, rec.end, obs::Phase::kStep,
                                    rec.label, pass_span_);
  });
  build(*script_);
  script_->run([this, on_complete = std::move(on_complete)] {
    completed_ = true;
    finished_at_ = host_.sim().now();
    host_.obs().span_close(pass_span_, finished_at_);
    host_.obs().set_ambient(outer_ambient_);
    on_complete();
  });
}

const std::vector<sim::StepRecord>& RebootDriver::breakdown() const {
  ensure(script_ != nullptr, "RebootDriver::breakdown: not run yet");
  return script_->records();
}

namespace {

/// Runs `fn(guest, done)` for every guest in parallel; `done` fires when
/// the last completes (immediately when there are no guests).
void for_all_guests(
    vmm::Host& host, const std::vector<guest::GuestOs*>& guests,
    const std::function<void(guest::GuestOs&, std::function<void()>)>& fn,
    std::function<void()> done) {
  if (guests.empty()) {
    host.sim().after(0, std::move(done));
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

}  // namespace

RebootDriver::GuestList RebootDriver::suspendable_guests() const {
  GuestList out;
  for (auto* g : guests_) {
    if (!g->driver_domain()) out.push_back(g);
  }
  return out;
}

RebootDriver::GuestList RebootDriver::driver_domain_guests() const {
  GuestList out;
  for (auto* g : guests_) {
    if (g->driver_domain()) out.push_back(g);
  }
  return out;
}

void RebootDriver::resume_on_memory(const GuestList& guests,
                                    std::function<void()> done) {
  const int count = static_cast<int>(guests.size());
  for_all_guests(
      host_, guests,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().resume_domain_on_memory(
            g.name(), &g, [guest_done = std::move(guest_done)](DomainId) {
              guest_done();
            });
      },
      [this, count, done = std::move(done)] {
        host_.note_simultaneous_creations(count);
        done();
      });
}

void RebootDriver::save_to_disk(const GuestList& guests,
                                std::function<void()> done) {
  for_all_guests(
      host_, guests,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        ensure(g.domain_id() != kNoDomain, "save: guest has no domain");
        host_.vmm().save_domain_to_disk(g.domain_id(), host_.images(),
                                        std::move(guest_done));
      },
      std::move(done));
}

void RebootDriver::restore_from_disk(const GuestList& guests,
                                     std::function<void()> done) {
  // Unlike on-memory resume, restores are spread out by their (long) disk
  // reads, so the domains are not created "simultaneously" and the Xen
  // creation artifact does not trigger.
  for_all_guests(
      host_, guests,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        host_.vmm().restore_domain_from_disk(
            g.name(), host_.images(), &g,
            [guest_done = std::move(guest_done)](DomainId) { guest_done(); });
      },
      std::move(done));
}

void RebootDriver::shutdown_guests(const GuestList& guests,
                                   std::function<void()> done) {
  for_all_guests(
      host_, guests,
      [](guest::GuestOs& g, std::function<void()> guest_done) {
        g.shutdown(std::move(guest_done));
      },
      std::move(done));
}

void RebootDriver::boot_guests(const GuestList& guests,
                               std::function<void()> done) {
  // Cold boots are serialised by disk I/O (~3.4 s apart), so creation is
  // not simultaneous; no artifact here either (the paper's cold-reboot dip
  // comes from cache misses alone).
  for_all_guests(
      host_, guests,
      [](guest::GuestOs& g, std::function<void()> guest_done) {
        g.create_and_boot(std::move(guest_done));
      },
      std::move(done));
}

// --------------------------------------------------------------- warm

void WarmVmReboot::build(sim::Script& script) {
  // 1. dom0 loads the new VMM image via the xexec system call while
  //    everything still runs.
  script.step_async("load xexec image", [this](std::function<void()> done) {
    host_.vmm().xexec_load(std::move(done));
  });

  // 2. Driver domains cannot be suspended (Sec. 7): they get a cold
  //    shutdown/boot even in the warm path.
  if (!driver_domain_guests().empty()) {
    script.step_async("driver domain shutdown",
                      [this](std::function<void()> done) {
                        shutdown_guests(driver_domain_guests(), std::move(done));
                      });
  }

  if (host_.calib().suspend_by_vmm_after_dom0_shutdown) {
    // RootHammer ordering: dom0 shuts down first (services in domUs keep
    // answering), then the VMM itself suspends the domains.
    script.step_async("dom0 shutdown", [this](std::function<void()> done) {
      host_.shutdown_dom0(std::move(done));
    });
    script.step_async("on-memory suspend", [this](std::function<void()> done) {
      host_.vmm().suspend_all_on_memory(std::move(done));
    });
  } else {
    // Original-Xen ordering (ablation): domain 0 must suspend the domains
    // while it is still up, so services go down earlier.
    script.step_async("on-memory suspend", [this](std::function<void()> done) {
      host_.vmm().suspend_all_on_memory(std::move(done));
    });
    script.step_async("dom0 shutdown", [this](std::function<void()> done) {
      host_.shutdown_dom0(std::move(done));
    });
  }

  // 3. Quick reload: new VMM instance without a hardware reset; RAM (and
  //    the frozen images) survive. Includes dom0 kernel + userland boot.
  script.step_async("quick reload + VMM/dom0 boot",
                    [this](std::function<void()> done) {
                      host_.quick_reload(std::move(done));
                    });

  // 4. Resume every preserved domain; cold-boot the driver domains.
  script.step_async("on-memory resume", [this](std::function<void()> done) {
    resume_on_memory(suspendable_guests(), std::move(done));
  });
  if (!driver_domain_guests().empty()) {
    script.step_async("driver domain boot", [this](std::function<void()> done) {
      boot_guests(driver_domain_guests(), std::move(done));
    });
  }
}

// --------------------------------------------------------------- saved

void SavedVmReboot::build(sim::Script& script) {
  // 1. Every suspendable domain is suspended (down) almost immediately;
  //    the memory images then stream out through the single disk,
  //    serially. Driver domains cannot be suspended: plain shutdown.
  script.step_async("save VMs to disk", [this](std::function<void()> done) {
    save_to_disk(suspendable_guests(), std::move(done));
  });
  if (!driver_domain_guests().empty()) {
    script.step_async("driver domain shutdown",
                      [this](std::function<void()> done) {
                        shutdown_guests(driver_domain_guests(), std::move(done));
                      });
  }
  script.step_async("dom0 shutdown", [this](std::function<void()> done) {
    host_.shutdown_dom0(std::move(done));
  });
  // 2. Plain reboot: hardware reset (POST), boot loader, fresh VMM, dom0.
  script.step_async("hardware reset + VMM/dom0 boot",
                    [this](std::function<void()> done) {
                      host_.hardware_reboot(std::move(done));
                    });
  // 3. Read every image back and rebuild the domains.
  script.step_async("restore VMs from disk", [this](std::function<void()> done) {
    restore_from_disk(suspendable_guests(), std::move(done));
  });
  if (!driver_domain_guests().empty()) {
    script.step_async("driver domain boot", [this](std::function<void()> done) {
      boot_guests(driver_domain_guests(), std::move(done));
    });
  }
}

// --------------------------------------------------------------- cold

void ColdVmReboot::build(sim::Script& script) {
  // 1. Every guest OS shuts down cleanly (services stop; sessions close).
  script.step_async("guest OS shutdown", [this](std::function<void()> done) {
    shutdown_guests(guests_, std::move(done));
  });
  script.step_async("dom0 shutdown", [this](std::function<void()> done) {
    host_.shutdown_dom0(std::move(done));
  });
  script.step_async("hardware reset + VMM/dom0 boot",
                    [this](std::function<void()> done) {
                      host_.hardware_reboot(std::move(done));
                    });
  // 2. Re-create all domains and boot the OSes and services from scratch.
  script.step_async("guest OS boot", [this](std::function<void()> done) {
    boot_guests(guests_, std::move(done));
  });
}

std::unique_ptr<RebootDriver> make_reboot_driver(
    RebootKind kind, vmm::Host& host, std::vector<guest::GuestOs*> guests) {
  switch (kind) {
    case RebootKind::kWarm:
      return std::make_unique<WarmVmReboot>(host, std::move(guests));
    case RebootKind::kSaved:
      return std::make_unique<SavedVmReboot>(host, std::move(guests));
    case RebootKind::kCold:
      return std::make_unique<ColdVmReboot>(host, std::move(guests));
  }
  throw InvariantViolation("make_reboot_driver: bad kind");
}

}  // namespace rh::rejuv
