#include "vmm/host.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::vmm {

Host::Host(sim::Simulation& sim, Calibration calib, std::uint64_t seed)
    : sim_(sim),
      calib_(calib),
      rng_(seed),
      machine_(sim, calib.machine),
      link_(sim, calib.link) {
  calib_.validate();
  preserved_.set_frame_budget(calib_.preserved_frame_budget);
}

sim::Duration Host::jittered(sim::Duration d) {
  if (calib_.timing_jitter <= 0.0 || d <= 0) return d;
  const auto stddev = static_cast<sim::Duration>(
      calib_.timing_jitter * static_cast<double>(d));
  return rng_.normal_duration(d, stddev, d / 2);
}

Vmm& Host::vmm() {
  ensure(vmm_ != nullptr, "Host::vmm: no VMM instance (rebooting?)");
  return *vmm_;
}

std::unique_ptr<Vmm> Host::new_vmm(BootMode mode) {
  ++vmm_generation_;
  return std::make_unique<Vmm>(sim_, calib_, machine_, preserved_, xenstore_,
                               obs_, rng_, faults_, mode);
}

void Host::configure_faults(const fault::FaultConfig& config) {
  if (!config.enabled()) {
    // Keep the injector disarmed without splitting the RNG: a host that
    // never enables faults draws exactly the same sequence as before this
    // feature existed.
    faults_ = fault::FaultInjector();
    return;
  }
  faults_ = fault::FaultInjector(config, rng_.split());
  obs_.emit(sim_.now(), obs::Category::kFault, obs::EventKind::kLifecycle,
            "fault injection armed");
}

void Host::crash_vmm() {
  ensure(vmm_ != nullptr, "crash_vmm: no VMM instance to crash");
  obs_.emit(sim_.now(), obs::Category::kHost, obs::EventKind::kLifecycle,
            "vmm crash", -1, vmm_generation_);
  vmm_.reset();
  dom0_state_ = Dom0State::kDown;
  // The crash scribbles over RAM on the way down (no orderly handover), so
  // nothing recorded in the preserved-region registry can be trusted.
  preserved_.clear();
}

void Host::fail_vmm(fault::FaultKind kind) {
  ensure(vmm_ != nullptr, "fail_vmm: no VMM instance to fail");
  ensure(kind == fault::FaultKind::kVmmCrash ||
             kind == fault::FaultKind::kVmmHang,
         "fail_vmm: not a VMM failure kind");
  obs_.emit(sim_.now(), obs::Category::kHost, obs::EventKind::kLifecycle,
            fault::to_string(kind), -1, vmm_generation_);
  // The dying instance cuts crash-consistent records of its running
  // domains before control is lost -- ReHype's preserved-state premise.
  // RAM survives, so the registry does too (contrast crash_vmm()).
  vmm_->snapshot_domains_for_recovery();
  vmm_.reset();
  dom0_state_ = Dom0State::kDown;
}

Vmm::MicroRecoveryReport Host::micro_recover_vmm() {
  ensure(vmm_ == nullptr, "micro_recover_vmm: a VMM instance is still up");
  ensure(dom0_state_ == Dom0State::kDown,
         "micro_recover_vmm: dom0 must be down");
  vmm_ = new_vmm(BootMode::kQuickReload);
  vmm_->boot_instantly();  // re-reserves the preserved regions
  dom0_state_ = Dom0State::kRunning;
  vmm_ready_at_ = sim_.now();
  dom0_up_at_ = sim_.now();
  restart_daemons();
  return vmm_->micro_recover();
}

void Host::abandon_recovery() {
  vmm_.reset();
  dom0_state_ = Dom0State::kDown;
  preserved_.clear();
}

void Host::begin_recovery() {
  ensure(!recovery_in_progress_,
         "Host::begin_recovery: a recovery ladder is already in flight on "
         "this host");
  recovery_in_progress_ = true;
}

void Host::end_recovery() {
  ensure(recovery_in_progress_, "Host::end_recovery: no ladder in flight");
  recovery_in_progress_ = false;
}

void Host::restart_daemons() {
  // xenstored restarts with dom0: fresh state, repopulated from the
  // hypervisor's view of the live domains.
  xenstore_.clear();
  if (vmm_ != nullptr) vmm_->repopulate_store();
}

void Host::instant_start() {
  ensure(vmm_ == nullptr, "Host::instant_start: already started");
  vmm_ = new_vmm(BootMode::kFresh);
  vmm_->boot_instantly();
  dom0_state_ = Dom0State::kRunning;
  vmm_ready_at_ = sim_.now();
  dom0_up_at_ = sim_.now();
  restart_daemons();
}

void Host::shutdown_dom0(std::function<void()> on_down) {
  ensure(static_cast<bool>(on_down), "shutdown_dom0: callback required");
  ensure(dom0_state_ == Dom0State::kRunning, "shutdown_dom0: dom0 not running");
  dom0_state_ = Dom0State::kShuttingDown;
  const obs::SpanId span =
      obs_.span_open(sim_.now(), obs::Phase::kDom0Shutdown, "dom0 shutdown");
  sim_.after(jittered(calib_.dom0_shutdown),
             [this, span, on_down = std::move(on_down)] {
    dom0_state_ = Dom0State::kDown;
    obs_.span_close(span, sim_.now());
    on_down();
  });
}

void Host::boot_vmm(BootMode mode, std::function<void()> on_up) {
  vmm_ = new_vmm(mode);
  const obs::SpanId span =
      obs_.span_open(sim_.now(), obs::Phase::kVmmInit,
                     mode == BootMode::kQuickReload ? "vmm re-init"
                                                    : "vmm boot");
  vmm_->boot([this, span, on_up = std::move(on_up)] {
    vmm_ready_at_ = sim_.now();
    dom0_state_ = Dom0State::kBooting;
    sim_.after(jittered(calib_.dom0_userland_boot), [this, span, on_up] {
      dom0_state_ = Dom0State::kRunning;
      dom0_up_at_ = sim_.now();
      restart_daemons();
      obs_.span_close(span, sim_.now());
      on_up();
    });
  });
}

void Host::restart_dom0(std::function<void()> on_up) {
  ensure(static_cast<bool>(on_up), "restart_dom0: callback required");
  ensure(up(), "restart_dom0: host not fully up");
  shutdown_dom0([this, on_up = std::move(on_up)]() mutable {
    dom0_state_ = Dom0State::kBooting;
    sim_.after(jittered(calib_.dom0_userland_boot), [this, on_up = std::move(on_up)] {
      dom0_state_ = Dom0State::kRunning;
      dom0_up_at_ = sim_.now();
      restart_daemons();
      obs_.emit(sim_.now(), obs::Category::kHost, obs::EventKind::kLifecycle,
                "dom0 restarted");
      on_up();
    });
  });
}

sim::Bytes Host::xenstored_memory() const {
  return calib_.xenstored_base_memory + xenstore_.memory_footprint();
}

double Host::dom0_daemon_pressure() const {
  return static_cast<double>(xenstored_memory()) /
         static_cast<double>(calib_.dom0_daemon_budget);
}

void Host::quick_reload(std::function<void()> on_up) {
  ensure(static_cast<bool>(on_up), "quick_reload: callback required");
  ensure(vmm_ != nullptr && vmm_->ready(), "quick_reload: no running VMM");
  ensure(vmm_->xexec_loaded(), "quick_reload: no xexec image loaded");
  ensure(dom0_state_ == Dom0State::kDown,
         "quick_reload: dom0 must be shut down first");
  const obs::SpanId span =
      obs_.span_open(sim_.now(), obs::Phase::kQuickReload, "quick reload");
  // The old VMM instance is gone the moment control transfers; machine
  // memory and the preserved-region registry survive untouched.
  vmm_.reset();
  sim_.after(calib_.xexec_jump, [this, span, on_up = std::move(on_up)]() mutable {
    // Nest the VMM re-init under the quick-reload span; restore the
    // previous ambient once dom0 userland is back.
    const obs::SpanId outer = obs_.ambient();
    obs_.set_ambient(span);
    boot_vmm(BootMode::kQuickReload,
             [this, span, outer, on_up = std::move(on_up)] {
               obs_.span_close(span, sim_.now());
               obs_.set_ambient(outer);
               on_up();
             });
  });
}

void Host::hardware_reboot(std::function<void()> on_up) {
  ensure(static_cast<bool>(on_up), "hardware_reboot: callback required");
  ensure(dom0_state_ == Dom0State::kDown,
         "hardware_reboot: dom0 must be shut down first");
  const obs::SpanId span =
      obs_.span_open(sim_.now(), obs::Phase::kHardwareReset, "hardware reset");
  vmm_.reset();
  // The power cycle destroys RAM contents; everything the registry
  // described is gone with them.
  preserved_.clear();
  machine_.hardware_reset([this, span, on_up = std::move(on_up)]() mutable {
    sim_.after(calib_.bootloader,
               [this, span, on_up = std::move(on_up)]() mutable {
      const obs::SpanId outer = obs_.ambient();
      obs_.set_ambient(span);
      boot_vmm(BootMode::kFresh, [this, span, outer, on_up = std::move(on_up)] {
        obs_.span_close(span, sim_.now());
        obs_.set_ambient(outer);
        on_up();
      });
    });
  });
}

void Host::note_simultaneous_creations(int count) {
  if (calib_.model_xen_creation_artifact && count >= 2) {
    artifact_until_ = sim_.now() + calib_.creation_artifact_duration;
    // The degradation window is known up front, so record it as a
    // completed span immediately rather than scheduling a close event
    // (which would perturb the event stream of instrumented runs).
    obs_.span_complete(sim_.now(), artifact_until_, obs::Phase::kCacheRewarm,
                       "creation artifact");
  }
}

double Host::throughput_factor() const {
  double factor =
      sim_.now() < artifact_until_ ? calib_.creation_artifact_nic_factor : 1.0;
  if (background_transfer_) factor *= 1.0 - calib_.migration_degradation;
  return factor;
}

}  // namespace rh::vmm
