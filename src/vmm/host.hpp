// Host: one physical machine plus the software running on it.
//
// The Host owns what *outlives* a VMM reboot -- the hardware, the
// preserved-region registry (RAM-resident: cleared by a power cycle, kept
// by quick reload) and the disk image store -- and manages the lifecycle
// of VMM instances and domain 0's userland across the three reboot styles.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "hw/machine.hpp"
#include "mm/preserved_registry.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "vmm/calibration.hpp"
#include "vmm/vmm.hpp"

namespace rh::vmm {

/// Domain 0 userland state (the control stack: xend, drivers, bridge).
enum class Dom0State : std::uint8_t { kDown, kBooting, kRunning, kShuttingDown };

class Host {
 public:
  Host(sim::Simulation& sim, Calibration calib, std::uint64_t seed = 1);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // ----------------------------------------------------------- accessors
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] const Calibration& calib() const { return calib_; }
  [[nodiscard]] Calibration& calib_mutable() { return calib_; }
  [[nodiscard]] hw::Machine& machine() { return machine_; }
  [[nodiscard]] mm::PreservedRegionRegistry& preserved() { return preserved_; }
  [[nodiscard]] ImageStore& images() { return images_; }
  /// Typed observability (events/spans/metrics); disabled by default so
  /// hot runs pay one branch per instrumentation point and nothing else.
  [[nodiscard]] obs::Observer& obs() { return obs_; }
  [[nodiscard]] const obs::Observer& obs() const { return obs_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] net::Link& link() { return link_; }
  [[nodiscard]] fault::FaultInjector& faults() { return faults_; }

  /// Arms fault injection for this host: the injector is rebuilt over a
  /// dedicated RNG substream (one split of the host RNG), so the fault
  /// schedule depends only on the host seed and the configured rates --
  /// never on thread count or unrelated timing draws. Calling this with a
  /// config whose rates are all zero keeps the injector disarmed without
  /// splitting the RNG, so default-path runs stay byte-identical.
  void configure_faults(const fault::FaultConfig& config);

  /// The running VMM instance. Precondition: vmm_running().
  [[nodiscard]] Vmm& vmm();
  [[nodiscard]] bool vmm_running() const { return vmm_ != nullptr && vmm_->ready(); }

  [[nodiscard]] Dom0State dom0_state() const { return dom0_state_; }
  /// Fully operational: VMM ready and dom0 userland up.
  [[nodiscard]] bool up() const {
    return vmm_running() && dom0_state_ == Dom0State::kRunning;
  }
  /// Whether guest network traffic can flow. The bridge lives in dom0: it
  /// keeps forwarding until dom0 is fully down (which is why warm-reboot
  /// services stay reachable through dom0's shutdown) and comes back only
  /// once dom0's userland is up.
  [[nodiscard]] bool network_path_up() const {
    return vmm_running() && (dom0_state_ == Dom0State::kRunning ||
                             dom0_state_ == Dom0State::kShuttingDown);
  }

  // ------------------------------------------------------------- startup
  /// Brings the host fully up taking zero simulated time (experiment
  /// setup: "the machine is already running at t=0").
  void instant_start();

  // ------------------------------------------------------ reboot pieces
  /// Shuts down domain 0's userland (services in domUs keep running; with
  /// RootHammer the VMM suspends them only afterwards).
  void shutdown_dom0(std::function<void()> on_down);

  /// Quick reload: transfers control to the previously xexec-loaded VMM
  /// image without a hardware reset. RAM (and thus the preserved-region
  /// registry) survives. Requires dom0 down and the image loaded.
  /// `on_up` fires when the new VMM *and* dom0 userland are up.
  void quick_reload(std::function<void()> on_up);

  /// Full hardware reboot: power cycle (RAM and registry destroyed), POST,
  /// boot loader, fresh VMM, dom0.
  void hardware_reboot(std::function<void()> on_up);

  /// Sudden VMM crash (injected aging failure before the rejuvenation
  /// timer fires): the hypervisor instance dies on the spot, taking every
  /// domain -- and dom0's userland -- with it. RAM contents are garbage
  /// afterwards, so the preserved-region registry is cleared too; only a
  /// hardware_reboot() and cold boots can bring the host back. Guests must
  /// be force-powered-off by the caller (their domains no longer exist).
  void crash_vmm();

  // --------------------------------- in-place micro-recovery (DESIGN §13)

  /// Recoverable VMM failure (ReHype's premise): the hypervisor is dead --
  /// crashed or hung past its watchdog -- but it died *cleanly enough*
  /// that guest memory images survive. Each running domain is snapshotted
  /// crash-consistently into the preserved registry (zero simulated time;
  /// the state was already in RAM), then the instance and dom0 go down.
  /// Unlike crash_vmm(), the registry is NOT cleared: micro_recover_vmm()
  /// can rebuild from it. Guests must be interrupted by the caller
  /// (GuestOs::interrupt_for_vmm_failure).
  void fail_vmm(fault::FaultKind kind);

  /// In-place recovery boot after fail_vmm(): constructs a new VMM
  /// instance in quick-reload mode over the untouched RAM (re-reserving
  /// every preserved region), brings it and dom0 up instantly -- the
  /// repair time was already charged by the Supervisor at mem_copy_bps --
  /// and returns the metadata-validation report. The caller inspects the
  /// report and either resumes the preserved domains or abandons.
  Vmm::MicroRecoveryReport micro_recover_vmm();

  /// Gives up on an in-place recovery: tears down any half-built VMM
  /// instance, forces dom0 down and clears the registry, leaving the host
  /// in the same state a crash_vmm() would -- ready for hardware_reboot().
  void abandon_recovery();

  // ------------------------------------------------ recovery overlap guard
  /// Whether a supervised recovery ladder is in flight on this host. The
  /// Supervisor sets this for its whole pass; a second Supervisor trying
  /// to start (run/recover/respond_to_failure) while it is held is an
  /// InvariantViolation -- two ladders interleaving on one host would
  /// corrupt each other's rung state, exactly like overlapping rolling
  /// passes at cluster level.
  [[nodiscard]] bool recovery_in_progress() const { return recovery_in_progress_; }
  void begin_recovery();
  void end_recovery();

  /// EXTENSION (the paper's stated future work): reboot *only* domain 0's
  /// userland, without rebooting the VMM or touching the domain Us. The
  /// guests keep running but are unreachable while the bridge is down;
  /// dom0's control daemons (xenstored) restart with fresh state.
  void restart_dom0(std::function<void()> on_up);

  // ------------------------------------------------ dom0 daemon aging
  /// The control-plane store (xenstored's contents). Restarted (emptied
  /// and repopulated from live domains) whenever dom0 boots.
  [[nodiscard]] XenStore& xenstore() { return xenstore_; }

  /// Memory held by xenstored right now: its base footprint plus every
  /// live store node (including leaked backlog; Sec. 2's privileged-VM
  /// aging).
  [[nodiscard]] sim::Bytes xenstored_memory() const;
  /// xenstored memory as a fraction of the dom0 daemon budget.
  [[nodiscard]] double dom0_daemon_pressure() const;

  // ----------------------------------------------------------- telemetry
  /// When the current VMM instance became ready ("reboot completed").
  [[nodiscard]] sim::SimTime vmm_ready_at() const { return vmm_ready_at_; }
  /// When dom0 userland last came up.
  [[nodiscard]] sim::SimTime dom0_up_at() const { return dom0_up_at_; }
  /// Number of VMM instances booted on this host (1 after instant_start).
  [[nodiscard]] std::uint64_t vmm_generation() const { return vmm_generation_; }

  // --------------------------------------------- Xen creation artifact
  /// Records that `count` domains were just created/resumed near-
  /// simultaneously; Xen 3.0.0 degraded network throughput for ~25 s
  /// afterwards (Fig. 7's warm-reboot dip).
  void note_simultaneous_creations(int count);

  /// Marks this host as sourcing/sinking a live-migration bulk transfer;
  /// services on it lose `migration_degradation` while it is active.
  void set_background_transfer(bool active) { background_transfer_ = active; }
  [[nodiscard]] bool background_transfer() const { return background_transfer_; }

  /// Current network throughput factor in (0, 1]; services multiply their
  /// delivery rate by this.
  [[nodiscard]] double throughput_factor() const;

  /// Applies the calibration's timing_jitter to a nominal duration: a
  /// normal draw with stddev = jitter * d, clamped to >= d/2. Identity
  /// (no RNG draw, so existing seeds reproduce exactly) when
  /// timing_jitter == 0.
  [[nodiscard]] sim::Duration jittered(sim::Duration d);

 private:
  void boot_vmm(BootMode mode, std::function<void()> on_up);
  std::unique_ptr<Vmm> new_vmm(BootMode mode);
  void restart_daemons();

  sim::Simulation& sim_;
  Calibration calib_;
  obs::Observer obs_;
  sim::Rng rng_;
  hw::Machine machine_;
  mm::PreservedRegionRegistry preserved_;
  ImageStore images_;
  XenStore xenstore_;
  net::Link link_;
  fault::FaultInjector faults_;
  std::unique_ptr<Vmm> vmm_;
  Dom0State dom0_state_ = Dom0State::kDown;
  sim::SimTime vmm_ready_at_ = 0;
  sim::SimTime dom0_up_at_ = 0;
  std::uint64_t vmm_generation_ = 0;
  sim::SimTime artifact_until_ = 0;
  bool background_transfer_ = false;
  bool recovery_in_progress_ = false;
};

}  // namespace rh::vmm
