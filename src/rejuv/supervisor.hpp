// Supervised rejuvenation: the recovery layer over the reboot drivers.
//
// The RebootDriver classes assume a cooperating world: xexec images load,
// disks read back what was written, preserved images stay intact and
// guests finish booting. The Supervisor assumes none of that. It runs the
// same phases as the drivers but checks every postcondition, retries
// failing steps with capped jittered exponential backoff, arms a watchdog
// over every guest boot, and -- when a mechanism is beyond retry -- walks
// a graceful-degradation ladder:
//
//   warm-VM reboot   --xexec load keeps failing-->   saved-VM reboot
//   saved-VM reboot  --image lost/unreadable---->    cold boot (that VM)
//   preserved image corrupt (checksum mismatch) -->  cold boot (that VM),
//                                                    siblings still resume
//   VMM crash (aging won the race) ------------->    hardware reboot +
//                                                    cold boot of all VMs
//
// Every recovery decision is recorded as a typed RecoveryEvent so tests
// (and the cluster layer) can assert the exact ladder taken, and so the
// fault-rate sweeps can attribute availability loss to causes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rejuv/admission.hpp"
#include "rejuv/reboot_driver.hpp"

namespace rh::rejuv {

/// What the supervisor did to keep the pass alive.
enum class RecoveryAction : std::uint8_t {
  kStepRetry,              ///< a failing step was retried after backoff
  kWatchdogPowerOff,       ///< a hung guest boot was forced off by the watchdog
  kFallbackToSaved,        ///< warm path abandoned; saved-VM reboot instead
  kFallbackToCold,         ///< saved image lost/unreadable; that VM cold boots
  kColdBootSingleVm,       ///< corrupt preserved image; that VM cold boots
  kHardwareRebootAfterCrash,  ///< VMM crashed; full reset + cold boots
  kGaveUp,                 ///< retries exhausted; VM left unrecovered
  // --- preserved-memory pressure (DESIGN.md §9) ---
  kBalloonReclaim,     ///< admission ballooned pages out of a VM pre-suspend
  kCompactionPass,     ///< frames compacted before suspend
  kDemoteToSaved,      ///< admission sent this VM down the disk path
  kDemoteToCold,       ///< admission shut this VM down for a cold boot
  kPreservedImageLost, ///< suspended VM came back with no image; cold boot
  // --- in-place micro-recovery (DESIGN.md §13) ---
  kMicroRecoveryAttempt,    ///< in-place VMM rebuild attempt started
  kMicroRecoverySucceeded,  ///< VMM rebuilt in place; preserved VMs resume
  kMicroRecoveryFailed,     ///< one rebuild attempt failed its success draw
  kMicroRecoveryMetadataCorrupt,  ///< rebuilt state unusable; fall to cold
};

[[nodiscard]] const char* to_string(RecoveryAction a);

/// One recovery decision, for post-mortem accounting and assertions.
struct RecoveryEvent {
  RecoveryAction action = RecoveryAction::kStepRetry;
  sim::SimTime at = 0;
  std::string subject;  ///< step name or VM name
  std::string detail;
};

struct SupervisorConfig {
  /// The mechanism to attempt first; the ladder only descends from here.
  RebootKind preferred = RebootKind::kWarm;
  /// Retries per failing step (xexec load, guest boot) before degrading.
  int max_step_retries = 2;
  /// Backoff before retry k is min(cap, base * 2^k), times a jitter factor
  /// in [1-j, 1+j]. jitter == 0 draws nothing from the host RNG.
  sim::Duration backoff_base = 2 * sim::kSecond;
  sim::Duration backoff_cap = 5 * sim::kMinute;
  double backoff_jitter = 0.0;
  /// A guest boot that has not completed after this long is declared hung
  /// and force-powered off (kGuestBootHang never completes on its own).
  sim::Duration boot_watchdog = 10 * sim::kMinute;
  /// Latency before a kVmmHang is acted on: a crash announces itself, a
  /// wedged hypervisor is only visible once the external watchdog fires.
  sim::Duration hang_detection = sim::kSecond;
  /// Preserved-memory admission control (disabled by default: no extra
  /// work, no extra RNG draws -- pre-pressure runs stay byte-identical).
  AdmissionConfig admission;
  /// ReHype-style in-place micro-recovery: the rung *above* warm
  /// (DESIGN.md §13). Disabled by default, so a VMM failure takes the
  /// hardware-reboot path verbatim and no extra RNG draws ever happen.
  struct MicroRecoveryConfig {
    bool enabled = false;
    /// Rebuild attempts before falling down to hardware reboot + cold.
    int max_attempts = 2;
    /// Per-attempt probability that the heap/domain-metadata rebuild
    /// succeeds (ReHype reports ~90 %; the default is conservative).
    double success_rate = 0.85;
    /// Fixed per-attempt cost on top of the metadata copy time, which is
    /// charged at registry bytes / Calibration::mem_copy_bps.
    sim::Duration attempt_base = 200 * sim::kMillisecond;
  };
  MicroRecoveryConfig micro;
};

/// Preserved-memory accounting of one supervised pass.
struct MemoryPressure {
  bool consulted = false;            ///< admission ran this pass
  bool pressured = false;            ///< demand exceeded the budget
  std::int64_t budget_frames = 0;    ///< frames available for new images
  std::int64_t demand_frames = 0;    ///< frames the VMs wanted
  std::int64_t reclaimed_frames = 0; ///< frames ballooned out pre-suspend
  std::int64_t compacted_frames = 0; ///< frames moved by compaction
  std::size_t demoted_saved = 0;     ///< VMs sent down the disk path
  std::size_t demoted_cold = 0;      ///< VMs shut down for cold boot
};

struct SupervisorReport {
  RebootKind attempted = RebootKind::kWarm;
  /// The mechanism that actually carried the pass to completion (kSaved
  /// after a warm fallback; kCold after a VMM crash).
  RebootKind completed = RebootKind::kWarm;
  /// True iff every guest answers again (no VM left unrecovered).
  bool success = false;
  bool vmm_crashed = false;
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;
  [[nodiscard]] sim::Duration total_duration() const {
    return finished_at - started_at;
  }
  std::size_t resumed_vms = 0;   ///< on-memory resumes (state kept)
  std::size_t restored_vms = 0;  ///< disk restores (state kept)
  std::size_t cold_booted_vms = 0;  ///< boots from scratch (state lost)
  std::size_t micro_attempts = 0;   ///< in-place rebuild attempts made
  /// True iff an in-place micro-recovery carried the pass (the VMM was
  /// rebuilt over preserved RAM and the frozen VMs resumed).
  bool micro_recovered = false;
  std::vector<std::string> unrecovered_vms;
  std::vector<RecoveryEvent> recoveries;
  MemoryPressure pressure;

  [[nodiscard]] std::size_t recovery_count(RecoveryAction a) const;
};

/// Runs one supervised rejuvenation pass over a host and its guests.
/// One-shot, like the drivers it supersedes.
class Supervisor {
 public:
  Supervisor(vmm::Host& host, std::vector<guest::GuestOs*> guests,
             SupervisorConfig config);
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Runs the pass; `done` receives the report (which remains readable via
  /// report() afterwards). Requires the host to be up.
  void run(std::function<void(const SupervisorReport&)> done);

  /// Recovery-only entry point (mutually exclusive with run(), same
  /// one-shot rule): boots every guest currently halted, each under the
  /// boot watchdog, without disturbing running guests. The cluster layer
  /// uses this to retry a host whose earlier pass left VMs unrecovered.
  void recover(std::function<void(const SupervisorReport&)> done);

  /// Unplanned-failure entry point (same one-shot rule): an *in-service*
  /// VMM failure was detected (fault::SteadyFaultProcess) and this
  /// supervisor owns the response. With micro-recovery enabled the ladder
  /// starts at the in-place rung; disabled, it is the hardware-reboot +
  /// cold-boot path a pre-rejuvenation crash takes. `kind` must be
  /// kVmmCrash or kVmmHang and the host must still be up (the failure is
  /// performed here, at its detection point).
  void respond_to_failure(fault::FaultKind kind,
                          std::function<void(const SupervisorReport&)> done);

  [[nodiscard]] const SupervisorReport& report() const { return report_; }
  [[nodiscard]] bool completed() const { return completed_; }

 private:
  using GuestList = std::vector<guest::GuestOs*>;

  // ---- phase drivers (one per rung of the ladder)
  void handle_vmm_failure(fault::FaultKind kind);
  void start_warm();
  void attempt_xexec(int attempt);
  void warm_after_xexec();
  void warm_resume_phase();
  void warm_restore_demoted();
  void start_saved();

  // ---- preserved-memory admission (DESIGN.md §9)
  /// Plans and executes admission before the warm suspend: balloon
  /// reclaims (with injected-failure escalation), optional compaction
  /// (charging moved-bytes/mem_copy_bps), then the demotions -- saves to
  /// disk while dom0 is still up, graceful shutdowns for cold. `done`
  /// fires when the surviving warm set is ready to suspend.
  void run_admission(std::function<void()> done);
  /// Demotes one more warm VM (largest first) when an executed reclaim
  /// under-delivered; returns the freed demand (0 = nothing left).
  std::int64_t escalate_demotion(AdmissionPlan& plan);
  /// Post-reload housekeeping: re-attempts release of leaked stale
  /// regions (each sweep can itself leak again under fault injection).
  void sweep_stale_regions();
  /// Frees a registry region's re-reserved frames and erases the record.
  void discard_region(const std::string& region_name);
  void saved_restore_phase();
  void start_cold();
  void finish(RebootKind completed_kind);

  // ---- in-place micro-recovery rung (DESIGN.md §13)
  /// Freezes the guests in RAM (fail_vmm + interrupt) and starts attempt 0.
  void start_micro(fault::FaultKind kind);
  /// One rebuild attempt: charges attempt_base + metadata/mem_copy_bps,
  /// then draws success. Failure retries up to max_attempts, then falls to
  /// crash_fallback; success validates metadata and resumes.
  void micro_attempt(fault::FaultKind kind, int attempt);
  /// Resumes every frozen guest whose preserved image survived; per-VM
  /// corruption degrades that VM to a cold boot (siblings still resume).
  void micro_resume_phase();
  /// The bottom of the ladder for unplanned failures: hardware reboot and
  /// cold boot of every VM. `micro_exhausted` distinguishes "never tried
  /// micro" (the legacy crash path, byte-identical) from "micro gave up"
  /// (preserved state must be abandoned first).
  void crash_fallback(fault::FaultKind kind, bool micro_exhausted);
  /// Bytes the rebuild must walk: every crash snapshot in the registry
  /// plus per-domain heap metadata.
  [[nodiscard]] sim::Bytes micro_repair_bytes() const;

  // ---- supervised building blocks
  /// Boots one guest under a watchdog; retries hung boots with backoff.
  /// `done(false)` means retries were exhausted (VM left unrecovered).
  void supervised_boot(guest::GuestOs& g, int attempt,
                       std::function<void(bool)> done);
  /// Boots a list in parallel (each under its own watchdog); successful
  /// boots are counted as cold-booted VMs.
  void boot_cold(const GuestList& guests, std::function<void()> done);
  /// Drops a corrupt preserved image: frees the frozen frames the new VMM
  /// re-reserved for it and erases the registry record.
  void discard_preserved_image(const std::string& guest_name);

  void for_each_parallel(
      const GuestList& guests,
      const std::function<void(guest::GuestOs&, std::function<void()>)>& fn,
      std::function<void()> done);
  [[nodiscard]] GuestList suspendable_guests() const;
  [[nodiscard]] GuestList driver_domain_guests() const;
  [[nodiscard]] sim::Duration backoff(int attempt);
  void record(RecoveryAction action, const std::string& subject,
              const std::string& detail);
  /// Closes the current ladder-rung span (if any) and opens a new one
  /// under the pass span; every mechanism the ladder descends through gets
  /// its own kLadderRung window.
  void open_rung(const char* label);

  vmm::Host& host_;
  GuestList guests_;
  SupervisorConfig config_;
  std::function<void(const SupervisorReport&)> done_;
  SupervisorReport report_;
  GuestList cold_list_;  ///< accumulated per-VM degradations this pass
  GuestList admit_saved_;  ///< demoted to the disk path by admission
  GuestList admit_cold_;   ///< demoted to cold boot by admission
  obs::SpanId pass_span_ = obs::kNoSpan;
  obs::SpanId rung_span_ = obs::kNoSpan;
  obs::SpanId outer_ambient_ = obs::kNoSpan;
  bool started_ = false;
  bool completed_ = false;
};

}  // namespace rh::rejuv
