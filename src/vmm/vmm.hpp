// The virtual machine monitor (hypervisor) -- one instance per boot.
//
// Modelled on Xen 3.0.0 with the RootHammer extensions: a VMM instance
// owns the machine-frame allocator, the hypervisor heap, and the domain
// table. Rebooting the VMM means destroying this object and constructing
// a new one over the same physical machine; what survives that transition
// is exactly what the hardware preserves -- disk contents always, RAM
// contents only across a quick reload (never across a hardware reset).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hw/machine.hpp"
#include "mm/frame_allocator.hpp"
#include "mm/preserved_registry.hpp"
#include "obs/observer.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "vmm/calibration.hpp"
#include "vmm/domain.hpp"
#include "vmm/save_restore.hpp"
#include "vmm/vmm_heap.hpp"
#include "vmm/xenstore.hpp"

namespace rh::vmm {

/// How this VMM instance came to run.
enum class BootMode : std::uint8_t {
  kFresh,        ///< after a hardware reset (RAM contents lost)
  kQuickReload,  ///< via xexec (RAM contents preserved)
};

/// Serialised domain-management operations (the paper's xend in dom0):
/// domain creation/restoration runs one at a time, which is why resume(n)
/// and creation costs scale linearly with the number of VMs.
class XendQueue {
 public:
  explicit XendQueue(sim::Simulation& sim) : sim_(sim) {}

  /// Enqueues an operation of the given duration; `done` fires when the
  /// operation completes (after all previously queued operations).
  void enqueue(sim::Duration d, sim::InlineCallback done);

  [[nodiscard]] sim::SimTime busy_until() const { return busy_until_; }

 private:
  sim::Simulation& sim_;
  sim::SimTime busy_until_ = 0;
};

class Vmm {
 public:
  /// Heap charged per live domain (shadow of Xen's per-domain structures).
  static constexpr sim::Bytes kDomainHeapCost = 48 * sim::kKiB;
  /// Registry region name prefix for suspended domains.
  static constexpr const char* kRegionPrefix = "domain/";

  Vmm(sim::Simulation& sim, const Calibration& calib, hw::Machine& machine,
      mm::PreservedRegionRegistry& preserved, XenStore& xenstore,
      obs::Observer& obs, sim::Rng& rng, fault::FaultInjector& faults,
      BootMode mode);

  Vmm(const Vmm&) = delete;
  Vmm& operator=(const Vmm&) = delete;

  /// Boots the hypervisor: core init, re-reservation of preserved regions
  /// (quick reload), scrub of free memory, domain-0 construction and
  /// kernel boot. `on_ready` fires at the point the paper calls "the
  /// reboot of the VMM completed".
  void boot(std::function<void()> on_ready);

  /// Synchronous variant of boot() taking zero simulated time. Intended
  /// for experiment setup ("the machine is already up at t=0") and tests.
  void boot_instantly();

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] BootMode boot_mode() const { return mode_; }

  // ------------------------------------------------------------ domains

  /// Creates a domain through the management queue (xend): allocates
  /// machine frames, builds the P2M table, charges the hypervisor heap.
  /// `done` receives the new domain's id once the operation completes.
  ///
  /// `initial_allocation` models Xen's memory= < maxmem= reduced-allocation
  /// boot: the P2M table spans the full nominal `memory`, but only the
  /// lowest pages_for(initial_allocation) PFNs are populated with machine
  /// frames -- the rest start as balloon holes. 0 (the default) populates
  /// everything. This is what lets an overcommitted VM cold-boot on a host
  /// that cannot back its nominal size.
  void create_domain(const std::string& name, sim::Bytes memory,
                     GuestHooks* hooks, std::function<void(DomainId)> done,
                     sim::Bytes initial_allocation = 0);

  /// Immediate variant for tests and setup code (no xend delay).
  DomainId create_domain_now(const std::string& name, sim::Bytes memory,
                             GuestHooks* hooks,
                             sim::Bytes initial_allocation = 0);

  /// Destroys a domain: releases its frames, frees (and possibly leaks)
  /// hypervisor heap.
  void destroy_domain(DomainId id);

  [[nodiscard]] Domain& domain(DomainId id);
  [[nodiscard]] const Domain& domain(DomainId id) const;
  [[nodiscard]] Domain* find_domain(DomainId id);
  [[nodiscard]] Domain* find_domain_by_name(const std::string& name);

  /// Ids of all live (non-dead) domains except domain 0, ascending.
  [[nodiscard]] std::vector<DomainId> unprivileged_domain_ids() const;
  [[nodiscard]] std::size_t live_domain_count() const;

  // ----------------------------------------------------- guest memory

  void guest_write(DomainId id, mm::Pfn pfn, hw::ContentToken token);
  [[nodiscard]] hw::ContentToken guest_read(DomainId id, mm::Pfn pfn) const;

  // ------------------------------------- on-memory suspend / resume
  // (implementation in suspend.cpp)

  /// Suspends one running domain on-memory: delivers the suspend event,
  /// waits for the guest's suspend hypercall, freezes the memory image in
  /// place and records the preserved region.
  void suspend_domain_on_memory(DomainId id, std::function<void()> done);

  /// Suspends every running unprivileged domain (in parallel).
  void suspend_all_on_memory(std::function<void()> done);

  /// Names of domains with preserved in-memory images.
  [[nodiscard]] std::vector<std::string> preserved_domain_names() const;

  /// Whether a preserved in-memory image exists for `name`. Under memory
  /// pressure a suspend can complete without recording one (budget
  /// exhaustion or an injected frame-allocation failure), and a quick
  /// reload can drop one it cannot re-reserve -- so resume paths must
  /// check this before preserved_image_intact(), which hard-requires
  /// existence.
  [[nodiscard]] bool has_preserved_image(const std::string& name) const;

  /// Whether the named domain's preserved image still passes its checksum.
  /// The supervised resume path verifies this before resuming; a mismatch
  /// means the image rotted in RAM and only a cold boot can recover the VM.
  /// Precondition: a preserved image for `name` exists.
  [[nodiscard]] bool preserved_image_intact(const std::string& name) const;

  /// Resumes a previously on-memory-suspended domain in this VMM instance:
  /// re-creates the domain (serialised through xend), re-attaches the
  /// preserved frames recorded in the P2M table, restores execution state,
  /// and runs the guest resume handler.
  void resume_domain_on_memory(const std::string& name, GuestHooks* hooks,
                               std::function<void(DomainId)> done);

  // --------------------------------- in-place micro-recovery (§13)
  // (implementation in suspend.cpp -- it reuses the preserved-record
  // format, so a crash snapshot is resumable by resume_domain_on_memory)

  /// Crash-consistent snapshot of every running unprivileged domain into
  /// the preserved registry, taken by the dying VMM's failure handler
  /// (ReHype's "preserve VM state" step). Unlike suspend, no suspend event
  /// is delivered and zero simulated time passes: the state was already in
  /// RAM; only the metadata record is cut. Per domain the record can be
  /// dropped (injected kFrameAllocFailure, preserved-frame budget) or rot
  /// (kCorruptPreservedImage), both at the "crash:<name>" site. Returns
  /// the number of images recorded.
  std::size_t snapshot_domains_for_recovery();

  /// What Vmm::micro_recover() found when it rebuilt VMM metadata from the
  /// preserved regions after an in-place recovery boot.
  struct MicroRecoveryReport {
    std::size_t regions_checked = 0;  ///< preserved domain images seen
    std::size_t intact_regions = 0;   ///< images passing their checksum
    std::vector<std::string> corrupt_domains;  ///< checksum mismatches
    sim::Bytes metadata_bytes = 0;    ///< serialised metadata re-validated
    bool frames_consistent = false;   ///< frame_conservation_report().ok()
    /// The attempt is usable when frame conservation holds and at least
    /// one image survived (individual corrupt images degrade to per-VM
    /// cold boots, exactly like the warm path's intact check).
    [[nodiscard]] bool ok() const {
      return frames_consistent && (regions_checked == 0 || intact_regions > 0);
    }
  };

  /// Validates the rebuilt state of a quick-reload-booted VMM against the
  /// preserved registry: every domain image's FNV checksum, every frozen
  /// frame's re-reservation, and the global frame-conservation invariant.
  /// Read-only -- the Supervisor decides how to act on the report.
  [[nodiscard]] MicroRecoveryReport micro_recover() const;

  // ------------------------------------------- Xen-style save / restore
  // (implementation in save_restore.cpp)

  /// Saves a running domain to disk (the paper's baseline): suspend event,
  /// then the whole memory image is written out; the domain is destroyed.
  void save_domain_to_disk(DomainId id, ImageStore& store,
                           std::function<void()> done);

  /// Restores a domain from its save file.
  void restore_domain_from_disk(const std::string& name, ImageStore& store,
                                GuestHooks* hooks,
                                std::function<void(DomainId)> done);

  /// Snapshot of a (suspended) domain's full state as an image. Used by
  /// the save path and by live migration's stop-and-copy.
  [[nodiscard]] SavedImage capture_image(DomainId id) const;

  /// Rebuilds a domain from an in-memory image (live migration's receive
  /// side): xend-serialised creation, content write, guest resume handler.
  /// Transfer time is the caller's concern (it depends on the medium).
  void restore_domain_from_image(const SavedImage& image, GuestHooks* hooks,
                                 std::function<void(DomainId)> done);

  // ------------------------------------------------------------- xexec
  // (implementation in xexec.cpp)

  /// Loads a new VMM executable image (VMM + dom0 kernel + initrd) into
  /// memory via the xexec hypercall. Must be done before quick reload.
  /// Under fault injection the load can fail: `done` still fires (the
  /// time was spent) but xexec_loaded() stays false -- callers that care
  /// must check the postcondition, as rejuv::Supervisor does.
  void xexec_load(std::function<void()> done);

  [[nodiscard]] bool xexec_loaded() const { return xexec_loaded_; }

  /// Simulates one execution of a buggy hypervisor error path (the Xen
  /// changeset-11752 bug class): leaks heap per the calibration. Returns
  /// the bytes leaked.
  sim::Bytes trigger_error_path();

  // -------------------------------------------- memory-pressure plumbing

  /// Relocates live domains' machine frames to the lowest free MFNs,
  /// copying contents and rewriting P2M entries. Defragments machine
  /// memory so the frames a subsequent suspend freezes in place -- and the
  /// free runs the incoming VMM needs for contiguous metadata -- are
  /// compact. Takes zero simulated time itself; callers charge
  /// moved-bytes / Calibration::mem_copy_bps (the Supervisor records the
  /// pass as a kCompactionPass RecoveryEvent). Returns frames moved.
  std::int64_t compact_memory();

  /// Frame-conservation invariant snapshot; see ConservationReport.
  struct ConservationReport {
    bool allocator_consistent = false;  ///< counters agree with owner map
    bool frozen_frames_reserved = false;  ///< registry frames VMM-owned
    bool p2m_ownership_consistent = false;  ///< mapped MFNs owned by mapper
    std::int64_t registry_frames = 0;  ///< preserved_.reserved_frames()
    [[nodiscard]] bool ok() const {
      return allocator_consistent && frozen_frames_reserved &&
             p2m_ownership_consistent;
    }
  };

  /// Cross-checks frame ownership between the allocator, the preserved
  /// registry and every live domain's P2M table: no double-ownership, no
  /// unreserved frozen frame, no miscounted owner. The Supervisor runs
  /// this after every quick reload (the reload is exactly where ownership
  /// is rebuilt from the registry, so it is where conservation can break).
  [[nodiscard]] ConservationReport frame_conservation_report() const;

  // ------------------------------------------------------ introspection

  [[nodiscard]] VmmHeap& heap() { return heap_; }
  [[nodiscard]] const VmmHeap& heap() const { return heap_; }
  [[nodiscard]] mm::FrameAllocator& allocator() { return allocator_; }
  [[nodiscard]] XendQueue& xend() { return xend_; }
  [[nodiscard]] sim::Duration boot_scrub_duration() const { return scrub_duration_; }
  /// Count of domain-management operations (create/resume/restore/destroy)
  /// processed by this VMM instance; drives the xenstored aging model.
  [[nodiscard]] std::uint64_t domain_ops() const { return domain_ops_; }

  /// Re-registers every live domain in the (freshly restarted) store.
  void repopulate_store();
  [[nodiscard]] const Calibration& calib() const { return calib_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] hw::Machine& machine() { return machine_; }
  [[nodiscard]] mm::PreservedRegionRegistry& preserved() { return preserved_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] fault::FaultInjector& faults() { return faults_; }

 private:
  friend class SuspendMechanism;

  /// Shared domain-construction bookkeeping (allocates frames, heap).
  /// `initial_allocation` as in create_domain (0 == populate fully).
  Domain& make_domain(const std::string& name, sim::Bytes memory,
                      GuestHooks* hooks, bool privileged,
                      sim::Bytes initial_allocation = 0);

  /// Writes an image's shape and contents into an existing fresh domain.
  void apply_image(DomainId id, const SavedImage& img);

  /// Registers a domain's control-plane entries in the xenstore.
  void register_domain_in_store(const Domain& d);
  /// Accounts one domain-management operation (and its xenstored leak).
  void note_domain_op();

  // Boot-sequence stages shared by boot() and boot_instantly().
  void reserve_preserved_regions();
  void build_dom0();
  void scrub_free_memory();
  void finish_boot();

  [[nodiscard]] sim::Duration create_duration(sim::Bytes memory) const;

  sim::Simulation& sim_;
  const Calibration& calib_;
  hw::Machine& machine_;
  mm::PreservedRegionRegistry& preserved_;
  XenStore& xenstore_;
  obs::Observer& obs_;
  sim::Rng& rng_;
  fault::FaultInjector& faults_;
  BootMode mode_;

  mm::FrameAllocator allocator_;
  VmmHeap heap_;
  XendQueue xend_;
  std::map<DomainId, std::unique_ptr<Domain>> domains_;
  DomainId next_domain_id_ = kDomain0;
  bool ready_ = false;
  bool xexec_loaded_ = false;
  sim::Duration scrub_duration_ = 0;
  std::uint64_t domain_ops_ = 0;
};

}  // namespace rh::vmm
