// Guest operating system: the paravirtualised Linux kernel model.
//
// One GuestOs object models one VM's operating system across its whole
// life, including across VMM reboots: on-memory suspend/resume and
// disk-backed save/restore keep the object's state (that is the point --
// nothing of the OS is lost), while a cold reboot re-creates the domain
// and re-runs boot(), which resets volatile state (page cache, service
// processes) exactly as a real reboot would.
//
// The OS implements the VMM's GuestHooks (suspend/resume handlers, as in
// the XenoLinux kernel) and the page cache's memory backing. At boot it
// stamps a signature token into its first page and re-checks it on every
// resume: if the memory image was corrupted (e.g. the quick-reload
// mechanism failed to preserve frames), the guest crashes -- observable,
// not silent.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "guest/page_cache.hpp"
#include "guest/service.hpp"
#include "guest/vfs.hpp"
#include "vmm/host.hpp"

namespace rh::guest {

enum class OsState : std::uint8_t {
  kHalted,
  kBooting,
  kRunning,
  kShuttingDown,
  kSuspending,
  kSuspended,
  kResuming,
  kCrashed,
};

[[nodiscard]] const char* to_string(OsState s);

class GuestOs : public vmm::GuestHooks, public GuestMemoryBacking {
 public:
  /// PFN where the kernel stamps its integrity signature.
  static constexpr mm::Pfn kSignaturePfn = 0;
  /// First PFN of the page-cache region (kernel text/data below).
  static constexpr mm::Pfn kCacheRegionStart = 4096;  // 16 MiB in

  GuestOs(vmm::Host& host, std::string name, sim::Bytes memory);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Bytes memory() const { return memory_; }

  /// Configures a reduced initial allocation (Xen's memory= < maxmem=):
  /// the domain is created with only this much populated, the rest of the
  /// nominal `memory()` starting as balloon holes -- how an overcommitted
  /// VM boots at all. 0 (default) populates everything. The kernel image
  /// and the page-cache region must still fit. Valid while halted.
  void set_boot_allocation(sim::Bytes bytes);
  [[nodiscard]] sim::Bytes boot_allocation() const { return boot_allocation_; }

  /// One past the last PFN the OS itself uses (kernel + page cache).
  /// Frames above this are reclaim-safe: a balloon inflate that only takes
  /// pages above it never steals a cache or kernel page.
  [[nodiscard]] mm::Pfn cache_region_end_pfn() const;
  [[nodiscard]] OsState state() const { return state_; }
  [[nodiscard]] DomainId domain_id() const { return domain_id_; }
  [[nodiscard]] vmm::Host& host() { return *host_; }
  [[nodiscard]] const vmm::Host& host() const { return *host_; }

  /// Rebinds this guest to another physical host. Only live migration may
  /// call this, at the switch-over point: the OS must be suspended (its
  /// image is in flight) and the new host must be up.
  void rebind_host(vmm::Host& new_host);
  [[nodiscard]] Vfs& vfs() { return vfs_; }
  [[nodiscard]] PageCache& cache() { return cache_; }

  /// True unless a resume found the memory image corrupted.
  [[nodiscard]] bool integrity_ok() const { return integrity_ok_; }

  /// Marks this guest as a driver domain (a domain U running device
  /// drivers, Sec. 7 of the paper). Driver domains cannot be suspended:
  /// a warm-VM reboot must shut them down and boot them like a cold
  /// reboot would, which is why their presence increases downtime.
  void set_driver_domain(bool is_driver) { driver_domain_ = is_driver; }
  [[nodiscard]] bool driver_domain() const { return driver_domain_; }

  // ----------------------------------------------------------- services
  /// Registers a service (started in registration order at each boot).
  Service& add_service(std::unique_ptr<Service> service);
  [[nodiscard]] Service* find_service(const std::string& name);
  [[nodiscard]] const std::vector<std::unique_ptr<Service>>& services() const {
    return services_;
  }

  /// Whether a request to `service` would currently be answered: the host
  /// network path is up, this OS is running, and the service is running.
  [[nodiscard]] bool service_reachable(const Service& service) const;

  // ---------------------------------------------------------- lifecycle
  /// Creates the domain (through xend) and boots the OS + services.
  /// Valid from kHalted. `on_up` fires when every service is up.
  void create_and_boot(std::function<void()> on_up);

  /// Graceful shutdown: stops services, halts, destroys the domain.
  void shutdown(std::function<void()> on_halted);

  /// Pulls the virtual power cord: valid from any non-halted state, takes
  /// zero simulated time, never calls back. Services are force-stopped,
  /// in-flight boot/shutdown continuations are abandoned (epoch bump), and
  /// the domain -- if it still exists -- is destroyed. This is the
  /// supervisor's recovery hammer for hung boots, corrupted images and
  /// crashed VMMs (where the domain is already gone).
  void force_power_off();

  /// The VMM died underneath this running guest, but its memory image was
  /// preserved in RAM (micro-recovery, DESIGN.md §13): the virtual CPUs
  /// simply stop being scheduled. No suspend event is delivered -- the
  /// kernel never ran its handler -- so the transition is instant:
  /// kRunning -> kSuspended, services left in their running configuration
  /// (unreachable while suspended, exactly as across an on-memory
  /// suspend), ready for resume_domain_on_memory against the rebuilt VMM.
  void interrupt_for_vmm_failure();

  // ------------------------------------------------- VMM hooks (kernel)
  void on_suspend_event(std::function<void()> suspend_hypercall) override;
  void on_resume(DomainId new_id, std::function<void()> done) override;

  // ----------------------------------------------- page-cache backing
  void mem_write(mm::Pfn pfn, hw::ContentToken token) override;
  [[nodiscard]] hw::ContentToken mem_read(mm::Pfn pfn) const override;

 private:
  void boot_sequence(std::function<void()> on_up);
  void start_services_from(std::size_t index, std::function<void()> done);
  void stop_services_from(std::size_t index, std::function<void()> done);
  [[nodiscard]] bool memory_accessible() const;

  vmm::Host* host_;  // never null; rebindable only via rebind_host()
  std::string name_;
  sim::Bytes memory_;
  sim::Bytes boot_allocation_ = 0;  // 0 == populate all of memory_
  bool driver_domain_ = false;
  OsState state_ = OsState::kHalted;
  DomainId domain_id_ = kNoDomain;
  /// Bumped by force_power_off(); boot/shutdown continuations capture the
  /// epoch they were scheduled under and become no-ops if it moved on.
  std::uint64_t epoch_ = 0;
  bool integrity_ok_ = true;
  hw::ContentToken signature_ = hw::kScrubbed;
  std::vector<std::unique_ptr<Service>> services_;
  Vfs vfs_;
  PageCache cache_;
};

}  // namespace rh::guest
