// The xexec mechanism: loading a new VMM executable for quick reload.
//
// Mirrors the paper's Section 4.3: domain 0 issues the xexec system call,
// which reads the new executable image (VMM + dom0 kernel + initial RAM
// disk) from disk and hands it to the VMM via the xexec hypercall. The
// actual control transfer happens later, from Host::quick_reload().
#include <utility>

#include "simcore/check.hpp"
#include "vmm/vmm.hpp"

namespace rh::vmm {

void Vmm::xexec_load(std::function<void()> done) {
  ensure(static_cast<bool>(done), "xexec_load: callback required");
  ensure(ready_, "xexec_load: VMM not booted");
  machine_.disk().read(calib_.xexec_image_size, hw::Disk::Access::kSequential,
                       [this, done = std::move(done)] {
                         sim_.after(calib_.xexec_hypercall, [this, done] {
                           // The hypercall can reject the image (bad read,
                           // version check): the time is spent, but the
                           // caller must check xexec_loaded() before
                           // relying on the quick-reload path.
                           if (faults_.roll(fault::FaultKind::kXexecLoadFailure,
                                            sim_.now(), "xexec_load")) {
                             xexec_loaded_ = false;
                             obs_.emit(sim_.now(), obs::Category::kVmm,
                                       obs::EventKind::kFaultInjected,
                                       "xexec load failed", -1,
                                       static_cast<std::uint64_t>(
                                           fault::FaultKind::kXexecLoadFailure));
                             done();
                             return;
                           }
                           xexec_loaded_ = true;
                           obs_.emit(sim_.now(), obs::Category::kVmm,
                                     obs::EventKind::kLifecycle,
                                     "xexec image loaded", -1,
                                     static_cast<std::uint64_t>(
                                         calib_.xexec_image_size));
                           done();
                         });
                       });
}

}  // namespace rh::vmm
