#include "cluster/vm_migrator.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::cluster {

void VmMigrator::migrate(guest::GuestOs& vm, vmm::Host& dst,
                         std::function<void(const Result&)> done) {
  ensure(static_cast<bool>(done), "VmMigrator: callback required");
  ensure(!in_progress_, "VmMigrator: one migration at a time");
  ensure(vm.state() == guest::OsState::kRunning,
         "VmMigrator: VM must be running");
  vmm::Host& src = vm.host();
  ensure(&src != &dst, "VmMigrator: source and destination are the same host");
  // Migration mutates both hosts synchronously (allocator checks, rebind,
  // restore), which only stays race-free when both calendars are the same
  // partition. Cross-partition migration would need an ownership-transfer
  // protocol through the engine mailboxes -- rejected loudly until then.
  ensure(src.sim().partition_id() == dst.sim().partition_id(),
         "VmMigrator: cross-partition migration is not supported -- "
         "co-locate the hosts on one partition");
  ensure(src.up() && dst.up(), "VmMigrator: both hosts must be up");
  ensure(config_.effective_bps > config_.dirty_bps,
         "VmMigrator: dirty rate exceeds transfer rate");
  const auto pages = vm.memory() / sim::kPageSize;
  ensure(dst.vmm().allocator().free_frames() >= pages,
         "VmMigrator: destination lacks free memory");
  ensure(dst.vmm().find_domain_by_name(vm.name()) == nullptr,
         "VmMigrator: destination already hosts a domain of this name");

  in_progress_ = true;
  vm_ = &vm;
  src_ = &src;
  dst_ = &dst;
  done_ = std::move(done);
  started_at_ = src.sim().now();
  transferred_ = 0;
  rounds_ = 0;
  result_ = {};
  src.set_background_transfer(true);
  dst.set_background_transfer(true);
  // The migration span (and its pre-copy/stop-and-copy children) live in
  // the *source* host's observer: that host carries the transfer.
  if (src.obs().enabled()) {
    outer_ambient_ = src.obs().ambient();
    migration_span_ = src.obs().span_open(
        started_at_, obs::Phase::kMigration, "migrate " + vm.name());
    src.obs().set_ambient(migration_span_);
  }
  precopy_round(vm.memory());
}

void VmMigrator::precopy_round(sim::Bytes to_send) {
  if (rounds_ >= config_.max_rounds || to_send <= config_.stop_threshold) {
    stop_and_copy(to_send);
    return;
  }
  // The migration stream can die mid-pre-copy (TCP reset, destination
  // daemon crash). Safe failure mode: the VM never stopped running on the
  // source, so aborting costs only the bandwidth already spent.
  if (src_->faults().roll(fault::FaultKind::kMigrationAbort, src_->sim().now(),
                          "migrate:" + vm_->name() + ":round" +
                              std::to_string(rounds_))) {
    abort();
    return;
  }
  // The VM keeps running and dirtying memory while this round streams at
  // the migration algorithm's (rate-limited) effective bandwidth.
  const sim::SimTime round_start = src_->sim().now();
  obs::SpanId round_span = obs::kNoSpan;
  if (src_->obs().enabled()) {
    round_span = src_->obs().span_open_under(
        round_start, obs::Phase::kPreCopyRound,
        "pre-copy round " + std::to_string(rounds_), migration_span_);
  }
  src_->link().bulk_transfer_at(to_send, config_.effective_bps,
                                [this, to_send, round_start, round_span] {
    transferred_ += to_send;
    ++rounds_;
    src_->obs().span_close(round_span, src_->sim().now());
    const auto elapsed = src_->sim().now() - round_start;
    const auto dirtied = static_cast<sim::Bytes>(
        sim::to_seconds(elapsed) * config_.dirty_bps);
    precopy_round(dirtied);
  });
}

void VmMigrator::stop_and_copy(sim::Bytes residue) {
  // Final phase: suspend the domain with the same on-memory machinery the
  // warm-VM reboot uses, capture its state, ship the residue, rebuild on
  // the destination.
  suspended_at_ = src_->sim().now();
  stop_copy_span_ = src_->obs().span_open_under(
      suspended_at_, obs::Phase::kStopAndCopy, "stop-and-copy",
      migration_span_);
  const DomainId src_id = vm_->domain_id();
  src_->vmm().suspend_domain_on_memory(src_id, [this, src_id, residue] {
    auto image = src_->vmm().capture_image(src_id);
    // The source is done with the domain: release its frames and drop the
    // preserved record the suspend created.
    src_->preserved().erase(std::string(vmm::Vmm::kRegionPrefix) +
                            vm_->name());
    src_->vmm().destroy_domain(src_id);
    // Ship the dirty residue plus the execution state.
    const auto final_bytes = residue + vmm::ExecState::kFootprint;
    src_->link().bulk_transfer_at(final_bytes, config_.effective_bps,
                                  [this, final_bytes,
                                   image = std::move(image)] {
      transferred_ += final_bytes;
      vm_->rebind_host(*dst_);
      dst_->vmm().restore_domain_from_image(
          image, vm_, [this](DomainId new_id) {
            result_.destination_domain = new_id;
            finish();
          });
    });
  });
}

void VmMigrator::abort() {
  result_.success = false;
  result_.estimate.total = src_->sim().now() - started_at_;
  result_.estimate.rounds = rounds_;
  result_.estimate.bytes_transferred = transferred_;
  src_->set_background_transfer(false);
  dst_->set_background_transfer(false);
  obs::Observer& obs = src_->obs();
  if (obs.enabled()) {
    obs.emit(src_->sim().now(), obs::Category::kMigrate,
             obs::EventKind::kDomain, "migration aborted", -1,
             static_cast<std::uint64_t>(rounds_),
             static_cast<std::uint64_t>(transferred_));
    obs.span_close(migration_span_, src_->sim().now());
    obs.set_ambient(outer_ambient_);
    migration_span_ = obs::kNoSpan;
    ++obs.metrics().counter("migrate.aborted");
  }
  in_progress_ = false;
  auto done = std::move(done_);
  done(result_);
}

void VmMigrator::finish() {
  result_.success = true;
  result_.estimate.total = src_->sim().now() - started_at_;
  result_.estimate.rounds = rounds_;
  result_.estimate.bytes_transferred = transferred_;
  result_.estimate.stop_and_copy = src_->sim().now() - suspended_at_;
  result_.observed_downtime = src_->sim().now() - suspended_at_;
  src_->set_background_transfer(false);
  dst_->set_background_transfer(false);
  obs::Observer& obs = src_->obs();
  if (obs.enabled()) {
    obs.span_close(stop_copy_span_, src_->sim().now());
    obs.span_close(migration_span_, src_->sim().now());
    obs.set_ambient(outer_ambient_);
    stop_copy_span_ = obs::kNoSpan;
    migration_span_ = obs::kNoSpan;
    obs::MetricsRegistry& m = obs.metrics();
    ++m.counter("migrate.completed");
    m.histogram("migrate.downtime_us").add(result_.observed_downtime);
    m.histogram("migrate.total_us").add(result_.estimate.total);
  }
  in_progress_ = false;
  auto done = std::move(done_);
  done(result_);
}

}  // namespace rh::cluster
