#include "rejuv/admission.hpp"

#include <algorithm>

#include "simcore/check.hpp"

namespace rh::rejuv {

namespace {

struct Candidate {
  guest::GuestOs* guest = nullptr;
  std::int64_t demand = 0;      // preserved frames if suspended now
  std::int64_t reclaimable = 0; // balloon pages admission may take
};

}  // namespace

AdmissionController::AdmissionController(vmm::Host& host, AdmissionConfig config)
    : host_(host), config_(config) {
  ensure(config_.balloon_reclaim_fraction >= 0.0 &&
             config_.balloon_reclaim_fraction <= 1.0,
         "AdmissionController: balloon_reclaim_fraction out of [0,1]");
  ensure(config_.max_saved_demotions >= -1,
         "AdmissionController: max_saved_demotions must be >= -1");
}

std::int64_t AdmissionController::preserved_frames_for(
    const guest::GuestOs& g) const {
  const auto* d = host_.vmm().find_domain_by_name(g.name());
  if (d == nullptr) [[unlikely]] {
    throw_invariant_violation("AdmissionController: guest '" + g.name() +
                              "' has no domain");
  }
  // Frozen frames are exactly the populated pages. The metadata payload is
  // dominated by the serialised P2M (8 B per nominal PFN); the execution
  // state, event channels and name ride in a couple of frames of slack --
  // a deliberate over-estimate (see header).
  const sim::Bytes meta_bytes = d->p2m().size_bytes() +
                                vmm::ExecState::kFootprint + 2 * sim::kPageSize;
  return d->p2m().populated() + (meta_bytes + sim::kPageSize - 1) / sim::kPageSize;
}

std::int64_t AdmissionController::reclaim_safe_pages(
    const guest::GuestOs& g) const {
  const auto* d = host_.vmm().find_domain_by_name(g.name());
  if (d == nullptr) [[unlikely]] {
    throw_invariant_violation("AdmissionController: guest '" + g.name() +
                              "' has no domain");
  }
  // Populated pages always form a PFN prefix in this model (creation
  // populates from the bottom, inflate takes the highest populated page,
  // deflate refills the lowest hole), so everything above the kernel +
  // page-cache region is reclaim-safe.
  return std::max<std::int64_t>(0, d->p2m().populated() - g.cache_region_end_pfn());
}

std::int64_t AdmissionController::available_budget_frames() const {
  const auto& calib = host_.calib();
  const std::int64_t total = host_.vmm().allocator().total_frames();
  const std::int64_t vmm_reserved = calib.vmm_reserved_memory / sim::kPageSize;
  const std::int64_t dom0 = vmm::Domain::pages_for(calib.dom0_memory);
  const std::int64_t capacity = total - vmm_reserved - dom0;
  const std::int64_t configured = host_.preserved().frame_budget();
  const std::int64_t budget =
      configured > 0 ? std::min(configured, capacity) : capacity;
  // Regions already recorded (leaked stale regions, unreleased images)
  // occupy the budget before this pass records anything.
  return budget - host_.preserved().reserved_frames();
}

AdmissionPlan AdmissionController::plan(
    const std::vector<guest::GuestOs*>& candidates) const {
  AdmissionPlan out;
  out.budget_frames = available_budget_frames();

  std::vector<Candidate> entries;
  for (auto* g : candidates) {
    ensure(g != nullptr, "AdmissionController::plan: null guest");
    if (g->state() != guest::OsState::kRunning || g->driver_domain()) continue;
    Candidate c;
    c.guest = g;
    c.demand = preserved_frames_for(*g);
    c.reclaimable = static_cast<std::int64_t>(
        static_cast<double>(reclaim_safe_pages(*g)) *
        config_.balloon_reclaim_fraction);
    out.demand_frames += c.demand;
    entries.push_back(c);
  }
  // Largest demand first; names break ties so the plan is a pure function
  // of simulator state.
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.demand != b.demand) return a.demand > b.demand;
              return a.guest->name() < b.guest->name();
            });

  std::int64_t need = out.demand_frames - out.budget_frames;

  // Rung 1: balloon-reclaim from the largest VMs until the shortfall is
  // covered or nothing reclaim-safe remains.
  std::vector<std::int64_t> taken(entries.size(), 0);
  for (std::size_t i = 0; i < entries.size() && need > 0; ++i) {
    const std::int64_t take = std::min(entries[i].reclaimable, need);
    if (take > 0) {
      taken[i] = take;
      need -= take;
    }
  }

  // Rungs 2-3: demote the largest remainers outright. A demoted VM's
  // planned reclaim is pointless (its whole demand leaves the preserved
  // path), so it is credited back first.
  std::vector<bool> demoted(entries.size(), false);
  int saved_used = 0;
  for (std::size_t i = 0; i < entries.size() && need > 0; ++i) {
    need += taken[i];
    taken[i] = 0;
    demoted[i] = true;
    need -= entries[i].demand;
    const bool saved_allowed =
        config_.demote_to_saved &&
        (config_.max_saved_demotions < 0 ||
         saved_used < config_.max_saved_demotions);
    if (saved_allowed) {
      out.demote_saved.push_back(entries[i].guest);
      ++saved_used;
    } else {
      out.demote_cold.push_back(entries[i].guest);
    }
  }

  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (demoted[i]) continue;
    if (taken[i] > 0) out.reclaims.push_back({entries[i].guest, taken[i]});
    out.warm.emplace_back(entries[i].guest, entries[i].demand - taken[i]);
  }
  return out;
}

}  // namespace rh::rejuv
