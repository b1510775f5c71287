#include "mm/frame_allocator.hpp"

#include <string>

#include "simcore/check.hpp"

namespace rh::mm {

namespace {

// Cold and out of line: claim() checks every frame of an image, and the
// message must cost nothing unless a check fails.
[[noreturn]] void throw_frame_not_free(hw::FrameNumber mfn) {
  throw_invariant_violation("FrameAllocator::claim: frame " +
                            std::to_string(mfn) + " not free");
}

}  // namespace

FrameAllocator::FrameAllocator(std::int64_t frame_count)
    : total_(frame_count), free_(frame_count) {
  ensure(frame_count > 0, "FrameAllocator: no frames");
  owner_.assign(static_cast<std::size_t>(frame_count), kNoDomain);
}

void FrameAllocator::check_mfn(hw::FrameNumber mfn) const {
  ensure(mfn >= 0 && mfn < total_, "FrameAllocator: MFN out of range");
}

std::vector<hw::FrameNumber> FrameAllocator::allocate(DomainId owner,
                                                      std::int64_t count) {
  ensure(owner != kNoDomain, "FrameAllocator::allocate: invalid owner");
  ensure(count >= 0, "FrameAllocator::allocate: negative count");
  if (count > free_) {
    throw OutOfMachineMemory("FrameAllocator: requested " + std::to_string(count) +
                             " frames, only " + std::to_string(free_) + " free");
  }
  std::vector<hw::FrameNumber> out;
  out.reserve(static_cast<std::size_t>(count));
  // Next-fit scan from the cursor; wraps at most once.
  std::int64_t scanned = 0;
  while (std::int64_t(out.size()) < count && scanned <= total_) {
    if (cursor_ >= total_) cursor_ = 0;
    if (owner_[static_cast<std::size_t>(cursor_)] == kNoDomain) {
      owner_[static_cast<std::size_t>(cursor_)] = owner;
      out.push_back(cursor_);
    }
    ++cursor_;
    ++scanned;
  }
  ensure(std::int64_t(out.size()) == count,
         "FrameAllocator: free count inconsistent with owner map");
  free_ -= count;
  owned_counts_[owner] += count;
  return out;
}

std::vector<hw::FrameNumber> FrameAllocator::allocate_contiguous(
    DomainId owner, std::int64_t count) {
  ensure(owner != kNoDomain, "FrameAllocator::allocate_contiguous: invalid owner");
  ensure(count >= 0, "FrameAllocator::allocate_contiguous: negative count");
  if (count == 0) return {};
  if (count > free_) {
    throw OutOfMachineMemory(
        "FrameAllocator: requested " + std::to_string(count) +
        " contiguous frames, only " + std::to_string(free_) + " free");
  }
  // First-fit over ascending MFN runs.
  std::int64_t run_start = -1;
  std::int64_t run_len = 0;
  for (std::int64_t mfn = 0; mfn < total_; ++mfn) {
    if (owner_[static_cast<std::size_t>(mfn)] == kNoDomain) {
      if (run_len == 0) run_start = mfn;
      if (++run_len == count) {
        std::vector<hw::FrameNumber> out;
        out.reserve(static_cast<std::size_t>(count));
        for (std::int64_t f = run_start; f < run_start + count; ++f) {
          owner_[static_cast<std::size_t>(f)] = owner;
          out.push_back(f);
        }
        free_ -= count;
        owned_counts_[owner] += count;
        return out;
      }
    } else {
      run_len = 0;
    }
  }
  throw OutOfMachineMemory(
      "FrameAllocator: no contiguous run of " + std::to_string(count) +
      " frames (" + std::to_string(free_) + " free, largest run " +
      std::to_string(largest_free_run()) + "): machine memory is fragmented");
}

void FrameAllocator::claim(DomainId owner, std::span<const hw::FrameNumber> frames) {
  ensure(owner != kNoDomain, "FrameAllocator::claim: invalid owner");
  for (const auto mfn : frames) {
    check_mfn(mfn);
    if (owner_[static_cast<std::size_t>(mfn)] != kNoDomain) [[unlikely]] {
      throw_frame_not_free(mfn);
    }
  }
  for (const auto mfn : frames) owner_[static_cast<std::size_t>(mfn)] = owner;
  free_ -= static_cast<std::int64_t>(frames.size());
  owned_counts_[owner] += static_cast<std::int64_t>(frames.size());
}

void FrameAllocator::release(hw::FrameNumber mfn) {
  check_mfn(mfn);
  const DomainId owner = owner_[static_cast<std::size_t>(mfn)];
  ensure(owner != kNoDomain, "FrameAllocator::release: frame already free");
  owner_[static_cast<std::size_t>(mfn)] = kNoDomain;
  ++free_;
  --owned_counts_[owner];
}

std::int64_t FrameAllocator::release_owned(
    DomainId owner, std::span<const hw::FrameNumber> frames) {
  ensure(owner != kNoDomain, "FrameAllocator::release_owned: invalid owner");
  std::int64_t freed = 0;
  for (const auto mfn : frames) {
    check_mfn(mfn);
    auto& slot = owner_[static_cast<std::size_t>(mfn)];
    if (slot == owner) {
      slot = kNoDomain;
      ++freed;
    }
  }
  free_ += freed;
  if (freed > 0) owned_counts_[owner] -= freed;
  return freed;
}

std::int64_t FrameAllocator::release_all(DomainId owner) {
  std::int64_t freed = 0;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == owner) {
      owner_[i] = kNoDomain;
      ++freed;
    }
  }
  free_ += freed;
  owned_counts_.erase(owner);
  return freed;
}

DomainId FrameAllocator::owner_of(hw::FrameNumber mfn) const {
  check_mfn(mfn);
  return owner_[static_cast<std::size_t>(mfn)];
}

std::int64_t FrameAllocator::owned_frames(DomainId owner) const {
  const auto it = owned_counts_.find(owner);
  return it == owned_counts_.end() ? 0 : it->second;
}

std::vector<hw::FrameNumber> FrameAllocator::frames_owned_by(DomainId owner) const {
  std::vector<hw::FrameNumber> out;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == owner) out.push_back(static_cast<hw::FrameNumber>(i));
  }
  return out;
}

std::int64_t FrameAllocator::largest_free_run() const {
  std::int64_t best = 0;
  std::int64_t run = 0;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == kNoDomain) {
      if (++run > best) best = run;
    } else {
      run = 0;
    }
  }
  return best;
}

double FrameAllocator::fragmentation() const {
  if (free_ == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_run()) /
                   static_cast<double>(free_);
}

bool FrameAllocator::accounting_ok() const {
  // Frames come in long runs of one owner (allocate and claim hand out
  // ascending MFNs), so count each run and update the tally once per run.
  std::int64_t seen_free = 0;
  std::unordered_map<DomainId, std::int64_t> seen_counts;
  for (std::size_t i = 0; i < owner_.size();) {
    const DomainId owner = owner_[i];
    const std::size_t run_start = i;
    while (i < owner_.size() && owner_[i] == owner) ++i;
    const auto run = static_cast<std::int64_t>(i - run_start);
    if (owner == kNoDomain) {
      seen_free += run;
    } else {
      seen_counts[owner] += run;
    }
  }
  if (seen_free != free_) return false;
  for (const auto& [owner, count] : seen_counts) {
    const auto it = owned_counts_.find(owner);
    if (it == owned_counts_.end() || it->second != count) return false;
  }
  // No phantom owners: every cached non-zero count must be backed by frames.
  for (const auto& [owner, count] : owned_counts_) {
    if (count == 0) continue;
    const auto it = seen_counts.find(owner);
    if (it == seen_counts.end() || it->second != count) return false;
  }
  return true;
}

}  // namespace rh::mm
