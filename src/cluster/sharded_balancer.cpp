#include "cluster/sharded_balancer.hpp"

#include <utility>

#include "simcore/check.hpp"
#include "simcore/simulation.hpp"

namespace rh::cluster {

ShardedBalancer::ShardedBalancer(std::size_t shards) {
  ensure(shards >= 1, "ShardedBalancer: need at least one shard");
  shards_.resize(shards);
}

std::uint64_t ShardedBalancer::hash_key(std::uint64_t key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void ShardedBalancer::add_backend(Backend backend) {
  ensure(backend.os != nullptr && backend.apache != nullptr,
         "ShardedBalancer: backend needs an OS and a service");
  ensure(!backend.files.empty(), "ShardedBalancer: backend needs content");
  ensure(backend.partition < 0 || engine_ != nullptr,
         "ShardedBalancer: remote backend without bind_parallel");
  ensure(quiescent(), "ShardedBalancer::add_backend: topology is fixed once "
                      "the engine runs");
  const auto b = static_cast<std::uint32_t>(backends_.size());
  const std::size_t owner = backend.host_index % shards_.size();
  backends_.push_back(std::move(backend));
  for (auto& sh : shards_) {
    sh.evicted.push_back(0);
    sh.pressured.push_back(0);
    sh.crashed.push_back(0);
    sh.next_file.push_back(0);
  }
  shards_[owner].owned.push_back(b);
}

void ShardedBalancer::bind_parallel(sim::ParallelSimulation& engine,
                                    std::int32_t first_shard_partition,
                                    sim::Duration rpc_latency) {
  ensure(engine_ == nullptr, "ShardedBalancer::bind_parallel: already bound");
  ensure(rpc_latency >= engine.lookahead(),
         "ShardedBalancer::bind_parallel: RPC latency below the lookahead");
  ensure(first_shard_partition >= 0 &&
             first_shard_partition + static_cast<std::int32_t>(shards_.size()) <=
                 engine.partition_count(),
         "ShardedBalancer::bind_parallel: shard partitions out of range");
  engine_ = &engine;
  first_shard_partition_ = first_shard_partition;
  rpc_latency_ = rpc_latency;
}

// Membership views are partition-local state. A shard on the calling
// partition (or any shard while the engine is quiescent) is updated in
// place; the others get the change through the mailboxes, one RPC latency
// later (deterministically, like any other message).
template <typename Apply>
void ShardedBalancer::update_views(Apply apply) {
  const std::int32_t caller = quiescent() ? -1 : sim::current_partition();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (caller < 0 || shard_partition(s) == caller) {
      apply(shards_[s]);
      continue;
    }
    engine_->post(shard_partition(s), rpc_latency_,
                  [this, s, apply] { apply(shards_[s]); });
  }
}

void ShardedBalancer::set_host_evicted(std::size_t host_index, bool evicted) {
  update_views([this, host_index, evicted](Shard& sh) {
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      if (backends_[b].host_index == host_index) {
        sh.evicted[b] = evicted ? 1 : 0;
      }
    }
  });
}

void ShardedBalancer::set_host_pressured(std::size_t host_index,
                                         bool pressured) {
  update_views([this, host_index, pressured](Shard& sh) {
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      if (backends_[b].host_index == host_index) {
        sh.pressured[b] = pressured ? 1 : 0;
      }
    }
  });
}

void ShardedBalancer::set_host_crashed(std::size_t host_index, bool crashed) {
  // Tracks whether the host's membership actually flipped so
  // crashed_hosts stays balanced under repeated broadcasts.
  update_views([this, host_index, crashed](Shard& sh) {
    const std::uint8_t want = crashed ? 1 : 0;
    bool changed = false;
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      if (backends_[b].host_index != host_index) continue;
      if (sh.crashed[b] != want) {
        sh.crashed[b] = want;
        changed = true;
      }
    }
    if (changed) {
      sh.crashed_hosts += crashed ? 1u : -1u;
      ++sh.crash_events;
    }
  });
}

void ShardedBalancer::dispatch(std::uint64_t key,
                               std::function<void(bool)> done) {
  start_on(home_shard(key), std::move(done));
}

void ShardedBalancer::dispatch_on(std::size_t shard, std::uint64_t /*key*/,
                                  std::function<void(bool)> done) {
  ensure(shard < shards_.size(), "ShardedBalancer::dispatch_on: bad shard");
  start_on(shard, std::move(done));
}

void ShardedBalancer::start_on(std::size_t shard,
                               std::function<void(bool)> done) {
  ensure(static_cast<bool>(done), "ShardedBalancer: callback required");
  ensure(!backends_.empty(), "ShardedBalancer: no backends");
  auto state = std::make_shared<Request>();
  state->done = std::move(done);
  state->home_shard = static_cast<std::uint32_t>(shard);
  state->current_shard = state->home_shard;
  state->shards_left = static_cast<std::uint32_t>(shards_.size());
  state->probes_left = static_cast<std::uint32_t>(shards_[shard].owned.size());
  if (engine_ == nullptr) {
    try_shard(std::move(state));
    return;
  }
  const std::int32_t caller = sim::current_partition();
  ensure(caller >= 0, "ShardedBalancer::dispatch: call from inside partition "
                      "execution (seed with ParallelSimulation::run_on)");
  state->reply_partition = caller;
  if (caller == shard_partition(shard)) {
    try_shard(std::move(state));
    return;
  }
  engine_->post(shard_partition(shard), rpc_latency_,
                [this, state = std::move(state)]() mutable {
    try_shard(std::move(state));
  });
}

// Runs on the current shard's partition under the engine (inline in
// sequential mode). One candidate per iteration; a remote probe suspends
// the loop until its reply lands back on this shard.
void ShardedBalancer::try_shard(std::shared_ptr<Request> state) {
  Shard& sh = shards_[state->current_shard];
  while (state->probes_left > 0) {
    --state->probes_left;
    const std::uint32_t b = sh.owned[sh.rr % sh.owned.size()];
    ++sh.rr;
    if (sh.evicted[b] != 0 || sh.crashed[b] != 0) continue;
    if (sh.pressured[b] != 0 && !state->allow_pressured) continue;
    const Backend& be = backends_[b];
    if (engine_ == nullptr) {
      if (!be.os->service_reachable(*be.apache)) continue;
      serve(sh, b, std::move(state));
      return;
    }
    // Probe RPC: reachability lives host-side. The reply re-checks the
    // shard's membership view before anything is served.
    guest::GuestOs* os = be.os;
    guest::ApacheService* apache = be.apache;
    engine_->post(backend_partition(b), rpc_latency_,
                  [this, os, apache, b, state = std::move(state)]() mutable {
      const bool up = os->service_reachable(*apache);
      const auto shard = static_cast<std::size_t>(state->current_shard);
      engine_->post(shard_partition(shard), rpc_latency_,
                    [this, up, b, state = std::move(state)]() mutable {
        probe_reply(up, b, std::move(state));
      });
    });
    return;
  }
  next_ring_hop(std::move(state));
}

void ShardedBalancer::probe_reply(bool up, std::uint32_t b,
                                  std::shared_ptr<Request> state) {
  Shard& sh = shards_[state->current_shard];
  // Membership re-check: an eviction (or pressure flag) that landed while
  // the probe was in flight must win -- the stale "up" reply alone never
  // puts a backend back in rotation.
  if (!up || sh.evicted[b] != 0 || sh.crashed[b] != 0 ||
      (sh.pressured[b] != 0 && !state->allow_pressured)) {
    try_shard(std::move(state));
    return;
  }
  serve(sh, b, std::move(state));
}

void ShardedBalancer::serve(Shard& sh, std::uint32_t b,
                            std::shared_ptr<Request> state) {
  const Backend& be = backends_[b];
  const std::int64_t file = be.files[sh.next_file[b] % be.files.size()];
  ++sh.next_file[b];
  ++sh.dispatched;
  if (state->current_shard != state->home_shard) ++sh.federated;
  if (engine_ == nullptr) {
    be.apache->serve_file(*be.os, file, std::move(state->done));
    return;
  }
  guest::GuestOs* os = be.os;
  guest::ApacheService* apache = be.apache;
  engine_->post(backend_partition(b), rpc_latency_,
                [this, os, apache, file, state = std::move(state)]() mutable {
    // serve_file itself reports failure if the host went down between the
    // probe reply and this serve landing; the fleet retries on done(false).
    apache->serve_file(*os, file,
                       [this, state = std::move(state)](bool ok) mutable {
      const std::int32_t reply = state->reply_partition;
      engine_->post(reply, rpc_latency_, [ok, state = std::move(state)] {
        state->done(ok);
      });
    });
  });
}

void ShardedBalancer::next_ring_hop(std::shared_ptr<Request> state) {
  if (state->shards_left > 1) {
    // Spill over to the next shard on the ring; it continues with its own
    // cursors and membership view.
    --state->shards_left;
    const auto next = static_cast<std::size_t>(
        (state->current_shard + 1) % shards_.size());
    state->current_shard = static_cast<std::uint32_t>(next);
    state->probes_left =
        static_cast<std::uint32_t>(shards_[next].owned.size());
    if (engine_ == nullptr) {
      try_shard(std::move(state));
      return;
    }
    engine_->post(shard_partition(next), rpc_latency_,
                  [this, state = std::move(state)]() mutable {
      try_shard(std::move(state));
    });
    return;
  }
  if (!state->allow_pressured) {
    // Second lap: nothing unpressured answered anywhere on the ring, so
    // accept pressured backends as a last resort, starting back at home.
    state->allow_pressured = true;
    state->shards_left = static_cast<std::uint32_t>(shards_.size());
    const auto home = static_cast<std::size_t>(state->home_shard);
    state->current_shard = state->home_shard;
    state->probes_left =
        static_cast<std::uint32_t>(shards_[home].owned.size());
    if (engine_ == nullptr) {
      try_shard(std::move(state));
      return;
    }
    engine_->post(shard_partition(home), rpc_latency_,
                  [this, state = std::move(state)]() mutable {
      try_shard(std::move(state));
    });
    return;
  }
  ++shards_[state->current_shard].rejected;
  if (engine_ == nullptr) {
    state->done(false);
    return;
  }
  const std::int32_t reply = state->reply_partition;
  engine_->post(reply, rpc_latency_, [state = std::move(state)] {
    state->done(false);
  });
}

std::int32_t ShardedBalancer::backend_partition(std::uint32_t b) const {
  const std::int32_t p = backends_[b].partition;
  return p >= 0 ? p : sim::current_partition();
}

std::uint64_t ShardedBalancer::dispatched() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.dispatched;
  return n;
}

std::uint64_t ShardedBalancer::rejected() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.rejected;
  return n;
}

std::uint64_t ShardedBalancer::federated() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.federated;
  return n;
}

std::size_t ShardedBalancer::evicted_backends() const {
  std::size_t n = 0;
  for (const auto e : shards_.front().evicted) n += e != 0 ? 1 : 0;
  return n;
}

std::size_t ShardedBalancer::pressured_backends() const {
  std::size_t n = 0;
  for (const auto p : shards_.front().pressured) n += p != 0 ? 1 : 0;
  return n;
}

std::size_t ShardedBalancer::crashed_backends() const {
  std::size_t n = 0;
  for (const auto c : shards_.front().crashed) n += c != 0 ? 1 : 0;
  return n;
}

std::uint64_t ShardedBalancer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const auto& sh : shards_) {
    mix(sh.rr);
    mix(sh.dispatched);
    mix(sh.rejected);
    mix(sh.federated);
    for (const auto f : sh.next_file) mix(f);
    for (const auto e : sh.evicted) mix(e);
    for (const auto p : sh.pressured) mix(p);
    // Crash-membership state is mixed only once a broadcast has touched
    // this shard: crash-free runs keep the exact pre-crash digest chain.
    if (sh.crash_events != 0) {
      mix(sh.crash_events);
      mix(sh.crashed_hosts);
      for (const auto c : sh.crashed) mix(c);
    }
  }
  return h;
}

}  // namespace rh::cluster
