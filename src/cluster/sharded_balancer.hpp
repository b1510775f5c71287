// Sharded, federated request dispatch: the cluster's load balancer.
//
// One round-robin cursor is a scaling bottleneck past tens of hosts:
// every dispatch would serialise through it. The ShardedBalancer
// partitions the session space by session-key hash across N shards.
// Each shard owns a disjoint subset of the backends (host h's VMs belong
// to shard h % N), keeps its own round-robin cursor and per-backend file
// cursors, and -- under the parallel engine -- lives on its own event
// partition so dispatch is parallel-in-run (DESIGN.md §12). With one
// shard it is the paper's single balancer (Section 6): round-robin over
// the reachable backends, skipping hosts while their VMM reboots.
//
// Federation: when a shard's own backends are all evicted, pressured or
// unreachable, the request spills over to the next shard in ring order,
// first refusing pressured backends everywhere, then (second lap)
// accepting them as a last resort. Ring order from the home shard is a
// pure function of the session key, so failover is deterministic and
// bitwise identical for any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "simcore/parallel.hpp"

namespace rh::cluster {

class ShardedBalancer {
 public:
  struct Backend {
    guest::GuestOs* os = nullptr;
    guest::ApacheService* apache = nullptr;
    std::vector<std::int64_t> files;  ///< replicated content on this backend
    std::size_t host_index = 0;       ///< owning host; decides the shard
    /// Event partition the backend's host lives on (-1 = same calendar as
    /// the shards, i.e. the sequential fast path).
    std::int32_t partition = -1;
  };

  explicit ShardedBalancer(std::size_t shards);
  ShardedBalancer(const ShardedBalancer&) = delete;
  ShardedBalancer& operator=(const ShardedBalancer&) = delete;

  /// splitmix64 finaliser: decorrelates dense session keys before the
  /// modulo so shard assignment is uniform even for keys 0..M-1.
  [[nodiscard]] static std::uint64_t hash_key(std::uint64_t key);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] std::size_t home_shard(std::uint64_t key) const {
    return static_cast<std::size_t>(hash_key(key) % shards_.size());
  }

  /// Registers a backend with its owning shard (host_index % shards).
  /// Topology is fixed at setup: call only while the engine (if any) is
  /// quiescent.
  void add_backend(Backend backend);

  /// Partitioned mode: shard s lives on partition first_shard_partition+s
  /// and reaches backends over request/reply RPCs with one-way latency
  /// `rpc_latency` (>= the engine lookahead). dispatch()/dispatch_on()
  /// must then be called from inside partition execution.
  void bind_parallel(sim::ParallelSimulation& engine,
                     std::int32_t first_shard_partition,
                     sim::Duration rpc_latency);

  [[nodiscard]] std::int32_t shard_partition(std::size_t shard) const {
    return engine_ != nullptr
               ? first_shard_partition_ + static_cast<std::int32_t>(shard)
               : -1;
  }

  /// Administratively removes (or restores) every backend on `host_index`
  /// from rotation, on every shard's membership view. Quiescent callers
  /// update the views directly; while the engine runs, a shard on the
  /// calling partition is updated in place and every other shard gets the
  /// change through the mailboxes one RPC latency later
  /// (deterministically, like any other message).
  void set_host_evicted(std::size_t host_index, bool evicted);
  /// Same broadcast for the memory-pressure flag: a pressured host stays
  /// in service but only receives requests when nothing unpressured
  /// answers anywhere on the ring.
  void set_host_pressured(std::size_t host_index, bool pressured);
  /// Crash-evict/readmit membership broadcast for *unplanned* downtime
  /// (DESIGN.md §14): takes a crashed host's backends out of every shard's
  /// view like an administrative eviction, but on its own flag so a crash
  /// readmit can never cancel an administrative eviction (or vice versa).
  /// Re-broadcasting the current state is a no-op shard-side, so the
  /// membership counters stay balanced.
  void set_host_crashed(std::size_t host_index, bool crashed);

  /// Dispatches one request for `key` starting at its home shard.
  /// Sequential mode: runs inline. Engine mode: call from inside
  /// partition execution; `done` fires on the calling partition.
  void dispatch(std::uint64_t key, std::function<void(bool)> done);

  /// Fast path for callers already executing on `shard`'s partition (the
  /// batched session fleet pins sessions to shards): skips the initial
  /// routing hop; `done` fires on that same partition.
  void dispatch_on(std::size_t shard, std::uint64_t key,
                   std::function<void(bool)> done);

  /// Aggregate counters (sum over shards). Quiescent reads only.
  [[nodiscard]] std::uint64_t dispatched() const;
  [[nodiscard]] std::uint64_t rejected() const;
  /// Requests served by a shard other than their home shard (spillover).
  [[nodiscard]] std::uint64_t federated() const;
  [[nodiscard]] std::uint64_t shard_dispatched(std::size_t shard) const {
    return shards_[shard].dispatched;
  }
  [[nodiscard]] std::uint64_t shard_rejected(std::size_t shard) const {
    return shards_[shard].rejected;
  }
  [[nodiscard]] std::uint64_t shard_federated(std::size_t shard) const {
    return shards_[shard].federated;
  }
  /// Backends evicted on shard 0's view (all views agree when quiescent).
  [[nodiscard]] std::size_t evicted_backends() const;
  /// Backends pressured on shard 0's view. Quiescent reads only.
  [[nodiscard]] std::size_t pressured_backends() const;
  /// Backends crash-evicted on shard 0's view. Quiescent reads only.
  [[nodiscard]] std::size_t crashed_backends() const;
  /// Hosts this shard's view currently knows to be crash-down. Safe to
  /// read from the shard's own partition mid-run: the session fleet uses
  /// it to attribute a beginning outage as planned vs unplanned.
  [[nodiscard]] std::uint32_t shard_unplanned_down(std::size_t shard) const {
    return shards_[shard].crashed_hosts;
  }
  /// Crash-evict/readmit broadcasts applied to shard 0's view (monotone).
  [[nodiscard]] std::uint64_t crash_broadcasts() const {
    return shards_.front().crash_events;
  }

  /// FNV-1a over every shard's cursors and counters; worker-count
  /// invariant under the engine. Quiescent reads only.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// Per-shard hot state, cache-line padded: under the engine each shard
  /// is touched only from its own partition, so shards never share lines.
  struct alignas(64) Shard {
    std::vector<std::uint32_t> owned;      ///< backend indices, add order
    std::size_t rr = 0;                    ///< shard-local round-robin
    std::vector<std::uint8_t> evicted;     ///< per-backend membership view
    std::vector<std::uint8_t> pressured;   ///< per-backend pressure view
    std::vector<std::uint8_t> crashed;     ///< per-backend crash-down view
    std::vector<std::uint32_t> next_file;  ///< shard-local file cursors
    std::uint64_t dispatched = 0;
    std::uint64_t rejected = 0;
    std::uint64_t federated = 0;
    std::uint32_t crashed_hosts = 0;  ///< hosts currently crash-down here
    std::uint64_t crash_events = 0;   ///< crash broadcasts applied (monotone)
  };
  /// One in-flight request walking the ring. Probes are one RPC at a
  /// time; the reply re-checks the shard's membership view before the
  /// serve is issued (an eviction during the probe's flight must win).
  struct Request {
    std::function<void(bool)> done;
    std::int32_t reply_partition = -1;  ///< where done() must run
    std::uint32_t home_shard = 0;
    std::uint32_t current_shard = 0;
    std::uint32_t shards_left = 0;   ///< ring hops left in this lap
    std::uint32_t probes_left = 0;   ///< candidates left on current shard
    bool allow_pressured = false;    ///< second-lap last-resort flag
  };

  template <typename Apply>
  void update_views(Apply apply);
  void start_on(std::size_t shard, std::function<void(bool)> done);
  void try_shard(std::shared_ptr<Request> state);
  void probe_reply(bool up, std::uint32_t b, std::shared_ptr<Request> state);
  void serve(Shard& sh, std::uint32_t b, std::shared_ptr<Request> state);
  void next_ring_hop(std::shared_ptr<Request> state);
  [[nodiscard]] std::int32_t backend_partition(std::uint32_t b) const;
  [[nodiscard]] bool quiescent() const {
    return engine_ == nullptr || !engine_->running();
  }

  std::vector<Backend> backends_;  ///< append-only; frozen once running
  std::vector<Shard> shards_;
  sim::ParallelSimulation* engine_ = nullptr;
  std::int32_t first_shard_partition_ = -1;
  sim::Duration rpc_latency_ = 0;
};

}  // namespace rh::cluster
