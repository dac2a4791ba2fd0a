#pragma once
// A pool of read-only model replicas ("shards") for concurrent serving,
// with RCU-style versioned rotation. One model behind a mutex runs
// every batch on one object; a ShardPool instead clones the
// trained model N times via the checkpoint round-trip
// (core::clone_model), so N batches run truly concurrently — one per
// replica — with zero shared mutable state between them. Replicas
// predict bit-identically to the primary.
//
// Shards are handed out as RAII leases: acquire() blocks until a
// replica of the CURRENT version is free, which doubles as natural
// backpressure on the batch dispatcher (at most N batches in flight).
//
// Hot swap (publish): a new immutable replica set becomes the current
// ModelVersion under the pool mutex — reader-side RCU semantics without
// ever blocking serving:
//   - leases taken before the publish keep serving the version they
//     pinned (a micro-batch can never mix model versions);
//   - leases taken after the publish get the new version (acquire
//     waiters re-check the current version on wakeup, so a saturated
//     pool rolls over the moment the swap lands);
//   - a retired version is destroyed when its last lease drops — the
//     lease's shared ownership of the version IS the grace period.
// The replica count is fixed at construction: every publish() clones
// one primary into that many replicas, exactly as the constructor does.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/estimator.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::serve {

class ShardPool {
 public:
  /// Clone `primary` into `shards` independent replicas (generation 1).
  /// shards == 1 serves through `primary` directly (no clone); more
  /// shards require a core::Model (cloned in-memory via the checkpoint
  /// round-trip); other estimator types serve on one shard.
  ShardPool(std::shared_ptr<Estimator> primary, std::size_t shards);

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

 private:
  /// One published model generation: a monotonic id plus an immutable
  /// replica set. `free` (the per-version stack of idle shard indices)
  /// is guarded by the owning pool's mutex_ — it lives here rather than
  /// on the pool so a retired version's releases cannot collide with the
  /// current version's free list. Destroyed (replicas and all) when the
  /// pool has moved on AND the last lease into it drops.
  struct ModelVersion {
    std::uint64_t generation = 0;
    std::vector<std::shared_ptr<Estimator>> replicas;
    std::vector<std::size_t> free;  // guarded by the pool's mutex_
    /// Live-version gauge shared with the pool (decremented on destroy)
    /// — lets tests and operators observe retirement actually happening.
    std::shared_ptr<std::atomic<std::uint64_t>> live_gauge;
    ~ModelVersion();
  };

 public:
  /// Exclusive RAII hold on one replica of one version; releases (and
  /// wakes a waiting acquire) on destruction. The lease shares ownership
  /// of its ModelVersion, so the replica it points at cannot be retired
  /// mid-use — this is the only way to reach a replica.
  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] Estimator& model() const noexcept { return *model_; }
    [[nodiscard]] std::size_t shard() const noexcept { return shard_; }
    /// The model generation this lease pinned at acquire time.
    [[nodiscard]] std::uint64_t generation() const noexcept {
      return version_->generation;
    }

   private:
    friend class ShardPool;
    Lease(ShardPool* pool, std::shared_ptr<ModelVersion> version,
          std::size_t shard) noexcept
        : pool_(pool),
          version_(std::move(version)),
          shard_(shard),
          model_(version_->replicas[shard].get()) {}

    ShardPool* pool_;
    std::shared_ptr<ModelVersion> version_;
    std::size_t shard_;
    Estimator* model_;
  };

  /// Block until a replica of the current version is free and lease it.
  /// A publish() that lands mid-wait redirects the waiter to the new
  /// version (whose replicas are all free).
  [[nodiscard]] Lease acquire() EXCLUDES(mutex_);

  /// Block until the specific shard `shard` of the current version is
  /// free and lease it. Verification access (shard-equivalence tests)
  /// — unlike the raw reference this used to be, the lease pins both
  /// the replica and its version for the caller's whole use.
  [[nodiscard]] Lease acquire_shard(std::size_t shard) EXCLUDES(mutex_);

  /// Publish a new model generation cloned from `primary` (same cloning
  /// contract as the constructor: shard count > 1 requires a
  /// checkpointable core::Model). Cloning runs outside the pool lock —
  /// serving proceeds on the old version throughout — and the swap
  /// itself is one pointer exchange. Returns the new generation.
  std::uint64_t publish(std::shared_ptr<Estimator> primary) EXCLUDES(mutex_);

  /// Replicas of the current version not currently leased. A snapshot —
  /// but with a single acquiring thread (the batch dispatcher) a nonzero
  /// result guarantees its next acquire() will not block, which is what
  /// the adaptive batcher's "is a shard idle right now" check needs.
  [[nodiscard]] std::size_t free_count() const EXCLUDES(mutex_);

  /// Fixed replica count (identical across every published version).
  [[nodiscard]] std::size_t size() const noexcept { return shard_count_; }

  /// Generation of the current version (starts at 1, bumped by publish).
  [[nodiscard]] std::uint64_t generation() const EXCLUDES(mutex_);

  /// Versions still alive: the current one plus any retired version a
  /// lease is still pinning. Returns to 1 once every pre-swap batch has
  /// finished — the observable form of "retired versions are destroyed
  /// when their last lease drops".
  [[nodiscard]] std::uint64_t live_versions() const noexcept {
    return live_gauge_->load(std::memory_order_acquire);
  }

 private:
  void release(ModelVersion& version, std::size_t shard) EXCLUDES(mutex_);
  [[nodiscard]] static std::shared_ptr<ModelVersion> make_version(
      std::uint64_t generation,
      std::vector<std::shared_ptr<Estimator>> replicas,
      const std::shared_ptr<std::atomic<std::uint64_t>>& gauge);

  /// Fixed at construction; every ModelVersion carries exactly this many
  /// replicas.
  const std::size_t shard_count_;
  std::shared_ptr<std::atomic<std::uint64_t>> live_gauge_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);

  mutable sb::Mutex mutex_;
  sb::CondVar free_cv_;
  /// The RCU pointer: swapped wholesale by publish(), never mutated.
  std::shared_ptr<ModelVersion> current_ GUARDED_BY(mutex_);
  /// Acquires blocked; gates the release/publish notify.
  std::size_t waiters_ GUARDED_BY(mutex_) = 0;
};

/// Clone a trained core::Model estimator through the in-memory
/// checkpoint round-trip. Throws std::invalid_argument for estimator
/// types that cannot be cloned this way.
[[nodiscard]] std::shared_ptr<Estimator> clone_estimator(
    const std::shared_ptr<Estimator>& primary);

}  // namespace streambrain::serve
