#include "serve/shard_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/model.hpp"
#include "core/serialization.hpp"

namespace streambrain::serve {

std::shared_ptr<Estimator> clone_estimator(
    const std::shared_ptr<Estimator>& primary) {
  if (!primary) throw std::invalid_argument("clone_estimator: null model");
  if (const auto* model = dynamic_cast<const core::Model*>(primary.get())) {
    return std::make_shared<core::Model>(core::clone_model(*model));
  }
  throw std::invalid_argument(
      "clone_estimator: '" + primary->name() +
      "' cannot be replicated via the checkpoint round-trip; serve it on "
      "one shard");
}

namespace {

/// Replica set for one generation: `primary` serves shard 0, clones fill
/// the rest. Runs outside any pool lock — this is the expensive part of
/// a publish and must never stall serving.
std::vector<std::shared_ptr<Estimator>> build_replicas(
    std::shared_ptr<Estimator> primary, std::size_t shards) {
  if (!primary) throw std::invalid_argument("ShardPool: null model");
  if (shards == 0) throw std::invalid_argument("ShardPool: shards must be > 0");
  std::vector<std::shared_ptr<Estimator>> replicas;
  replicas.reserve(shards);
  replicas.push_back(std::move(primary));
  for (std::size_t s = 1; s < shards; ++s) {
    replicas.push_back(clone_estimator(replicas.front()));
  }
  return replicas;
}

}  // namespace

ShardPool::ModelVersion::~ModelVersion() {
  if (live_gauge) live_gauge->fetch_sub(1, std::memory_order_acq_rel);
}

std::shared_ptr<ShardPool::ModelVersion> ShardPool::make_version(
    std::uint64_t generation, std::vector<std::shared_ptr<Estimator>> replicas,
    const std::shared_ptr<std::atomic<std::uint64_t>>& gauge) {
  auto version = std::make_shared<ModelVersion>();
  version->generation = generation;
  version->replicas = std::move(replicas);
  version->free.reserve(version->replicas.size());
  for (std::size_t s = 0; s < version->replicas.size(); ++s) {
    version->free.push_back(version->replicas.size() - 1 - s);
  }
  version->live_gauge = gauge;
  gauge->fetch_add(1, std::memory_order_acq_rel);
  return version;
}

ShardPool::ShardPool(std::shared_ptr<Estimator> primary, std::size_t shards)
    : shard_count_(shards) {
  std::vector<std::shared_ptr<Estimator>> replicas =
      build_replicas(std::move(primary), shards);
  const sb::MutexLock lock(mutex_);
  current_ = make_version(1, std::move(replicas), live_gauge_);
}

ShardPool::Lease::Lease(Lease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      version_(std::move(other.version_)),
      shard_(other.shard_),
      model_(other.model_) {}

ShardPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(*version_, shard_);
  // version_ drops after release: a retired version's last lease
  // destroys it here, replicas and all.
}

ShardPool::Lease ShardPool::acquire() {
  const sb::MutexLock lock(mutex_);
  // Re-read current_ after every wakeup: a publish() swaps the version
  // mid-wait and the waiter must lease from the NEW (all-free) set, not
  // keep watching the retired one.
  while (current_->free.empty()) {
    ++waiters_;
    free_cv_.wait(mutex_);
    --waiters_;
  }
  const std::size_t shard = current_->free.back();
  current_->free.pop_back();
  return Lease(this, current_, shard);
}

ShardPool::Lease ShardPool::acquire_shard(std::size_t shard) {
  if (shard >= shard_count_) {
    throw std::out_of_range("ShardPool::acquire_shard: no such shard");
  }
  const sb::MutexLock lock(mutex_);
  for (;;) {
    auto& free = current_->free;
    const auto it = std::find(free.begin(), free.end(), shard);
    if (it != free.end()) {
      free.erase(it);
      return Lease(this, current_, shard);
    }
    ++waiters_;
    free_cv_.wait(mutex_);
    --waiters_;
  }
}

std::uint64_t ShardPool::publish(std::shared_ptr<Estimator> primary) {
  std::vector<std::shared_ptr<Estimator>> replicas =
      build_replicas(std::move(primary), shard_count_);
  std::shared_ptr<ModelVersion> retired;
  std::uint64_t generation = 0;
  bool wake = false;
  {
    const sb::MutexLock lock(mutex_);
    generation = current_->generation + 1;
    retired = std::move(current_);
    current_ = make_version(generation, std::move(replicas), live_gauge_);
    // Every waiter was watching a now-retired free list; all of the new
    // version's replicas are free, so wake them all to re-check.
    wake = waiters_ > 0;
  }
  if (wake) free_cv_.notify_all();
  // `retired` drops here, outside the lock: if no lease pins it, the old
  // replica set is destroyed on the publisher's thread, not a server's.
  return generation;
}

std::size_t ShardPool::free_count() const {
  const sb::MutexLock lock(mutex_);
  return current_->free.size();
}

std::uint64_t ShardPool::generation() const {
  const sb::MutexLock lock(mutex_);
  return current_->generation;
}

void ShardPool::release(ModelVersion& version, std::size_t shard) {
  bool wake;
  {
    const sb::MutexLock lock(mutex_);
    version.free.push_back(shard);
    // Releases outnumber blocked acquires except at saturation; skip the
    // futex call when nobody is waiting (one release per served batch).
    // A release into a retired version frees nothing a waiter could
    // lease, so it never signals.
    wake = waiters_ > 0 && &version == current_.get();
  }
  // notify_all, not _one: acquire_shard() waiters are shard-specific, so
  // a single wakeup could land on a waiter the freed shard cannot serve
  // while the right one keeps sleeping.
  if (wake) free_cv_.notify_all();
}

}  // namespace streambrain::serve
