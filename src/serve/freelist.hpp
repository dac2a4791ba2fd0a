#pragma once
// The serving layer's one object recycler. AsyncPredictor keeps two:
// ServeRequests (a fresh one costs the object plus TWO std::promise
// shared states, even though each request uses exactly one; a recycled
// one reconstructs only the promise its last use consumed and keeps its
// result-vector capacity) and batch jobs (each keeps its chunk vector
// and its gather/scatter scratch warm).
//
// T provides prepare(args...), which arms an object for its next use,
// and a noexcept recycle(), which drops what an idle object must not pin
// (a request's input matrix, a job's request references and lease).
//
// Lifetime: acquire() hands out a shared_ptr whose deleter returns the
// object to the freelist. The freelist core is itself shared with every
// deleter, so an object released late (e.g. by a thread-pool closure
// destroyed after the owning AsyncPredictor) recycles into a core that
// simply dies with its last holder — never a dangling pool pointer.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::serve {

template <typename T>
class Freelist {
 public:
  /// `max_pooled` caps the freelist so a traffic spike cannot pin an
  /// unbounded number of idle objects.
  explicit Freelist(std::size_t max_pooled = 1024)
      : core_(std::make_shared<Core>(max_pooled)) {}

  /// An object armed by T::prepare(args...); recycled from the freelist
  /// when one is available, newly allocated otherwise.
  template <typename... Args>
  [[nodiscard]] std::shared_ptr<T> acquire(Args&&... args) {
    std::unique_ptr<T> object;
    {
      const sb::MutexLock lock(core_->mutex);
      if (!core_->free.empty()) {
        object = std::move(core_->free.back());
        core_->free.pop_back();
        ++core_->reused;
      }
    }
    if (!object) object = std::make_unique<T>();
    object->prepare(std::forward<Args>(args)...);
    return std::shared_ptr<T>(object.release(), Recycler{core_});
  }

  /// Free objects held.
  [[nodiscard]] std::size_t pooled() const {
    const sb::MutexLock lock(core_->mutex);
    return core_->free.size();
  }
  /// Acquisitions served from the freelist.
  [[nodiscard]] std::uint64_t reused() const {
    const sb::MutexLock lock(core_->mutex);
    return core_->reused;
  }

 private:
  struct Core {
    explicit Core(std::size_t cap) : max_pooled(cap) {}
    sb::Mutex mutex;
    std::vector<std::unique_ptr<T>> free GUARDED_BY(mutex);
    const std::size_t max_pooled;
    std::uint64_t reused GUARDED_BY(mutex) = 0;
  };

  struct Recycler {
    std::shared_ptr<Core> core;
    void operator()(T* object) const noexcept {
      object->recycle();
      try {
        const sb::MutexLock lock(core->mutex);
        if (core->free.size() < core->max_pooled) {
          core->free.emplace_back(object);
          return;
        }
      } catch (...) {
        // fall through to delete
      }
      delete object;
    }
  };

  std::shared_ptr<Core> core_;
};

}  // namespace streambrain::serve
