#pragma once
// Freelist recycler for ServeRequest objects — the fix for the async
// path's per-request allocation churn. A fresh ServeRequest costs the
// object itself plus TWO std::promise shared states (labels and scores,
// even though each request uses exactly one); at serving rates that
// dominated the dispatch overhead a direct predict() call never pays. A
// recycled request costs one promise reconstruction (the one the
// previous use consumed) and keeps its result-vector capacity.
//
// Lifetime: acquire() hands out a shared_ptr whose deleter returns the
// object to the pool. The freelist core is itself shared with every
// deleter, so a request released late (e.g. by a thread-pool closure
// destroyed after the owning AsyncPredictor) recycles into a core that
// simply dies with its last holder — never a dangling pool pointer.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/request_queue.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::serve {

class RequestPool {
 public:
  /// `max_pooled` caps the freelist so a traffic spike cannot pin an
  /// unbounded number of idle request objects.
  explicit RequestPool(std::size_t max_pooled = 1024);

  /// A request armed for `kind` (fresh promises where needed, counters
  /// and result vectors reset); recycled from the freelist when one is
  /// available, newly allocated otherwise.
  [[nodiscard]] std::shared_ptr<ServeRequest> acquire(RequestKind kind);

  [[nodiscard]] std::size_t pooled() const;   ///< free objects held
  [[nodiscard]] std::uint64_t reused() const; ///< acquisitions served from the freelist

 private:
  struct Core {
    explicit Core(std::size_t cap) : max_pooled(cap) {}
    sb::Mutex mutex;
    std::vector<std::unique_ptr<ServeRequest>> free GUARDED_BY(mutex);
    const std::size_t max_pooled;
    std::uint64_t reused GUARDED_BY(mutex) = 0;
  };

  struct Recycler {
    std::shared_ptr<Core> core;
    void operator()(ServeRequest* request) const noexcept;
  };

  std::shared_ptr<Core> core_;
};

}  // namespace streambrain::serve
