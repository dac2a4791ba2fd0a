// POSITIVE CONTROL — this file must compile CLEAN under clang
// -Werror=thread-safety -Wthread-safety-beta. It pulls in the real
// annotated concurrency surface (serving queue, shard pool, thread
// pool, registry, async predictor) so any annotation in those headers
// that misstates its contract breaks this test, and exercises every
// sb:: primitive pattern the rollout uses: scoped locking, early
// unlock, CondVar waits in explicit loops, and REQUIRES helpers.

#include <cstddef>

#include "api/async_predictor.hpp"
#include "parallel/engine_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/request_queue.hpp"
#include "serve/score_cache.hpp"
#include "serve/shard_pool.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sb = streambrain::sb;

class Buffer {
 public:
  void put(int value) {
    const sb::MutexLock lock(mutex_);
    while (full_) not_full_.wait(mutex_);
    item_ = value;
    full_ = true;
    not_empty_.notify_one();
  }

  int take() {
    sb::MutexLock lock(mutex_);
    while (!full_) not_empty_.wait(mutex_);
    const int value = item_;
    full_ = false;
    // Early-unlock-then-notify, as the serving queue does.
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  int size_locked() REQUIRES(mutex_) { return full_ ? 1 : 0; }

  int size() {
    const sb::MutexLock lock(mutex_);
    return size_locked();
  }

 private:
  sb::Mutex mutex_;
  sb::CondVar not_empty_;
  sb::CondVar not_full_;
  int item_ GUARDED_BY(mutex_) = 0;
  bool full_ GUARDED_BY(mutex_) = false;
};

int main() {
  Buffer buffer;
  buffer.put(1);
  return buffer.take() - 1 + buffer.size();
}
