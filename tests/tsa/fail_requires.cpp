// NEGATIVE-COMPILE CASE — must FAIL under clang -Werror=thread-safety.
// Second contract: a REQUIRES(mutex) method — the `*_locked()` helper
// convention used by EngineRegistry::known_names_locked — cannot be
// called without the caller holding the mutex.

#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sb = streambrain::sb;

class Registry {
 public:
  int count() {
    const sb::MutexLock lock(mutex_);
    return count_locked();  // OK: capability held
  }

  int count_unguarded() {
    return count_locked();  // BAD: REQUIRES(mutex_) with no lock held
  }

 private:
  int count_locked() REQUIRES(mutex_) { return entries_; }

  sb::Mutex mutex_;
  int entries_ GUARDED_BY(mutex_) = 0;
};

int main() {
  Registry registry;
  return registry.count() + registry.count_unguarded();
}
