// In-process backend: ranks are threads in one process, frames are
// vectors posted into mutex-guarded per-rank inboxes. This is the
// original simulated-MPI substrate refactored onto comm::Transport — the
// reference the shm and tcp backends are conformance-tested against, and
// the backend every comm::run() world uses.

#include <chrono>
#include <utility>
#include <vector>

#include "comm/frame.hpp"
#include "comm/transport_internal.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::comm {
namespace {

using detail::Inbox;
using detail::Payload;

// Poll granularity for blocked waits: long enough to sleep the 1-core dev
// box, short enough that poison/timeout is observed promptly.
constexpr std::chrono::milliseconds kWaitSlice{20};

/// State shared by every rank of one in-process world.
struct InprocState {
  explicit InprocState(int world) {
    inboxes.reserve(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) inboxes.emplace_back(r);
  }

  // Sense-reversing barrier: the last arriver flips `sense` and releases
  // the epoch; waiters wait for the flip, so back-to-back barriers cannot
  // release each other's waiters.
  sb::Mutex barrier_mutex;
  sb::CondVar barrier_cv;
  int arrived GUARDED_BY(barrier_mutex) = 0;
  bool sense GUARDED_BY(barrier_mutex) = false;

  // One inbox per rank; a send posts into the destination's and wakes
  // every blocked receiver.
  sb::Mutex mail_mutex;
  sb::CondVar mail_cv;
  std::vector<Inbox> inboxes GUARDED_BY(mail_mutex);
};

class InprocTransport final : public Transport {
 public:
  InprocTransport(int rank, int size, std::shared_ptr<PoisonState> poison,
                  std::shared_ptr<InprocState> state, int op_timeout_ms)
      : Transport(rank, size, std::move(poison), op_timeout_ms),
        state_(std::move(state)) {}

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kInProcess;
  }

  void barrier() override {
    check_healthy();
    if (size_ == 1) return;
    const auto deadline = op_deadline();
    sb::MutexLock lock(state_->barrier_mutex);
    const bool epoch_sense = !state_->sense;
    ++state_->arrived;
    if (state_->arrived == size_) {
      state_->arrived = 0;
      state_->sense = epoch_sense;
      state_->barrier_cv.notify_all();
      return;
    }
    while (state_->sense != epoch_sense) {
      if (poisoned()) {
        lock.unlock();
        throw_poisoned();
      }
      if (!state_->barrier_cv.wait_for(state_->barrier_mutex, kWaitSlice) &&
          std::chrono::steady_clock::now() >= deadline) {
        lock.unlock();
        fail_timeout(-1, "barrier", "a peer never arrived");
      }
    }
  }

 protected:
  void do_send(int dest, int tag, const void* data,
               std::size_t bytes) override {
    const auto* begin = static_cast<const unsigned char*>(data);
    Payload payload(begin, begin + bytes);
    {
      sb::MutexLock lock(state_->mail_mutex);
      state_->inboxes[static_cast<std::size_t>(dest)].post(rank_, tag,
                                                           std::move(payload));
      state_->mail_cv.notify_all();
    }
    if (dest != rank_) add_wire_bytes(bytes);
  }

  std::optional<Payload> recv_slice(int source, int tag,
                                    std::size_t expected_bytes) override {
    sb::MutexLock lock(state_->mail_mutex);
    Inbox& inbox = state_->inboxes[static_cast<std::size_t>(rank_)];
    std::optional<Payload> payload = inbox.take(source, tag, expected_bytes);
    // Checking poison under the lock pairs with announce_poison's notify,
    // and a send notifies under it too, so no wake-up is lost.
    if (!payload && !poisoned()) {
      (void)state_->mail_cv.wait_for(state_->mail_mutex, kWaitSlice);
      payload = inbox.take(source, tag, expected_bytes);
    }
    return payload;
  }

  void announce_poison(int /*failed_rank*/,
                       const std::string& /*reason*/) noexcept override {
    // Wake every blocked rank. Taking each mutex before notifying closes
    // the check-poison-then-sleep race: a waiter either sees the flag
    // before sleeping or is woken by this notify.
    {
      sb::MutexLock lock(state_->barrier_mutex);
      state_->barrier_cv.notify_all();
    }
    {
      sb::MutexLock lock(state_->mail_mutex);
      state_->mail_cv.notify_all();
    }
  }

 private:
  std::shared_ptr<InprocState> state_;
};

}  // namespace
}  // namespace streambrain::comm

namespace streambrain::comm::detail {

std::vector<std::unique_ptr<Transport>> make_inproc_world(
    int world, const TransportOptions& base) {
  auto poison = std::make_shared<PoisonState>();
  auto state = std::make_shared<InprocState>(world);
  std::vector<std::unique_ptr<Transport>> ranks;
  ranks.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    ranks.push_back(std::make_unique<InprocTransport>(
        r, world, poison, state, base.op_timeout_ms));
  }
  return ranks;
}

}  // namespace streambrain::comm::detail
