// POSIX shared-memory backend: ranks are processes on one host, frames
// cross per-directed-channel SPSC byte rings inside one shm_open+mmap
// segment. The segment also carries the cross-process poison word and a
// sense-reversing barrier, so rank failures and barriers work without
// any additional IPC. Thread-mode worlds (run_transport) share a single
// private mapping that is unlinked at creation; multi-process worlds
// rendezvous on /streambrain-<session> and the creator unlinks it once
// every rank has attached, so no segment outlives the world.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "comm/frame.hpp"
#include "comm/transport_internal.hpp"

namespace streambrain::comm {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMagic = 0x5362436du;  // "SbCm"
constexpr std::size_t kRingBytes = std::size_t{1} << 16;
constexpr std::size_t kReasonBytes = 240;

struct alignas(64) ShmChannel {
  // Monotonic byte counters: producer owns head, consumer owns tail;
  // ring occupancy is head - tail.
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
  unsigned char ring[kRingBytes];
};

struct alignas(64) ShmHeader {
  std::atomic<std::uint32_t> magic;  // set (release) after init completes
  std::int32_t world;
  std::atomic<int> attached;
  // Poison: claim CAS serializes writers; reason is written before the
  // word is release-published. word = 0 clean, else failed_rank + 2
  // (so rank -1 "unknown" encodes as 1).
  std::atomic<int> poison_claim;
  std::atomic<int> poison_word;
  char poison_reason[kReasonBytes];
  // Sense-reversing barrier.
  std::atomic<int> barrier_arrived;
  std::atomic<int> barrier_sense;
};

std::size_t segment_bytes(int world) {
  return sizeof(ShmHeader) + static_cast<std::size_t>(world) *
                                 static_cast<std::size_t>(world) *
                                 sizeof(ShmChannel);
}

std::string segment_name(const std::string& session) {
  return "/streambrain-" + session;
}

/// One mmap'ed world segment; unmapped when the last rank drops it.
class Segment {
 public:
  Segment(std::string name, void* map, std::size_t bytes)
      : name_(std::move(name)), map_(map), bytes_(bytes) {}
  ~Segment() { ::munmap(map_, bytes_); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  [[nodiscard]] ShmHeader* header() const {
    return static_cast<ShmHeader*>(map_);
  }
  [[nodiscard]] ShmChannel* channel(int src, int dst, int world) const {
    auto* base = reinterpret_cast<ShmChannel*>(
        static_cast<unsigned char*>(map_) + sizeof(ShmHeader));
    return base + static_cast<std::size_t>(src) * world + dst;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  void* map_;
  std::size_t bytes_;
};

std::shared_ptr<Segment> create_segment(const std::string& session,
                                        int world) {
  const std::string name = segment_name(session);
  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0 && errno == EEXIST) {
    // Stale segment from a crashed run with the same session id.
    ::shm_unlink(name.c_str());
    fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  }
  if (fd < 0) {
    throw CommError(-1, "shm_open(" + name + ") failed: " +
                            std::strerror(errno));
  }
  const std::size_t bytes = segment_bytes(world);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw CommError(-1, "ftruncate(" + name + ") failed: " +
                            std::strerror(err));
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    throw CommError(-1, "mmap(" + name + ") failed: " + std::strerror(errno));
  }
  auto segment = std::make_shared<Segment>(name, map, bytes);
  // ftruncate gave zero pages — a valid initial state for every counter —
  // so only the world size and the magic (published last) need stores.
  segment->header()->world = world;
  segment->header()->magic.store(kMagic, std::memory_order_release);
  return segment;
}

// Claims the segment's poison word for `failed_rank` and publishes
// `reason` with it; once a first writer holds the claim, later reasons are
// dropped.
void poison_segment(ShmHeader* header, int failed_rank,
                    const std::string& reason) noexcept {
  int expected = 0;
  if (header->poison_claim.compare_exchange_strong(
          expected, 1, std::memory_order_acq_rel)) {
    const std::size_t n = std::min(reason.size(), kReasonBytes - 1);
    std::memcpy(header->poison_reason, reason.data(), n);
    header->poison_reason[n] = '\0';
    header->poison_word.store(failed_rank + 2, std::memory_order_release);
  }
}

// Maps the segment rank 0 created. A world-size mismatch poisons the
// segment before it throws, so the ranks waiting for this one to attach
// fail with its reason instead of at their connect timeout.
std::shared_ptr<Segment> attach_segment(const std::string& session, int rank,
                                        int world, int connect_timeout_ms) {
  const std::string name = segment_name(session);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(connect_timeout_ms);
  for (;;) {
    const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    if (fd >= 0) {
      // Wait for the creator's ftruncate before mapping, or the first
      // touch past the real size is a SIGBUS. Map the creator's size, not
      // ours: the world sizes are compared only once the header is up.
      struct stat st {};
      if (::fstat(fd, &st) == 0 &&
          static_cast<std::size_t>(st.st_size) >= sizeof(ShmHeader)) {
        const auto bytes = static_cast<std::size_t>(st.st_size);
        void* map =
            ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
        ::close(fd);
        if (map == MAP_FAILED) {
          throw CommError(-1, "mmap(" + name + ") failed: " +
                                  std::strerror(errno));
        }
        auto segment = std::make_shared<Segment>(name, map, bytes);
        while (segment->header()->magic.load(std::memory_order_acquire) !=
               kMagic) {
          if (Clock::now() >= deadline) {
            throw CommError(-1, "shm segment " + name +
                                    " never finished initializing");
          }
          std::this_thread::yield();
        }
        if (segment->header()->world != world) {
          const std::string reason =
              "rank " + std::to_string(rank) + " was launched with a world of " +
              std::to_string(world) + " ranks, but shm segment " + name +
              " was created for a world of " +
              std::to_string(segment->header()->world);
          poison_segment(segment->header(), rank, reason);
          throw CommError(-1, reason);
        }
        return segment;
      }
      ::close(fd);
    }
    if (Clock::now() >= deadline) {
      throw CommError(
          -1, "timed out attaching shm segment " + name + " after " +
                  std::to_string(connect_timeout_ms) +
                  " ms (was the world creator, rank 0, ever launched?)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

class ShmTransport final : public detail::FramedTransport {
 public:
  ShmTransport(const TransportOptions& options,
               std::shared_ptr<PoisonState> poison,
               std::shared_ptr<Segment> segment)
      : FramedTransport(options.rank, options.world, std::move(poison),
                        options.op_timeout_ms),
        options_(options),
        segment_(std::move(segment)) {}

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kShm;
  }

  void establish() override {
    if (segment_ == nullptr) {
      // Multi-process: rank 0 creates, everyone else attaches.
      if (rank_ == 0) {
        segment_ = create_segment(options_.session, size_);
      } else {
        segment_ = attach_segment(options_.session, rank_, size_,
                                  options_.connect_timeout_ms);
      }
      ShmHeader* header = segment_->header();
      header->attached.fetch_add(1, std::memory_order_acq_rel);
      const auto deadline =
          Clock::now() +
          std::chrono::milliseconds(options_.connect_timeout_ms);
      while (header->attached.load(std::memory_order_acquire) < size_) {
        if (header->poison_word.load(std::memory_order_acquire) != 0 ||
            Clock::now() >= deadline) {
          if (rank_ == 0) ::shm_unlink(segment_->name().c_str());
          sync_poison();
          throw CommError(
              -1, "timed out waiting for all " + std::to_string(size_) +
                      " ranks to attach shm segment " + segment_->name());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Every rank holds a mapping now; the name can go away so a crash
      // never leaks a segment.
      if (rank_ == 0) ::shm_unlink(segment_->name().c_str());
    }
  }

  void barrier() override {
    sync_poison();
    if (size_ == 1) return;
    ShmHeader* header = segment_->header();
    const int my_sense = 1 - local_sense_;
    local_sense_ = my_sense;
    if (header->barrier_arrived.fetch_add(1, std::memory_order_acq_rel) ==
        size_ - 1) {
      header->barrier_arrived.store(0, std::memory_order_relaxed);
      header->barrier_sense.store(my_sense, std::memory_order_release);
      return;
    }
    const auto deadline = op_deadline();
    int spins = 0;
    while (header->barrier_sense.load(std::memory_order_acquire) !=
           my_sense) {
      sync_poison();
      if (Clock::now() >= deadline) {
        fail_timeout(-1, "barrier", "a peer never arrived");
      }
      backoff(spins);
    }
  }

 protected:
  /// Copy `bytes` into the rank_->dest ring, chunked past wrap, draining
  /// inbound traffic whenever the ring is full — that is what makes the
  /// collectives' send-then-recv schedules deadlock-free for payloads
  /// larger than the ring.
  void write_wire(int dest, const void* data, std::size_t bytes) override {
    ShmChannel* channel = segment_->channel(rank_, dest, size_);
    const auto* src = static_cast<const unsigned char*>(data);
    std::size_t written = 0;
    const auto deadline = op_deadline();
    int spins = 0;
    while (written < bytes) {
      const std::uint64_t head =
          channel->head.load(std::memory_order_relaxed);
      const std::uint64_t tail = channel->tail.load(std::memory_order_acquire);
      const std::size_t space =
          kRingBytes - static_cast<std::size_t>(head - tail);
      if (space == 0) {
        if (!drain_all()) {
          sync_poison();
          if (Clock::now() >= deadline) {
            fail_timeout(dest, "send to rank " + std::to_string(dest),
                         "peer not draining");
          }
          backoff(spins);
        }
        continue;
      }
      spins = 0;
      const std::size_t n = std::min(space, bytes - written);
      const std::size_t at = static_cast<std::size_t>(head) % kRingBytes;
      const std::size_t first = std::min(n, kRingBytes - at);
      std::memcpy(channel->ring + at, src + written, first);
      if (first < n) std::memcpy(channel->ring, src + written + first, n - first);
      channel->head.store(head + n, std::memory_order_release);
      written += n;
    }
  }

  void await_inbound(int /*source*/, int /*tag*/) override {
    if (drain_all()) {
      recv_spins_ = 0;
      return;
    }
    sync_poison();
    backoff(recv_spins_);
  }

  void announce_poison(int failed_rank,
                       const std::string& reason) noexcept override {
    if (segment_ == nullptr) return;  // failed before establish()
    poison_segment(segment_->header(), failed_rank, reason);
  }

 private:
  // Polls that yield before a waiting rank sleeps. A rank of an exact-mode
  // fit waits for its peers after every batch, for well under a
  // millisecond when each rank has a core, so a 200 us sleep would cost
  // most batches a whole sleep; a yield still lets a peer that shares
  // the core run. A wait this many polls long means a peer that is not
  // there yet, and the rank sleeps so it holds no core.
  static constexpr int kYieldPolls = 4096;

  static void backoff(int& spins) {
    if (spins < kYieldPolls) {
      ++spins;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Observe a remote (or local) poison word; throws CommError if the
  /// world is dead.
  void sync_poison() {
    const ShmHeader* header = segment_->header();
    const int word = header->poison_word.load(std::memory_order_acquire);
    if (word != 0) {
      poison_->try_set(word - 2,
                       std::string(header->poison_reason,
                                   ::strnlen(header->poison_reason,
                                             kReasonBytes)));
    }
    if (poison_->poisoned()) throw_poisoned();
  }

  /// Feed every inbound ring to its frame reader. Returns true when any
  /// byte moved.
  bool drain_all() {
    bool progress = false;
    for (int src = 0; src < size_; ++src) {
      if (src == rank_) continue;
      ShmChannel* channel = segment_->channel(src, rank_, size_);
      const std::uint64_t head = channel->head.load(std::memory_order_acquire);
      std::uint64_t tail = channel->tail.load(std::memory_order_relaxed);
      if (head == tail) continue;
      // At most two contiguous spans (the second after wrap), each read
      // straight into the frame under construction.
      while (tail < head) {
        const std::size_t at = static_cast<std::size_t>(tail) % kRingBytes;
        const std::size_t n = std::min(static_cast<std::size_t>(head - tail),
                                       kRingBytes - at);
        receive(src, channel->ring + at, n);
        tail += n;
      }
      channel->tail.store(tail, std::memory_order_release);
      progress = true;
    }
    return progress;
  }

  TransportOptions options_;
  std::shared_ptr<Segment> segment_;
  int local_sense_ = 0;
  int recv_spins_ = 0;
};

}  // namespace
}  // namespace streambrain::comm

namespace streambrain::comm::detail {

std::vector<std::unique_ptr<Transport>> make_shm_world(
    int world, const TransportOptions& base) {
  TransportOptions options = base;
  options.backend = Backend::kShm;
  options.world = world;
  if (options.session.empty()) options.session = generate_session();
  auto poison = std::make_shared<PoisonState>();
  auto segment = create_segment(options.session, world);
  // All ranks live in this process and already hold the mapping; drop the
  // name immediately so nothing can leak.
  ::shm_unlink(segment->name().c_str());
  std::vector<std::unique_ptr<Transport>> ranks;
  ranks.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    options.rank = r;
    ranks.push_back(std::make_unique<ShmTransport>(options, poison, segment));
  }
  return ranks;
}

std::unique_ptr<Transport> make_shm_transport(const TransportOptions& options) {
  if (options.session.empty()) {
    throw std::invalid_argument(
        "shm transport: a session id is required so the ranks can "
        "rendezvous (set SB_COMM_SESSION or TransportOptions::session)");
  }
  return std::make_unique<ShmTransport>(
      options, std::make_shared<PoisonState>(), nullptr);
}

}  // namespace streambrain::comm::detail
