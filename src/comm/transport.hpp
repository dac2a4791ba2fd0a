#pragma once
// comm::Transport — the byte-moving substrate under the collectives.
//
// One collective implementation (collectives.cpp) runs over three
// interchangeable backends:
//   kInProcess — ranks are threads, messages are in-process mailboxes
//                (the original simulated-MPI substrate).
//   kShm       — ranks are processes on one host; messages cross POSIX
//                shared-memory SPSC rings (shm_open + mmap).
//   kTcp       — ranks are processes on one or many hosts; messages are
//                length-prefixed frames over a full TCP mesh with
//                connect retry/backoff and receive timeouts.
// The algorithms, schedules, and logical byte models are identical per
// backend — only the wire changes — which is what makes the conformance
// suite (test_comm_property) runnable per backend and fit_distributed
// bit-identical across them.
//
// Fault model: a world is *poisonable*. The first failure (rank
// exception, peer disconnect, timeout, destroyed pending Request) claims
// the world's poison state; every rank blocked in — or later entering —
// a transport operation aborts with a CommError naming the failed rank
// instead of hanging.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::comm {

enum class Backend { kInProcess, kShm, kTcp };

/// Short name for reports/benchmarks ("inproc" / "shm" / "tcp").
const char* backend_name(Backend backend) noexcept;

/// A failed or aborted communication operation. failed_rank() names the
/// rank the failure was attributed to (-1 when unknown, e.g. a barrier
/// timeout where the missing rank cannot be identified).
class CommError : public std::runtime_error {
 public:
  CommError(int failed_rank, const std::string& what)
      : std::runtime_error(what), failed_rank_(failed_rank) {}

  [[nodiscard]] int failed_rank() const noexcept { return failed_rank_; }

 private:
  int failed_rank_ = -1;
};

/// Endpoint configuration for one rank of a world. Thread-mode runners
/// (run_transport) fill most of this in; multi-process ranks read it from
/// SB_COMM_* environment variables via options_from_env().
struct TransportOptions {
  Backend backend = Backend::kInProcess;
  int rank = 0;
  int world = 1;
  /// Rendezvous id shared by all ranks of one world: the shm segment
  /// name suffix (kShm) — auto-generated when empty in thread mode.
  std::string session;
  /// kTcp: one address per rank ("127.0.0.1" for every rank when empty).
  std::vector<std::string> hosts;
  /// kTcp: explicit listen port per rank; wins over base_port.
  std::vector<int> ports;
  /// kTcp: rank r listens on base_port + r when `ports` is empty.
  int base_port = 0;
  /// Mesh/segment establishment budget (connect retry + backoff).
  int connect_timeout_ms = 10000;
  /// Per blocking operation (recv / barrier / blocked send) budget;
  /// expiring poisons the world instead of hanging.
  int op_timeout_ms = 60000;
};

/// Options for this process's rank, read from SB_COMM_RANK, SB_COMM_WORLD,
/// SB_COMM_BACKEND, SB_COMM_SESSION, SB_COMM_HOSTS, SB_COMM_PORTS,
/// SB_COMM_BASE_PORT, SB_COMM_CONNECT_TIMEOUT_MS, SB_COMM_OP_TIMEOUT_MS —
/// the contract tools/sb_launch speaks.
TransportOptions options_from_env();

/// True when SB_COMM_WORLD and SB_COMM_RANK are both set (the process was
/// started by a multi-process launcher).
bool env_world_configured() noexcept;

/// Shared first-failure-wins poison flag. Thread-mode worlds share one
/// instance across all ranks; multi-process ranks each own one, fed by
/// the backend's cross-process signal (shm poison word / TCP poison
/// frame).
class PoisonState {
 public:
  /// Claim the poison slot; only the first caller wins. Safe to call from
  /// any thread, any number of times.
  bool try_set(int failed_rank, const std::string& reason) noexcept;

  [[nodiscard]] bool poisoned() const noexcept {
    return set_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int failed_rank() const noexcept {
    return set_.load(std::memory_order_acquire)
               ? failed_rank_.load(std::memory_order_relaxed)
               : -1;
  }
  [[nodiscard]] std::string reason() const;

 private:
  std::atomic<bool> set_{false};
  std::atomic<int> failed_rank_{-1};
  mutable sb::Mutex mutex_;
  std::string reason_ GUARDED_BY(mutex_);
};

/// One rank's endpoint into a world: point-to-point byte frames matched
/// by (source, tag), a barrier, poison propagation, and byte accounting.
/// Collectives (comm::Communicator) are built on top and never touch the
/// wire directly. A Transport instance belongs to exactly one rank and is
/// not thread-safe; cross-rank state is synchronized internally.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] virtual Backend backend() const noexcept = 0;
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  /// Bring up the wire (attach the shm segment / connect the TCP mesh).
  /// Called once per rank, from the rank's own thread, before any other
  /// operation; all ranks must establish concurrently.
  virtual void establish() {}

  /// Blocking send of `bytes` bytes to `dest` under `tag`. Sends to self
  /// are delivered locally. While blocked on a full wire buffer the
  /// transport keeps draining inbound traffic, so pairwise exchanges of
  /// payloads larger than any buffer cannot deadlock. A payload above the
  /// 1 GiB frame bound throws CommError on every backend, before any byte
  /// is written.
  void send(int dest, int tag, const void* data, std::size_t bytes);

  /// Blocking receive of the next (source, tag) frame. Throws a
  /// descriptive CommError when the matched frame's payload size differs
  /// from `expected_bytes` (send/recv count mismatch), and when the world
  /// is poisoned, the peer dies, or op_timeout expires.
  void recv(int source, int tag, void* data, std::size_t expected_bytes);

  /// Synchronize all ranks; aborts with CommError on poison/timeout.
  virtual void barrier() = 0;

  /// Mark the whole world failed: wakes every blocked rank (local and,
  /// for shm/tcp, remote) which then throw CommError. First failure wins;
  /// later calls are no-ops. noexcept — safe from destructors.
  void poison(int failed_rank, const std::string& reason) noexcept;

  [[nodiscard]] bool poisoned() const noexcept { return poison_->poisoned(); }
  [[nodiscard]] int poisoned_rank() const noexcept {
    return poison_->failed_rank();
  }
  /// Throws the CommError describing the poisoned world.
  [[noreturn]] void throw_poisoned() const;

  // -- Byte accounting. Logical bytes are the backend-independent cost
  // model the collectives charge (what bench/report formulas assert);
  // wire bytes are what this backend actually moved between ranks
  // (payloads + frame overhead; zero for self-sends). Single-writer (the
  // owning rank); readers synchronize via thread join.
  void add_logical_bytes(std::uint64_t bytes) noexcept {
    logical_bytes_ += bytes;
  }
  [[nodiscard]] std::uint64_t logical_bytes_sent() const noexcept {
    return logical_bytes_;
  }
  [[nodiscard]] std::uint64_t wire_bytes_sent() const noexcept {
    return wire_bytes_;
  }

 protected:
  Transport(int rank, int size, std::shared_ptr<PoisonState> poison,
            int op_timeout_ms);

  /// Backend wire implementations behind the poison-checking wrappers.
  virtual void do_send(int dest, int tag, const void* data,
                       std::size_t bytes) = 0;
  /// The next (source, tag) payload, size-checked against
  /// `expected_bytes`; when none has arrived, wait for traffic for at most
  /// one poll slice and return nullopt if still none. recv() owns the
  /// poison check and the deadline around it.
  virtual std::optional<std::vector<unsigned char>> recv_slice(
      int source, int tag, std::size_t expected_bytes) = 0;
  /// Propagate a poison claim beyond the local PoisonState (wake local
  /// waiters, set the shm segment word, send TCP poison frames).
  virtual void announce_poison(int failed_rank,
                               const std::string& reason) noexcept = 0;

  void add_wire_bytes(std::uint64_t bytes) noexcept { wire_bytes_ += bytes; }
  void check_healthy() const;
  void check_peer(int peer, const char* op) const;
  [[nodiscard]] std::chrono::steady_clock::time_point op_deadline() const {
    return std::chrono::steady_clock::now() + op_timeout_;
  }
  /// Poison the world for a blocking `op` that outlived op_timeout and
  /// throw; `culprit` is the rank blamed (-1 when unknown).
  [[noreturn]] void fail_timeout(int culprit, const std::string& op,
                                 const char* why);

  const int rank_;
  const int size_;
  const std::shared_ptr<PoisonState> poison_;
  const std::chrono::milliseconds op_timeout_;

 private:
  std::uint64_t logical_bytes_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

/// Connected endpoint for one rank of a (usually multi-process) world.
/// Blocks in establish() until the world is up or connect_timeout_ms
/// expires. Thread-mode callers should prefer run_transport().
std::unique_ptr<Transport> make_transport(const TransportOptions& options);

}  // namespace streambrain::comm
