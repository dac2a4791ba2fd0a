#pragma once
// Message-passing substrate with MPI semantics over pluggable transports.
//
// The paper's MPI backend exists to show that BCPNN's local learning makes
// data-parallel training communication-light (one trace reduction per
// batch). This substrate reproduces that communication pattern exactly,
// and offers only what the data-parallel trainer needs: a barrier and an
// allreduce (blocking or nonblocking, float or uint64, MPI semantics).
// Reductions are deterministic (fixed schedules), and every operation
// accounts the bytes that cross the network, so benchmarks can report
// communication volume per epoch. The same schedules run over
// threads-as-ranks mailboxes, POSIX shared memory, or a TCP mesh (see
// transport.hpp; raw point-to-point frames live there) — and a rank
// failure poisons the world so peers fail fast with comm::CommError
// instead of hanging in a collective.
//
// Two allreduce algorithms are available, selectable per call so
// benchmarks can compare them on the same payload:
//   kFlat — pairwise exchange; every rank reduces all contributions in
//           rank order into a private accumulator. Association is rank 0
//           first, so the result is bitwise identical to a serial
//           left-to-right reduction. Logical cost: (P-1)*n elements sent
//           per rank.
//   kRing — bandwidth-optimal chunked ring (reduce-scatter phase then
//           allgather phase). Association differs from kFlat by floating-
//           point rounding only. Logical cost: 2*(P-1)/P*n elements per
//           rank.
//
// Usage (threads-as-ranks, any backend):
//   comm::run_transport(comm::Backend::kShm, 4, [](comm::Communicator& c) {
//     std::vector<float> grads = ...;
//     c.allreduce_mean(grads.data(), grads.size());
//   });
// Multi-process ranks (launched by tools/sb_launch) instead do:
//   comm::Endpoint ep = comm::connect_env();
//   body(ep.comm());

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/transport.hpp"

namespace streambrain::comm {

enum class ReduceOp { kSum, kMin, kMax };

enum class AllreduceAlgorithm { kFlat, kRing };

/// Short name for reports/benchmarks ("flat" / "ring").
const char* algorithm_name(AllreduceAlgorithm algorithm) noexcept;

class Communicator;

/// Handle for a nonblocking collective. The operation completes inside
/// wait(), which every participating rank must call in the same relative
/// order as the iallreduce that produced it (MPI nonblocking semantics).
/// wait() is idempotent. Destroying a pending Request is a bug that real
/// MPI punishes with a silent peer deadlock — here it logs loudly and
/// poisons the world, so every rank aborts with CommError instead.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept;
  Request& operator=(Request&& other) noexcept;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request();

  /// Complete the collective (no-op when already completed or empty).
  void wait();

  /// True while the collective has not completed.
  [[nodiscard]] bool pending() const noexcept { return bool(complete_); }

 private:
  friend class Communicator;
  Request(Transport* transport, std::function<void()> complete)
      : transport_(transport), complete_(std::move(complete)) {}
  Transport* transport_ = nullptr;
  std::function<void()> complete_;
};

/// Per-rank handle over a connected Transport. Valid only while the
/// transport outlives it (inside run_transport()'s closure, or alongside
/// the owning Endpoint).
class Communicator {
 public:
  explicit Communicator(Transport& transport) : transport_(&transport) {}

  [[nodiscard]] int rank() const noexcept { return transport_->rank(); }
  [[nodiscard]] int size() const noexcept { return transport_->size(); }
  [[nodiscard]] Backend backend() const noexcept {
    return transport_->backend();
  }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

  /// Synchronize all ranks.
  void barrier();

  /// Element-wise reduction across ranks; result replicated to all ranks.
  /// Deterministic: the schedule (and thus the floating-point
  /// association) is fixed per algorithm regardless of thread timing.
  void allreduce(float* data, std::size_t count, ReduceOp op,
                 AllreduceAlgorithm algorithm = AllreduceAlgorithm::kFlat);
  void allreduce(std::uint64_t* data, std::size_t count, ReduceOp op,
                 AllreduceAlgorithm algorithm = AllreduceAlgorithm::kFlat);

  /// allreduce(kSum) followed by division by world size.
  void allreduce_mean(float* data, std::size_t count,
                      AllreduceAlgorithm algorithm = AllreduceAlgorithm::kFlat);

  /// Nonblocking allreduce: returns immediately; the reduction happens
  /// collectively inside Request::wait() (progress-at-wait semantics, as
  /// in MPI implementations without a progress thread). The caller may
  /// compute on unrelated data between issue and wait; `data` must stay
  /// untouched and alive until the wait returns.
  [[nodiscard]] Request iallreduce(
      float* data, std::size_t count, ReduceOp op,
      AllreduceAlgorithm algorithm = AllreduceAlgorithm::kFlat);

  /// Bytes this rank has logically sent so far (the backend-independent
  /// cost model the benchmarks assert).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return transport_->logical_bytes_sent();
  }
  /// Bytes this rank actually pushed over its backend's wire (payloads +
  /// frame overhead; 0 for self-sends and for single-rank worlds).
  [[nodiscard]] std::uint64_t wire_bytes_sent() const noexcept {
    return transport_->wire_bytes_sent();
  }

 private:
  template <typename T>
  void allreduce_dispatch(T* data, std::size_t count, ReduceOp op,
                          AllreduceAlgorithm algorithm);

  Transport* transport_;
};

/// Per-run communication accounting, captured after all ranks joined.
struct RunStats {
  std::uint64_t total_bytes = 0;              ///< logical, sum over ranks
  std::vector<std::uint64_t> bytes_per_rank;  ///< logical, indexed by rank
  std::uint64_t total_wire_bytes = 0;         ///< on-the-wire, sum
  std::vector<std::uint64_t> wire_bytes_per_rank;  ///< on-the-wire
};

/// Spawn `size` rank threads over the in-process backend, invoke
/// `body(comm)` on each, join them all. A rank failure poisons the world
/// (peers abort with CommError) and the *original* exception is rethrown
/// after every thread joined.
void run(int size, const std::function<void(Communicator&)>& body);

/// Threads-as-ranks execution over any backend: builds a `size`-rank
/// world of `backend` transports (loopback TCP mesh / private shm
/// segment), runs `body` on each rank thread, joins, returns the byte
/// counters. `base` seeds timeouts/session/ports; rank/world are filled
/// in per rank. This is how the conformance suite and DistributedTrainer
/// exercise the real wire without multi-process launch.
RunStats run_transport(Backend backend, int size,
                       const std::function<void(Communicator&)>& body,
                       const TransportOptions& base = {});

/// Owns one connected rank endpoint (transport + communicator) of a
/// multi-process world. The constructor blocks until the world is
/// established or connect_timeout_ms expires.
class Endpoint {
 public:
  explicit Endpoint(const TransportOptions& options);
  Endpoint(Endpoint&&) noexcept = default;
  Endpoint& operator=(Endpoint&&) noexcept = default;

  [[nodiscard]] Communicator& comm() noexcept { return *comm_; }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

 private:
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<Communicator> comm_;
};

/// Connect this process's rank into a world described by `options`.
Endpoint connect(const TransportOptions& options);

/// connect(options_from_env()) — the multi-process entry point used by
/// binaries launched under tools/sb_launch.
Endpoint connect_env();

}  // namespace streambrain::comm
