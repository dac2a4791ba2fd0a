// Backend-independent half of comm::: the collective algorithms, byte
// cost model, rank runners, and the transport factory. Everything here
// speaks only Transport::send/recv/barrier, so the flat/ring schedules
// (and therefore the floating-point associations and the logical byte
// charges) are identical on every backend — the property the per-backend
// conformance suite pins down.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "comm/communicator.hpp"
#include "comm/frame.hpp"
#include "comm/transport_internal.hpp"
#include "util/log.hpp"

namespace streambrain::comm {

const char* algorithm_name(AllreduceAlgorithm algorithm) noexcept {
  switch (algorithm) {
    case AllreduceAlgorithm::kFlat:
      return "flat";
    case AllreduceAlgorithm::kRing:
      return "ring";
  }
  return "?";
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kInProcess:
      return "inproc";
    case Backend::kShm:
      return "shm";
    case Backend::kTcp:
      return "tcp";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// PoisonState

bool PoisonState::try_set(int failed_rank, const std::string& reason) noexcept {
  const sb::MutexLock lock(mutex_);
  if (set_.load(std::memory_order_acquire)) return false;
  try {
    reason_ = reason;
  } catch (...) {
    // Allocation failure: poison with an empty reason rather than not at
    // all — fail-fast beats a descriptive hang.
  }
  failed_rank_.store(failed_rank, std::memory_order_relaxed);
  set_.store(true, std::memory_order_release);
  return true;
}

std::string PoisonState::reason() const {
  const sb::MutexLock lock(mutex_);
  return reason_;
}

// ---------------------------------------------------------------------------
// Transport base

Transport::Transport(int rank, int size, std::shared_ptr<PoisonState> poison,
                     int op_timeout_ms)
    : rank_(rank),
      size_(size),
      poison_(std::move(poison)),
      op_timeout_(op_timeout_ms) {}

void Transport::send(int dest, int tag, const void* data, std::size_t bytes) {
  check_healthy();
  check_peer(dest, "send");
  if (bytes > detail::kMaxFrameBytes) {
    std::ostringstream msg;
    msg << "send of " << bytes << " bytes to rank " << dest << " on rank "
        << rank_ << " exceeds the frame bound of " << detail::kMaxFrameBytes
        << " bytes";
    throw CommError(rank_, msg.str());
  }
  do_send(dest, tag, data, bytes);
}

void Transport::recv(int source, int tag, void* data,
                     std::size_t expected_bytes) {
  check_healthy();
  check_peer(source, "recv");
  const auto deadline = op_deadline();
  for (;;) {
    if (const auto payload = recv_slice(source, tag, expected_bytes)) {
      if (expected_bytes > 0) std::memcpy(data, payload->data(), expected_bytes);
      return;
    }
    check_healthy();
    if (std::chrono::steady_clock::now() >= deadline) {
      fail_timeout(source,
                   "recv(source=" + std::to_string(source) +
                       ", tag=" + std::to_string(tag) + ")",
                   "peer dead or never sent");
    }
  }
}

void Transport::fail_timeout(int culprit, const std::string& op,
                             const char* why) {
  std::ostringstream msg;
  msg << op << " timed out after " << op_timeout_.count() << " ms on rank "
      << rank_ << " (" << why << ")";
  poison(culprit, msg.str());
  throw_poisoned();
}

void Transport::poison(int failed_rank, const std::string& reason) noexcept {
  if (poison_->try_set(failed_rank, reason)) {
    announce_poison(failed_rank, reason);
  }
}

void Transport::throw_poisoned() const {
  const int failed = poison_->failed_rank();
  std::ostringstream msg;
  msg << "communication aborted on rank " << rank_ << ": world poisoned";
  if (failed >= 0) msg << " by rank " << failed;
  const std::string why = poison_->reason();
  if (!why.empty()) msg << ": " << why;
  throw CommError(failed, msg.str());
}

void Transport::check_healthy() const {
  if (poison_->poisoned()) throw_poisoned();
}

void Transport::check_peer(int peer, const char* op) const {
  if (peer < 0 || peer >= size_) {
    std::ostringstream msg;
    msg << op << ": peer rank " << peer << " out of range [0, " << size_
        << ")";
    throw std::invalid_argument(msg.str());
  }
}

// ---------------------------------------------------------------------------
// Environment contract (the language tools/sb_launch speaks)

namespace {

/// The one parser for SB_COMM_* integers: the whole of `text` must be a
/// decimal integer in [lo, hi]. `what` names the variable in the error.
int parse_env_int(const char* what, const std::string& text, long lo,
                  long hi) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string(what) + ": '" + text +
                                "' is not an integer");
  }
  if (errno == ERANGE || parsed < lo || parsed > hi) {
    throw std::invalid_argument(std::string(what) + ": " + text +
                                " is outside [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return static_cast<int>(parsed);
}

int env_int(const char* name, int fallback, long lo,
            long hi = std::numeric_limits<int>::max()) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return parse_env_int(name, value, lo, hi);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = (comma == std::string::npos) ? text.size() : comma;
    if (end > begin) out.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

Backend parse_backend(const std::string& name) {
  if (name == "inproc") return Backend::kInProcess;
  if (name == "shm") return Backend::kShm;
  if (name == "tcp") return Backend::kTcp;
  throw std::invalid_argument("unknown comm backend '" + name +
                              "' (expected inproc, shm, or tcp)");
}

}  // namespace

TransportOptions options_from_env() {
  TransportOptions options;
  options.rank = env_int("SB_COMM_RANK", 0, 0);
  options.world = env_int("SB_COMM_WORLD", 1, 1);
  if (const char* backend = std::getenv("SB_COMM_BACKEND")) {
    options.backend = parse_backend(backend);
  } else {
    options.backend = Backend::kShm;
  }
  if (const char* session = std::getenv("SB_COMM_SESSION")) {
    options.session = session;
  }
  if (const char* hosts = std::getenv("SB_COMM_HOSTS")) {
    options.hosts = split_csv(hosts);
  }
  if (const char* ports = std::getenv("SB_COMM_PORTS")) {
    for (const std::string& port : split_csv(ports)) {
      options.ports.push_back(
          parse_env_int("SB_COMM_PORTS", port, 1, detail::kMaxPort));
    }
  }
  options.base_port = env_int("SB_COMM_BASE_PORT", options.base_port, 1,
                              detail::kMaxPort);
  options.connect_timeout_ms =
      env_int("SB_COMM_CONNECT_TIMEOUT_MS", options.connect_timeout_ms, 1);
  options.op_timeout_ms =
      env_int("SB_COMM_OP_TIMEOUT_MS", options.op_timeout_ms, 1);
  return options;
}

bool env_world_configured() noexcept {
  return std::getenv("SB_COMM_WORLD") != nullptr &&
         std::getenv("SB_COMM_RANK") != nullptr;
}

namespace detail {

std::string generate_session() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Factory

namespace {

std::vector<std::unique_ptr<Transport>> make_world(
    Backend backend, int size, const TransportOptions& base) {
  switch (backend) {
    case Backend::kInProcess:
      return detail::make_inproc_world(size, base);
    case Backend::kShm:
      return detail::make_shm_world(size, base);
    case Backend::kTcp:
      return detail::make_tcp_world(size, base);
  }
  throw std::invalid_argument("make_world: unknown backend");
}

}  // namespace

std::unique_ptr<Transport> make_transport(const TransportOptions& options) {
  if (options.world <= 0) {
    throw std::invalid_argument("make_transport: world size must be positive");
  }
  if (options.rank < 0 || options.rank >= options.world) {
    throw std::invalid_argument("make_transport: rank out of range");
  }
  switch (options.backend) {
    case Backend::kInProcess:
      if (options.world != 1) {
        throw std::invalid_argument(
            "make_transport: the in-process backend cannot span processes; "
            "use run()/run_transport() for threads-as-ranks worlds");
      }
      return std::move(detail::make_inproc_world(1, options)[0]);
    case Backend::kShm:
      return detail::make_shm_transport(options);
    case Backend::kTcp:
      return detail::make_tcp_transport(options);
  }
  throw std::invalid_argument("make_transport: unknown backend");
}

// ---------------------------------------------------------------------------
// Request

Request::Request(Request&& other) noexcept
    : transport_(other.transport_), complete_(std::move(other.complete_)) {
  other.transport_ = nullptr;
  other.complete_ = nullptr;
}

namespace {

void abandon_pending(Transport* transport) noexcept {
  std::ostringstream msg;
  msg << "comm::Request destroyed while pending";
  if (transport != nullptr) msg << " on rank " << transport->rank();
  msg << "; peers would block in the collective forever — poisoning the "
         "world so they fail fast (call wait() before dropping a Request)";
  SB_LOG_ERROR() << msg.str();
  if (transport != nullptr) {
    transport->poison(transport->rank(), msg.str());
  }
}

}  // namespace

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    if (complete_) abandon_pending(transport_);
    transport_ = other.transport_;
    complete_ = std::move(other.complete_);
    other.transport_ = nullptr;
    other.complete_ = nullptr;
  }
  return *this;
}

Request::~Request() {
  if (complete_) abandon_pending(transport_);
}

void Request::wait() {
  if (!complete_) return;
  // Clear first so a throwing collective cannot be re-entered.
  std::function<void()> complete = std::move(complete_);
  complete_ = nullptr;
  complete();
}

// ---------------------------------------------------------------------------
// Collectives

namespace {

template <typename T>
void apply_reduce(T* acc, const T* other, std::size_t count,
                  ReduceOp op) noexcept {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < count; ++i) acc[i] += other[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < count; ++i) {
        acc[i] = std::min(acc[i], other[i]);
      }
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < count; ++i) {
        acc[i] = std::max(acc[i], other[i]);
      }
      break;
  }
}

// Flat allreduce: pairwise exchange (round s: send to rank+s, receive
// from rank-s), then every rank reduces the P contributions in rank
// order into a private accumulator — rank 0's values first, so the
// result is bitwise equal to a serial left-to-right reduction and
// identical on every rank. Cost: (P-1)*n elements sent per rank.
template <typename T>
void allreduce_flat(Transport& t, T* data, std::size_t count, ReduceOp op) {
  const int rank = t.rank();
  const int size = t.size();
  if (size == 1) return;
  if (count == 0) {
    t.barrier();  // stay collective even with nothing to move
    return;
  }
  const std::size_t bytes = count * sizeof(T);
  std::vector<T> slots(static_cast<std::size_t>(size) * count);
  std::copy(data, data + count,
            slots.begin() + static_cast<std::size_t>(rank) * count);
  for (int s = 1; s < size; ++s) {
    const int dest = (rank + s) % size;
    const int src = (rank - s + size) % size;
    t.send(dest, detail::kCollTag, data, bytes);
    t.recv(src, detail::kCollTag,
           slots.data() + static_cast<std::size_t>(src) * count, bytes);
  }
  std::copy(slots.begin(), slots.begin() + count, data);
  for (int r = 1; r < size; ++r) {
    apply_reduce(data, slots.data() + static_cast<std::size_t>(r) * count,
                 count, op);
  }
  t.add_logical_bytes(static_cast<std::uint64_t>(count * sizeof(T)) *
                      static_cast<std::uint64_t>(size - 1));
}

// Ring allreduce: chunked reduce-scatter (step s: push the chunk
// accumulated last step to the next rank, fold the chunk arriving from
// the previous rank) followed by a ring allgather of the completed
// chunks. After the reduce-scatter, rank r owns the fully reduced chunk
// (r+1) mod P. The schedule is fixed, so the per-element association is
// deterministic (it differs from kFlat by rounding only). Cost:
// 2*(P-1)/P*n elements per rank.
template <typename T>
void allreduce_ring(Transport& t, T* data, std::size_t count, ReduceOp op) {
  const int rank = t.rank();
  const int size = t.size();
  if (size == 1) return;
  const int next = (rank + 1) % size;
  const int prev = (rank - 1 + size) % size;
  const auto chunk_begin = [count, size](int c) {
    return count * static_cast<std::size_t>(c) / static_cast<std::size_t>(size);
  };
  const auto wrap = [size](int c) { return ((c % size) + size) % size; };

  std::vector<T> work(data, data + count);
  std::vector<T> incoming(count);

  for (int s = 1; s < size; ++s) {
    const int send_chunk = wrap(rank - s + 1);
    const int recv_chunk = wrap(rank - s);
    const std::size_t s0 = chunk_begin(send_chunk);
    const std::size_t s1 = chunk_begin(send_chunk + 1);
    const std::size_t r0 = chunk_begin(recv_chunk);
    const std::size_t r1 = chunk_begin(recv_chunk + 1);
    if (s1 > s0) {
      t.send(next, detail::kCollTag, work.data() + s0, (s1 - s0) * sizeof(T));
    }
    if (r1 > r0) {
      t.recv(prev, detail::kCollTag, incoming.data(), (r1 - r0) * sizeof(T));
      apply_reduce(work.data() + r0, incoming.data(), r1 - r0, op);
    }
  }
  for (int s = 1; s < size; ++s) {
    const int send_chunk = wrap(rank + 2 - s);
    const int recv_chunk = wrap(rank + 1 - s);
    const std::size_t s0 = chunk_begin(send_chunk);
    const std::size_t s1 = chunk_begin(send_chunk + 1);
    const std::size_t r0 = chunk_begin(recv_chunk);
    const std::size_t r1 = chunk_begin(recv_chunk + 1);
    if (s1 > s0) {
      t.send(next, detail::kCollTag, work.data() + s0, (s1 - s0) * sizeof(T));
    }
    if (r1 > r0) {
      t.recv(prev, detail::kCollTag, work.data() + r0, (r1 - r0) * sizeof(T));
    }
  }
  std::copy(work.begin(), work.end(), data);

  t.add_logical_bytes(static_cast<std::uint64_t>(
      2.0 * (size - 1) / static_cast<double>(size) *
      static_cast<double>(count * sizeof(T))));
}

}  // namespace

void Communicator::barrier() { transport_->barrier(); }

template <typename T>
void Communicator::allreduce_dispatch(T* data, std::size_t count, ReduceOp op,
                                      AllreduceAlgorithm algorithm) {
  if (algorithm == AllreduceAlgorithm::kRing) {
    allreduce_ring(*transport_, data, count, op);
  } else {
    allreduce_flat(*transport_, data, count, op);
  }
}

void Communicator::allreduce(float* data, std::size_t count, ReduceOp op,
                             AllreduceAlgorithm algorithm) {
  allreduce_dispatch(data, count, op, algorithm);
}

void Communicator::allreduce(std::uint64_t* data, std::size_t count,
                             ReduceOp op, AllreduceAlgorithm algorithm) {
  allreduce_dispatch(data, count, op, algorithm);
}

void Communicator::allreduce_mean(float* data, std::size_t count,
                                  AllreduceAlgorithm algorithm) {
  allreduce(data, count, ReduceOp::kSum, algorithm);
  const float inv = 1.0f / static_cast<float>(size());
  for (std::size_t i = 0; i < count; ++i) data[i] *= inv;
}

Request Communicator::iallreduce(float* data, std::size_t count, ReduceOp op,
                                 AllreduceAlgorithm algorithm) {
  return Request(transport_, [this, data, count, op, algorithm] {
    allreduce(data, count, op, algorithm);
  });
}

// ---------------------------------------------------------------------------
// Runners

RunStats run_transport(Backend backend, int size,
                       const std::function<void(Communicator&)>& body,
                       const TransportOptions& base) {
  if (size <= 0) {
    throw std::invalid_argument("comm::run: world size must be positive");
  }
  auto ranks = make_world(backend, size, base);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size));
  threads.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    Transport* transport = ranks[static_cast<std::size_t>(r)].get();
    threads.emplace_back([transport, &body, &errors, r] {
      try {
        transport->establish();
        Communicator comm(*transport);
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        std::string reason = "rank " + std::to_string(r) + " failed: ";
        try {
          throw;
        } catch (const std::exception& e) {
          reason += e.what();
        } catch (...) {
          reason += "unknown exception";
        }
        // Poisoning wakes every peer blocked in a collective; they abort
        // with CommError, so join() below always returns.
        transport->poison(r, reason);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Surface the origin failure, not a survivor's secondary CommError: the
  // poison record names the first rank to fail, and its own exception is
  // the one worth reading.
  const int origin = ranks.front()->poisoned_rank();
  if (origin >= 0 && origin < size && errors[static_cast<std::size_t>(origin)]) {
    std::rethrow_exception(errors[static_cast<std::size_t>(origin)]);
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  if (ranks.front()->poisoned()) {
    // Poisoned without any rank throwing (e.g. a pending Request dropped
    // by a body that then returned normally).
    ranks.front()->throw_poisoned();
  }

  RunStats stats;
  stats.bytes_per_rank.reserve(static_cast<std::size_t>(size));
  stats.wire_bytes_per_rank.reserve(static_cast<std::size_t>(size));
  for (const auto& transport : ranks) {
    stats.bytes_per_rank.push_back(transport->logical_bytes_sent());
    stats.wire_bytes_per_rank.push_back(transport->wire_bytes_sent());
    stats.total_bytes += transport->logical_bytes_sent();
    stats.total_wire_bytes += transport->wire_bytes_sent();
  }
  return stats;
}

void run(int size, const std::function<void(Communicator&)>& body) {
  (void)run_transport(Backend::kInProcess, size, body);
}

// ---------------------------------------------------------------------------
// Multi-process endpoints

Endpoint::Endpoint(const TransportOptions& options)
    : transport_(make_transport(options)),
      comm_(std::make_unique<Communicator>(*transport_)) {
  transport_->establish();
}

Endpoint connect(const TransportOptions& options) { return Endpoint(options); }

Endpoint connect_env() { return connect(options_from_env()); }

}  // namespace streambrain::comm
