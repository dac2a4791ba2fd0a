// TCP backend: ranks are processes on one or many hosts, frames are
// length-prefixed over a full mesh of sockets. Establishment is
// deadlock-free by construction: every rank's listener exists before any
// connect is attempted (pre-bound by the factory in thread mode; bound at
// the top of establish() in multi-process mode, with connect retry +
// exponential backoff up to connect_timeout_ms), lower ranks accept,
// higher ranks connect, and a hello frame identifies the connector. The
// data plane is nonblocking: a blocked send keeps draining inbound
// traffic (so pairwise exchanges larger than the socket buffers cannot
// deadlock), a peer's EOF marks it dead, and any operation that then
// needs that peer poisons the world with a CommError naming it. Poison
// crosses the wire as a dedicated frame kind, broadcast best-effort to
// every peer. The barrier is a dissemination barrier over 1-byte tokens
// on a reserved tag.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/transport_internal.hpp"

namespace streambrain::comm {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kHelloMagic = 0x53624843u;  // "SbHC"
constexpr std::uint32_t kData = 0;
constexpr std::uint32_t kPoison = 1;

struct FrameHeader {
  std::int32_t tag;     // kPoison frames carry the failed rank here
  std::uint32_t kind;   // kData | kPoison
  std::uint64_t size;   // payload bytes following the header
};
static_assert(sizeof(FrameHeader) == 16);

struct Hello {
  std::uint32_t magic;
  std::uint32_t rank;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw CommError(-1, what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Collective chunks are latency-sensitive and self-batched; Nagle only
  // adds round trips.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int bind_listener(const char* host, int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr =
      (host == nullptr || *host == '\0') ? htonl(INADDR_ANY)
                                         : ::inet_addr(host);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("bind(port " + std::to_string(port) + ")");
  }
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("listen");
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

/// Incremental frame parser for one inbound socket.
struct PeerParse {
  bool have_header = false;
  FrameHeader header{};
  std::size_t header_got = 0;
  std::vector<unsigned char> payload;
  std::size_t payload_got = 0;
};

struct Peer {
  int fd = -1;
  bool closed = false;
  PeerParse parse;
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(const TransportOptions& options,
               std::shared_ptr<PoisonState> poison, int listen_fd)
      : Transport(options.rank, options.world, std::move(poison)),
        options_(options),
        listen_fd_(listen_fd),
        peers_(static_cast<std::size_t>(options.world)) {}

  ~TcpTransport() override {
    for (Peer& peer : peers_) {
      if (peer.fd >= 0) ::close(peer.fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kTcp;
  }

  void establish() override {
    if (size_ == 1) {
      close_listener();
      return;
    }
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
    resolve_ports();
    if (listen_fd_ < 0) {
      listen_fd_ = bind_listener(nullptr, ports_[static_cast<std::size_t>(rank_)],
                                 size_ + 8);
    }
    // Connect to every lower rank (their listeners are already bound, so
    // the kernel completes handshakes without waiting for their accept),
    // then accept every higher rank and identify it by its hello.
    for (int peer = 0; peer < rank_; ++peer) connect_to(peer, deadline);
    for (int n = rank_ + 1; n < size_; ++n) accept_one(deadline);
    close_listener();
    for (int peer = 0; peer < size_; ++peer) {
      if (peer == rank_) continue;
      set_nonblocking(peers_[static_cast<std::size_t>(peer)].fd);
      set_nodelay(peers_[static_cast<std::size_t>(peer)].fd);
    }
  }

  void barrier() override {
    check_healthy();
    if (size_ == 1) return;
    // Dissemination barrier: after round k every rank has transitively
    // heard from 2^(k+1) predecessors; ceil(log2(P)) rounds synchronize
    // everyone. Tokens ride the reserved barrier tag; FIFO per channel
    // keeps back-to-back barriers from stealing each other's tokens.
    unsigned char token = 1;
    for (int hop = 1; hop < size_; hop <<= 1) {
      const int to = (rank_ + hop) % size_;
      const int from = (rank_ - hop % size_ + size_) % size_;
      do_send(to, detail::kBarrierTag, &token, 1);
      do_recv(from, detail::kBarrierTag, &token, 1);
    }
  }

 protected:
  void do_send(int dest, int tag, const void* data,
               std::size_t bytes) override {
    if (dest == rank_) {
      const auto* begin = static_cast<const unsigned char*>(data);
      pending_[{rank_, tag}].emplace_back(begin, begin + bytes);
      return;  // no wire crossed
    }
    const FrameHeader header{tag, kData, static_cast<std::uint64_t>(bytes)};
    write_all(dest, &header, sizeof(header));
    if (bytes > 0) write_all(dest, data, bytes);
    add_wire_bytes(sizeof(header) + bytes);
  }

  void do_recv(int source, int tag, void* data,
               std::size_t expected_bytes) override {
    const auto deadline = op_deadline();
    const std::pair<int, int> key{source, tag};
    for (;;) {
      auto it = pending_.find(key);
      if (it != pending_.end() && !it->second.empty()) {
        std::vector<unsigned char> payload = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) pending_.erase(it);
        if (payload.size() != expected_bytes) {
          std::ostringstream msg;
          msg << "recv(source=" << source << ", tag=" << tag << ") on rank "
              << rank_ << ": size mismatch: posted " << expected_bytes
              << " bytes but the matched message carries " << payload.size()
              << " bytes (send/recv count mismatch)";
          throw CommError(rank_, msg.str());
        }
        if (expected_bytes > 0) {
          std::memcpy(data, payload.data(), expected_bytes);
        }
        return;
      }
      if (poison_->poisoned()) throw_poisoned();
      if (source != rank_ && peers_[static_cast<std::size_t>(source)].closed) {
        std::ostringstream msg;
        msg << "rank " << source << " closed its connection while rank "
            << rank_ << " was waiting to recv(tag=" << tag
            << ") (peer process died?)";
        poison(source, msg.str());
        throw_poisoned();
      }
      progress(20);
      if (Clock::now() >= deadline) {
        std::ostringstream msg;
        msg << "recv(source=" << source << ", tag=" << tag << ") on rank "
            << rank_ << " timed out after " << options_.op_timeout_ms
            << " ms (peer never sent)";
        poison(source, msg.str());
        throw_poisoned();
      }
    }
  }

  void announce_poison(int failed_rank,
                       const std::string& reason) noexcept override {
    // Best-effort, nonblocking: a dying rank must not hang trying to
    // report that the world is dead. Peers that miss the frame fall back
    // to EOF detection or their own op timeout.
    const FrameHeader header{failed_rank, kPoison,
                             static_cast<std::uint64_t>(reason.size())};
    for (int peer = 0; peer < size_; ++peer) {
      if (peer == rank_) continue;
      const Peer& p = peers_[static_cast<std::size_t>(peer)];
      if (p.fd < 0 || p.closed) continue;
      // One small frame; either it fits in the socket buffer or we drop it.
      if (::send(p.fd, &header, sizeof(header), MSG_NOSIGNAL | MSG_DONTWAIT) ==
          static_cast<ssize_t>(sizeof(header))) {
        (void)::send(p.fd, reason.data(), reason.size(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
      }
    }
  }

 private:
  [[nodiscard]] Clock::time_point op_deadline() const {
    return Clock::now() + std::chrono::milliseconds(options_.op_timeout_ms);
  }

  void close_listener() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  void resolve_ports() {
    if (!options_.ports.empty()) {
      if (static_cast<int>(options_.ports.size()) != size_) {
        throw std::invalid_argument(
            "tcp transport: ports list must have one entry per rank");
      }
      for (const int port : options_.ports) {
        if (port < 1 || port > detail::kMaxPort) {
          throw std::invalid_argument("tcp transport: port " +
                                      std::to_string(port) +
                                      " is outside [1, " +
                                      std::to_string(detail::kMaxPort) + "]");
        }
      }
      ports_ = options_.ports;
    } else if (options_.base_port > 0) {
      if (options_.base_port > detail::kMaxPort - (size_ - 1)) {
        throw std::invalid_argument(
            "tcp transport: base_port " + std::to_string(options_.base_port) +
            " puts rank " + std::to_string(size_ - 1) + " above port " +
            std::to_string(detail::kMaxPort));
      }
      ports_.resize(static_cast<std::size_t>(size_));
      for (int r = 0; r < size_; ++r) ports_[static_cast<std::size_t>(r)] =
          options_.base_port + r;
    } else {
      throw std::invalid_argument(
          "tcp transport: set ports (one per rank) or base_port so the "
          "mesh can rendezvous");
    }
  }

  [[nodiscard]] std::string peer_host(int peer) const {
    if (static_cast<std::size_t>(peer) < options_.hosts.size()) {
      return options_.hosts[static_cast<std::size_t>(peer)];
    }
    return "127.0.0.1";
  }

  void connect_to(int peer, Clock::time_point deadline) {
    const std::string host = peer_host(peer);
    const std::string port =
        std::to_string(ports_[static_cast<std::size_t>(peer)]);
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &found) != 0 ||
        found == nullptr) {
      throw CommError(-1, "getaddrinfo(" + host + ":" + port + ") failed");
    }
    std::chrono::milliseconds backoff{5};
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        ::freeaddrinfo(found);
        throw_errno("socket");
      }
      if (::connect(fd, found->ai_addr, found->ai_addrlen) == 0) {
        ::freeaddrinfo(found);
        const Hello hello{kHelloMagic, static_cast<std::uint32_t>(rank_)};
        if (!send_exact(fd, &hello, sizeof(hello), deadline)) {
          ::close(fd);
          throw CommError(peer, "tcp handshake with rank " +
                                    std::to_string(peer) + " failed");
        }
        peers_[static_cast<std::size_t>(peer)].fd = fd;
        return;
      }
      ::close(fd);
      if (Clock::now() >= deadline) {
        ::freeaddrinfo(found);
        throw CommError(
            peer, "rank " + std::to_string(rank_) + " could not connect to "
                      "rank " + std::to_string(peer) + " at " + host + ":" +
                      port + " within " +
                      std::to_string(options_.connect_timeout_ms) +
                      " ms (peer never started listening?)");
      }
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds{200});
    }
  }

  void accept_one(Clock::time_point deadline) {
    for (;;) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 50);
      if (ready > 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          throw_errno("accept");
        }
        Hello hello{};
        if (!recv_exact(fd, &hello, sizeof(hello), deadline) ||
            hello.magic != kHelloMagic ||
            hello.rank >= static_cast<std::uint32_t>(size_)) {
          ::close(fd);  // not one of ours
          continue;
        }
        peers_[hello.rank].fd = fd;
        return;
      }
      if (Clock::now() >= deadline) {
        throw CommError(-1, "rank " + std::to_string(rank_) +
                                " timed out waiting for a peer to connect "
                                "(not all ranks were launched?)");
      }
    }
  }

  static bool send_exact(int fd, const void* data, std::size_t bytes,
                         Clock::time_point deadline) {
    const auto* src = static_cast<const unsigned char*>(data);
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n =
          ::send(fd, src + done, bytes - done, MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
        if (Clock::now() >= deadline) return false;
        pollfd pfd{fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, 20);
        continue;
      }
      return false;
    }
    return true;
  }

  static bool recv_exact(int fd, void* data, std::size_t bytes,
                         Clock::time_point deadline) {
    auto* dst = static_cast<unsigned char*>(data);
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n = ::recv(fd, dst + done, bytes - done, 0);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
        if (Clock::now() >= deadline) return false;
        pollfd pfd{fd, POLLIN, 0};
        (void)::poll(&pfd, 1, 20);
        continue;
      }
      return false;  // EOF or hard error
    }
    return true;
  }

  void write_all(int dest, const void* data, std::size_t bytes) {
    Peer& peer = peers_[static_cast<std::size_t>(dest)];
    if (peer.fd < 0 || peer.closed) {
      std::ostringstream msg;
      msg << "send to rank " << dest << " failed on rank " << rank_
          << ": connection is closed (peer process died?)";
      poison(dest, msg.str());
      throw_poisoned();
    }
    const auto* src = static_cast<const unsigned char*>(data);
    std::size_t done = 0;
    const auto deadline = op_deadline();
    while (done < bytes) {
      const ssize_t n =
          ::send(peer.fd, src + done, bytes - done, MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        // Socket buffer full: drain inbound while blocked so pairwise
        // exchanges of large payloads cannot deadlock.
        progress(0);
        if (poison_->poisoned()) throw_poisoned();
        if (Clock::now() >= deadline) {
          std::ostringstream msg;
          msg << "send to rank " << dest << " stalled for "
              << options_.op_timeout_ms << " ms on rank " << rank_
              << " (peer not draining)";
          poison(dest, msg.str());
          throw_poisoned();
        }
        pollfd pfd{peer.fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, 20);
        continue;
      }
      std::ostringstream msg;
      msg << "send to rank " << dest << " failed on rank " << rank_ << ": "
          << (n < 0 ? std::strerror(errno) : "connection closed");
      peer.closed = true;
      poison(dest, msg.str());
      throw_poisoned();
    }
  }

  /// Drain readable sockets into the pending queues; waits up to
  /// `wait_ms` for something to arrive.
  void progress(int wait_ms) {
    std::vector<pollfd> pfds;
    std::vector<int> owners;
    pfds.reserve(static_cast<std::size_t>(size_));
    owners.reserve(static_cast<std::size_t>(size_));
    for (int peer = 0; peer < size_; ++peer) {
      const Peer& p = peers_[static_cast<std::size_t>(peer)];
      if (peer == rank_ || p.fd < 0 || p.closed) continue;
      pfds.push_back({p.fd, POLLIN, 0});
      owners.push_back(peer);
    }
    if (pfds.empty()) return;
    const int ready = ::poll(pfds.data(), pfds.size(), wait_ms);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain_peer(owners[i]);
      }
    }
  }

  void drain_peer(int src) {
    Peer& peer = peers_[static_cast<std::size_t>(src)];
    unsigned char buffer[16384];
    for (;;) {
      const ssize_t n = ::recv(peer.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        feed(src, buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      // EOF (orderly close at teardown, or the peer died). Only an
      // operation that actually needs this peer turns it into poison.
      peer.closed = true;
      return;
    }
  }

  void feed(int src, const unsigned char* data, std::size_t bytes) {
    PeerParse& parse = peers_[static_cast<std::size_t>(src)].parse;
    std::size_t at = 0;
    while (at < bytes) {
      if (!parse.have_header) {
        const std::size_t want = sizeof(FrameHeader) - parse.header_got;
        const std::size_t n = std::min(want, bytes - at);
        std::memcpy(reinterpret_cast<unsigned char*>(&parse.header) +
                        parse.header_got,
                    data + at, n);
        parse.header_got += n;
        at += n;
        if (parse.header_got == sizeof(FrameHeader)) {
          parse.have_header = true;
          parse.payload.resize(static_cast<std::size_t>(parse.header.size));
          parse.payload_got = 0;
          if (parse.header.size == 0) complete_frame(src, parse);
        }
      } else {
        const std::size_t want = parse.payload.size() - parse.payload_got;
        const std::size_t n = std::min(want, bytes - at);
        std::memcpy(parse.payload.data() + parse.payload_got, data + at, n);
        parse.payload_got += n;
        at += n;
        if (parse.payload_got == parse.payload.size()) {
          complete_frame(src, parse);
        }
      }
    }
  }

  void complete_frame(int src, PeerParse& parse) {
    if (parse.header.kind == kPoison) {
      const std::string reason(parse.payload.begin(), parse.payload.end());
      // poison() re-broadcasts, so the claim survives even if the origin
      // died before reaching every peer; duplicates are no-ops.
      poison(parse.header.tag, reason);
      parse = PeerParse{};
      return;
    }
    pending_[{src, parse.header.tag}].push_back(std::move(parse.payload));
    parse = PeerParse{};
  }

  TransportOptions options_;
  int listen_fd_;
  std::vector<int> ports_;
  std::vector<Peer> peers_;
  std::map<std::pair<int, int>, std::deque<std::vector<unsigned char>>>
      pending_;
};

}  // namespace
}  // namespace streambrain::comm

namespace streambrain::comm::detail {

std::vector<std::unique_ptr<Transport>> make_tcp_world(
    int world, const TransportOptions& base) {
  TransportOptions options = base;
  options.backend = Backend::kTcp;
  options.world = world;
  auto poison = std::make_shared<PoisonState>();
  // Pre-bind every rank's loopback listener on an ephemeral port so the
  // connect/accept dance cannot race and no fixed ports are consumed.
  std::vector<int> fds;
  std::vector<int> ports;
  fds.reserve(static_cast<std::size_t>(world));
  ports.reserve(static_cast<std::size_t>(world));
  try {
    for (int r = 0; r < world; ++r) {
      const int fd = bind_listener("127.0.0.1", 0, world + 8);
      fds.push_back(fd);
      ports.push_back(bound_port(fd));
    }
  } catch (...) {
    for (const int fd : fds) ::close(fd);
    throw;
  }
  options.ports = ports;
  options.hosts.clear();
  std::vector<std::unique_ptr<Transport>> ranks;
  ranks.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    options.rank = r;
    ranks.push_back(std::make_unique<TcpTransport>(options, poison, fds[r]));
  }
  return ranks;
}

std::unique_ptr<Transport> make_tcp_transport(const TransportOptions& options) {
  return std::make_unique<TcpTransport>(
      options, std::make_shared<PoisonState>(), -1);
}

}  // namespace streambrain::comm::detail
