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
#include <string>
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

#include "comm/frame.hpp"
#include "comm/transport_internal.hpp"

namespace streambrain::comm {
namespace {

using Clock = std::chrono::steady_clock;

using detail::FrameHeader;

constexpr std::uint32_t kHelloMagic = 0x53624843u;  // "SbHC"

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
  const bool bound =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  if (!bound || ::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(bound ? "listen" : "bind(port " + std::to_string(port) + ")");
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

struct Peer {
  int fd = -1;
  bool closed = false;
};

class TcpTransport final : public detail::FramedTransport {
 public:
  TcpTransport(const TransportOptions& options,
               std::shared_ptr<PoisonState> poison, int listen_fd)
      : FramedTransport(options.rank, options.world, std::move(poison),
                        options.op_timeout_ms),
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
      send(to, detail::kBarrierTag, &token, 1);
      recv(from, detail::kBarrierTag, &token, 1);
    }
  }

 protected:
  void await_inbound(int source, int tag) override {
    if (source != rank_ && peers_[static_cast<std::size_t>(source)].closed) {
      poison(source, "rank " + std::to_string(source) +
                         " closed its connection while rank " +
                         std::to_string(rank_) + " was waiting to recv(tag=" +
                         std::to_string(tag) + ") (peer process died?)");
      throw_poisoned();
    }
    progress(20);
  }

  void announce_poison(int failed_rank,
                       const std::string& reason) noexcept override {
    // Best-effort, nonblocking: a dying rank must not hang trying to
    // report that the world is dead. Peers that miss the frame fall back
    // to EOF detection or their own op timeout.
    const FrameHeader header{failed_rank, detail::kPoisonFrame,
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
    const std::unique_ptr<addrinfo, void (*)(addrinfo*)> owned(found,
                                                               ::freeaddrinfo);
    std::chrono::milliseconds backoff{5};
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket");
      if (::connect(fd, found->ai_addr, found->ai_addrlen) == 0) {
        Hello hello{kHelloMagic, static_cast<std::uint32_t>(rank_)};
        if (!handshake_exact(fd, &hello, sizeof(hello), true, deadline)) {
          ::close(fd);
          throw CommError(peer, "tcp handshake with rank " +
                                    std::to_string(peer) + " failed");
        }
        peers_[static_cast<std::size_t>(peer)].fd = fd;
        return;
      }
      ::close(fd);
      if (Clock::now() >= deadline) {
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

  /// Accept one higher rank and identify it by its hello. The socket is
  /// nonblocking from the start, so the hello read polls against the deadline
  /// and a connection that never speaks cannot hold establish().
  void accept_one(Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        throw_errno("accept");
      }
      Hello hello{};
      if (handshake_exact(fd, &hello, sizeof(hello), false, deadline) &&
          hello.magic == kHelloMagic &&
          hello.rank > static_cast<std::uint32_t>(rank_) &&
          hello.rank < static_cast<std::uint32_t>(size_) &&
          peers_[hello.rank].fd < 0) {
        peers_[hello.rank].fd = fd;
        return;
      }
      ::close(fd);  // silent, not one of ours, or already connected
    }
    throw CommError(-1, "rank " + std::to_string(rank_) +
                            " timed out waiting for a peer to connect "
                            "(not all ranks were launched?)");
  }

  /// Move exactly `bytes` over a handshake socket, sending when `out` and
  /// receiving otherwise, polling through EAGAIN until `deadline`. False
  /// on EOF, error or timeout.
  static bool handshake_exact(int fd, void* data, std::size_t bytes, bool out,
                              Clock::time_point deadline) {
    auto* at = static_cast<unsigned char*>(data);
    for (std::size_t done = 0; done < bytes;) {
      const ssize_t n = out ? ::send(fd, at + done, bytes - done, MSG_NOSIGNAL)
                            : ::recv(fd, at + done, bytes - done, 0);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0 || (errno != EINTR && errno != EAGAIN) ||
          Clock::now() >= deadline) {
        return false;
      }
      pollfd pfd{fd, static_cast<short>(out ? POLLOUT : POLLIN), 0};
      (void)::poll(&pfd, 1, 20);
    }
    return true;
  }

  void write_wire(int dest, const void* data, std::size_t bytes) override {
    Peer& peer = peers_[static_cast<std::size_t>(dest)];
    const auto fail = [&](const char* why) {
      peer.closed = true;
      poison(dest, "send to rank " + std::to_string(dest) + " failed on rank " +
                       std::to_string(rank_) + ": " + why);
      throw_poisoned();
    };
    if (peer.fd < 0 || peer.closed) fail("connection is closed (peer died?)");
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
        check_healthy();
        if (Clock::now() >= deadline) {
          fail_timeout(dest, "send to rank " + std::to_string(dest),
                       "peer not draining");
        }
        pollfd pfd{peer.fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, 20);
        continue;
      }
      fail(n < 0 ? std::strerror(errno) : "connection closed");
    }
  }

  /// Feed readable sockets to their frame readers; waits up to
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
        receive(src, buffer, static_cast<std::size_t>(n));
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

  TransportOptions options_;
  int listen_fd_;
  std::vector<int> ports_;
  std::vector<Peer> peers_;
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
