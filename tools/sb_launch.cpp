// sb_launch — minimal mpirun-style process launcher for the comm::
// transport layer. Forks N copies of the given command with the
// SB_COMM_* environment set so each process connects one rank of the
// world via comm::connect_env():
//
//   sb_launch -n 4 --backend shm -- ./example_distributed_training
//   sb_launch -n 2 --backend tcp -- ./my_rank_program --its args
//
// Flags (before the `--` separator):
//   -n / --np N          world size (default 2)
//   --backend NAME       inproc|shm|tcp (default shm; inproc is rejected
//                        for N > 1 — threads cannot span processes)
//   --base-port P        tcp only: rank r listens on P+r, so P+N-1 must
//                        not exceed 65535. Default: pick free ports by
//                        binding port 0 and passing the discovered list
//                        via SB_COMM_PORTS.
//   --session NAME       shm only: segment name (default: generated)
//   --timeout MS         per-operation timeout handed to the ranks
//                        (SB_COMM_OP_TIMEOUT_MS, default 60000)
//
// Fault contract (mirrors the transports'): if any rank exits nonzero or
// dies on a signal, the launcher SIGTERMs the surviving ranks — whose
// transports have typically already poisoned themselves on the broken
// pipe / vanished peer — and exits with the first failure's code.
//
// POSIX-only on purpose: fork/execvp/waitpid and one AF_INET socket for
// port discovery; no dependency on the streambrain library.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

constexpr int kMaxPort = 65535;

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "sb_launch: %s\n", error);
  std::fprintf(stderr,
               "usage: %s [-n N] [--backend inproc|shm|tcp] [--base-port P]\n"
               "          [--session NAME] [--timeout MS] -- command [args...]\n",
               argv0);
  std::exit(2);
}

// Bind port 0 on loopback, read back the kernel-chosen port, and release
// it. There is a window between close() and the rank re-binding it, but
// SO_REUSEADDR plus the immediate exec makes collisions vanishingly rare
// on a test box — and a collision fails fast with EADDRINUSE, not a hang.
int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  const int port = static_cast<int>(ntohs(addr.sin_port));
  ::close(fd);
  return port;
}

// A whole decimal integer in [1, INT_MAX]; anything else exits 2.
int parse_int(const char* argv0, const char* flag, const char* value) {
  if (value == nullptr) usage(argv0, "missing value");
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed <= 0 ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "sb_launch: bad value for %s: '%s'\n", flag, value);
    std::exit(2);
  }
  return static_cast<int>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  int world = 2;
  std::string backend = "shm";
  std::string session;
  int base_port = 0;
  int timeout_ms = 0;
  int command_start = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      command_start = i + 1;
      break;
    } else if (arg == "-n" || arg == "--np") {
      world = parse_int(argv[0], arg.c_str(), argv[++i]);
    } else if (arg == "--backend") {
      if (++i >= argc) usage(argv[0], "missing value for --backend");
      backend = argv[i];
    } else if (arg == "--base-port") {
      base_port = parse_int(argv[0], arg.c_str(), argv[++i]);
    } else if (arg == "--session") {
      if (++i >= argc) usage(argv[0], "missing value for --session");
      session = argv[i];
    } else if (arg == "--timeout") {
      timeout_ms = parse_int(argv[0], arg.c_str(), argv[++i]);
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
    } else {
      usage(argv[0], ("unknown flag: " + arg).c_str());
    }
  }
  if (command_start < 0 || command_start >= argc) {
    usage(argv[0], "no command given (separate it with --)");
  }
  if (backend != "inproc" && backend != "shm" && backend != "tcp") {
    usage(argv[0], "--backend must be inproc, shm, or tcp");
  }
  if (backend == "inproc" && world > 1) {
    usage(argv[0],
          "--backend inproc cannot span processes; use shm or tcp for -n > 1");
  }
  if (base_port > kMaxPort - (world - 1)) {
    std::fprintf(stderr,
                 "sb_launch: --base-port %d with -n %d puts rank ports above "
                 "%d\n",
                 base_port, world, kMaxPort);
    return 2;
  }

  // Shared world config, identical in every child.
  if (session.empty()) {
    session = "sb_launch_" + std::to_string(static_cast<long>(::getpid()));
  }
  std::string ports_csv;
  if (backend == "tcp" && base_port == 0) {
    for (int r = 0; r < world; ++r) {
      const int port = pick_free_port();
      if (port < 0) {
        std::fprintf(stderr, "sb_launch: could not allocate a free port\n");
        return 1;
      }
      if (r > 0) ports_csv += ',';
      ports_csv += std::to_string(port);
    }
  }

  std::vector<char*> child_argv;
  for (int i = command_start; i < argc; ++i) child_argv.push_back(argv[i]);
  child_argv.push_back(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(world), -1);
  for (int r = 0; r < world; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("sb_launch: fork");
      for (int k = 0; k < r; ++k) ::kill(pids[static_cast<std::size_t>(k)],
                                         SIGTERM);
      return 1;
    }
    if (pid == 0) {
      ::setenv("SB_COMM_RANK", std::to_string(r).c_str(), 1);
      ::setenv("SB_COMM_WORLD", std::to_string(world).c_str(), 1);
      ::setenv("SB_COMM_BACKEND", backend.c_str(), 1);
      ::setenv("SB_COMM_SESSION", session.c_str(), 1);
      if (!ports_csv.empty()) ::setenv("SB_COMM_PORTS", ports_csv.c_str(), 1);
      if (base_port > 0) {
        ::setenv("SB_COMM_BASE_PORT", std::to_string(base_port).c_str(), 1);
      }
      if (timeout_ms > 0) {
        ::setenv("SB_COMM_OP_TIMEOUT_MS", std::to_string(timeout_ms).c_str(),
                 1);
      }
      ::execvp(child_argv[0], child_argv.data());
      std::fprintf(stderr, "sb_launch: exec %s: %s\n", child_argv[0],
                   std::strerror(errno));
      std::_Exit(127);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Reap; on the first failure, terminate the survivors so a wedged or
  // crashed world cannot hang the launcher (the ranks' own op timeouts
  // are the second line of defense).
  int exit_code = 0;
  int remaining = world;
  bool terminated_survivors = false;
  while (remaining > 0) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      break;
    }
    int rank = -1;
    for (int r = 0; r < world; ++r) {
      if (pids[static_cast<std::size_t>(r)] == pid) rank = r;
    }
    if (rank < 0) continue;  // not ours (shouldn't happen)
    pids[static_cast<std::size_t>(rank)] = -1;
    --remaining;

    int code = 0;
    if (WIFEXITED(status)) {
      code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      code = 128 + WTERMSIG(status);
      std::fprintf(stderr, "sb_launch: rank %d killed by signal %d\n", rank,
                   WTERMSIG(status));
    }
    if (code != 0) {
      std::fprintf(stderr, "sb_launch: rank %d exited with code %d\n", rank,
                   code);
      if (exit_code == 0) exit_code = code;
      if (!terminated_survivors) {
        terminated_survivors = true;
        for (int r = 0; r < world; ++r) {
          if (pids[static_cast<std::size_t>(r)] > 0) {
            ::kill(pids[static_cast<std::size_t>(r)], SIGTERM);
          }
        }
      }
    }
  }
  return exit_code;
}
