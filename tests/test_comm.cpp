// Tests for the comm substrate: the barrier and allreduce over
// threads-as-ranks, determinism, byte accounting, the transport's
// point-to-point frames, the frame reader under seeded mutations,
// world-poisoning fault semantics, the SB_COMM_* environment contract,
// hostile TCP peers and mismatched shm worlds, and real multi-process
// transports (fork + shm / TCP).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/frame.hpp"
#include "util/rng.hpp"

// fork() inside a ThreadSanitizer'd gtest binary trips TSan's
// fork-with-threads machinery; the multi-process death tests are
// single-process-visible hangs anyway, so skip them under TSan only.
#if defined(__SANITIZE_THREAD__)
#define STREAMBRAIN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STREAMBRAIN_TSAN_BUILD 1
#endif
#endif

namespace sc = streambrain::comm;
namespace scd = streambrain::comm::detail;
namespace su = streambrain::util;

TEST(Comm, RunInvokesEveryRank) {
  std::vector<std::atomic<int>> visited(4);
  sc::run(4, [&](sc::Communicator& comm) {
    ++visited[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(comm.size(), 4);
  });
  for (const auto& v : visited) EXPECT_EQ(v.load(), 1);
}

TEST(Comm, RunRejectsNonPositiveSize) {
  EXPECT_THROW(sc::run(0, [](sc::Communicator&) {}), std::invalid_argument);
}

TEST(Comm, RunPropagatesRankExceptions) {
  // Unlike real MPI, a dying rank does NOT strand its peers: the failure
  // poisons the world, every blocked collective aborts with CommError,
  // and run() rethrows the original exception (see the fault-semantics
  // tests below for the collective-in-flight cases).
  EXPECT_THROW(sc::run(3,
                       [](sc::Communicator& comm) {
                         if (comm.rank() == 1) {
                           throw std::runtime_error("rank 1 failed");
                         }
                       }),
               std::runtime_error);
}

TEST(Comm, AllreduceSumFloat) {
  sc::run(4, [](sc::Communicator& comm) {
    std::vector<float> data = {static_cast<float>(comm.rank() + 1), 10.0f};
    comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    EXPECT_FLOAT_EQ(data[0], 10.0f);  // 1+2+3+4
    EXPECT_FLOAT_EQ(data[1], 40.0f);
  });
}

TEST(Comm, AllreduceMinMax) {
  sc::run(3, [](sc::Communicator& comm) {
    std::vector<float> lo = {static_cast<float>(comm.rank())};
    std::vector<float> hi = {static_cast<float>(comm.rank())};
    comm.allreduce(lo.data(), 1, sc::ReduceOp::kMin);
    comm.allreduce(hi.data(), 1, sc::ReduceOp::kMax);
    EXPECT_FLOAT_EQ(lo[0], 0.0f);
    EXPECT_FLOAT_EQ(hi[0], 2.0f);
  });
}

TEST(Comm, AllreduceMeanAveragesContributions) {
  sc::run(5, [](sc::Communicator& comm) {
    std::vector<float> data = {static_cast<float>(10 * comm.rank())};
    comm.allreduce_mean(data.data(), 1);
    EXPECT_FLOAT_EQ(data[0], 20.0f);  // mean of 0,10,20,30,40
  });
}

TEST(Comm, AllreduceIsDeterministicAcrossRepeats) {
  // Sum of irrational-ish floats in fixed rank order must be bitwise
  // repeatable run-to-run (this is what makes distributed BCPNN training
  // deterministic).
  std::vector<float> first;
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::vector<float> result(8);
    sc::run(4, [&](sc::Communicator& comm) {
      su::Rng rng(1000 + comm.rank());
      std::vector<float> data(8);
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
      if (comm.rank() == 0) result = data;
    });
    if (repeat == 0) {
      first = result;
    } else {
      for (std::size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i], first[i]);  // bitwise
      }
    }
  }
}

TEST(Comm, AllRanksGetIdenticalAllreduceResult) {
  std::vector<std::vector<float>> per_rank(4);
  sc::run(4, [&](sc::Communicator& comm) {
    su::Rng rng(7 + comm.rank());
    std::vector<float> data(16);
    for (auto& v : data) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    per_rank[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(per_rank[0], per_rank[static_cast<std::size_t>(r)]);
  }
}

// --- Transport point-to-point frames (what the collectives are built on) --

TEST(Comm, SendRecvPointToPoint) {
  sc::run(2, [](sc::Communicator& comm) {
    if (comm.rank() == 0) {
      const float payload[3] = {1.0f, 2.0f, 3.0f};
      comm.transport().send(1, 7, payload, sizeof(payload));
    } else {
      float received[3] = {};
      comm.transport().recv(0, 7, received, sizeof(received));
      EXPECT_FLOAT_EQ(received[0], 1.0f);
      EXPECT_FLOAT_EQ(received[2], 3.0f);
    }
  });
}

TEST(Comm, SendRecvTagsAreIndependentChannels) {
  sc::run(2, [](sc::Communicator& comm) {
    if (comm.rank() == 0) {
      const float a = 1.0f;
      const float b = 2.0f;
      comm.transport().send(1, /*tag=*/100, &a, sizeof(a));
      comm.transport().send(1, /*tag=*/200, &b, sizeof(b));
    } else {
      float b = 0.0f;
      float a = 0.0f;
      // Out of send order, matched by tag.
      comm.transport().recv(0, 200, &b, sizeof(b));
      comm.transport().recv(0, 100, &a, sizeof(a));
      EXPECT_FLOAT_EQ(a, 1.0f);
      EXPECT_FLOAT_EQ(b, 2.0f);
    }
  });
}

TEST(Comm, RecvSizeMismatchThrows) {
  EXPECT_THROW(sc::run(2,
                       [](sc::Communicator& comm) {
                         if (comm.rank() == 0) {
                           const float v = 1.0f;
                           comm.transport().send(1, 0, &v, sizeof(v));
                         } else {
                           float two[2];
                           comm.transport().recv(0, 0, two, sizeof(two));
                         }
                       }),
               std::runtime_error);
}

TEST(Comm, ByteAccountingGrowsWithTraffic) {
  std::uint64_t bytes_small = 0;
  std::uint64_t bytes_large = 0;
  sc::run(4, [&](sc::Communicator& comm) {
    std::vector<float> small(10, 1.0f);
    comm.allreduce(small.data(), small.size(), sc::ReduceOp::kSum);
    if (comm.rank() == 0) bytes_small = comm.bytes_sent();
  });
  sc::run(4, [&](sc::Communicator& comm) {
    std::vector<float> large(1000, 1.0f);
    comm.allreduce(large.data(), large.size(), sc::ReduceOp::kSum);
    if (comm.rank() == 0) bytes_large = comm.bytes_sent();
  });
  EXPECT_GT(bytes_large, bytes_small * 50);
}

TEST(Comm, SingleRankCollectivesAreLocal) {
  sc::run(1, [](sc::Communicator& comm) {
    std::vector<float> data = {3.0f};
    comm.allreduce_mean(data.data(), 1);
    EXPECT_FLOAT_EQ(data[0], 3.0f);
    comm.barrier();
  });
}

TEST(Comm, ManyBarriersDoNotDeadlock) {
  sc::run(6, [](sc::Communicator& comm) {
    for (int i = 0; i < 200; ++i) comm.barrier();
  });
  SUCCEED();
}

TEST(Comm, SendAboveTheFrameBoundIsRefusedBeforeReadingAByte) {
  sc::run(2, [](sc::Communicator& comm) {
    if (comm.rank() != 0) return;
    // A null buffer: the size check must come before any byte is read.
    EXPECT_THROW(comm.transport().send(1, 0, nullptr, scd::kMaxFrameBytes + 1),
                 sc::CommError);
  });
}

// --- The frame reader every inbound shm and TCP byte goes through ----------

namespace {

struct Frame {
  scd::FrameHeader header;
  scd::Payload payload;

  bool operator==(const Frame& other) const {
    return header.tag == other.header.tag &&
           header.kind == other.header.kind &&
           header.size == other.header.size && payload == other.payload;
  }
};

/// Zero-length and small frames, one larger than the 64 KiB shm ring, and
/// a poison frame, serialized back to back as the wire carries them.
std::vector<Frame> sample_frames() {
  su::Rng rng(25);
  std::vector<Frame> frames;
  const std::size_t sizes[] = {0, 3, 64 * 1024 + 1, 0, 17};
  int tag = -3;
  for (const std::size_t size : sizes) {
    Frame frame{{tag++, scd::kDataFrame, size}, scd::Payload(size)};
    for (auto& byte : frame.payload) byte = static_cast<unsigned char>(rng());
    frames.push_back(std::move(frame));
  }
  const std::string reason = "rank 2 failed";
  frames.push_back({{2, scd::kPoisonFrame, reason.size()},
                    scd::Payload(reason.begin(), reason.end())});
  return frames;
}

std::vector<unsigned char> encode(const std::vector<Frame>& frames) {
  std::vector<unsigned char> stream;
  for (const Frame& frame : frames) {
    const auto* header = reinterpret_cast<const unsigned char*>(&frame.header);
    stream.insert(stream.end(), header, header + sizeof(frame.header));
    stream.insert(stream.end(), frame.payload.begin(), frame.payload.end());
  }
  return stream;
}

/// Feed `stream` to one reader in pieces that end at each of the ascending
/// `cuts`, then the rest; returns the frames it completed.
std::vector<Frame> decode(const std::vector<unsigned char>& stream,
                          const std::vector<std::size_t>& cuts) {
  scd::FrameReader reader;
  std::vector<Frame> frames;
  const auto sink = [&](const scd::FrameHeader& header, scd::Payload payload) {
    frames.push_back({header, std::move(payload)});
  };
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    reader.feed(stream.data() + at, cut - at, sink);
    at = cut;
  }
  reader.feed(stream.data() + at, stream.size() - at, sink);
  return frames;
}

std::vector<std::size_t> random_cuts(su::Rng& rng, std::size_t bytes,
                                     std::size_t max_chunk) {
  std::vector<std::size_t> cuts;
  for (std::size_t at = 1 + rng.uniform_index(max_chunk); at < bytes;
       at += 1 + rng.uniform_index(max_chunk)) {
    cuts.push_back(at);
  }
  return cuts;
}

}  // namespace

TEST(CommFrame, ValidStreamDecodesAtEverySplitAndChunking) {
  const std::vector<Frame> frames = sample_frames();
  const std::vector<unsigned char> stream = encode(frames);
#ifdef STREAMBRAIN_TSAN_BUILD
  // ThreadSanitizer instruments every copied byte, which stretches this
  // quadratic sweep to 30 s. The reader is single-threaded, so under TSan
  // the splits inside the large payload step by 61 bytes.
  constexpr std::size_t kPayloadStep = 61;
#else
  constexpr std::size_t kPayloadStep = 1;
#endif
  const std::size_t large_begin = 2 * sizeof(scd::FrameHeader) +
                                  frames[0].payload.size() +
                                  frames[1].payload.size() +
                                  sizeof(scd::FrameHeader);
  const std::size_t large_end = large_begin + frames[2].payload.size();
  for (std::size_t cut = 0; cut <= stream.size();
       cut += cut > large_begin && cut + kPayloadStep < large_end
                  ? kPayloadStep
                  : 1) {
    ASSERT_TRUE(decode(stream, {cut}) == frames) << "split at byte " << cut;
  }
  su::Rng rng(2025);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t max_chunk = trial % 2 == 0 ? 7 : 9000;
    ASSERT_TRUE(decode(stream, random_cuts(rng, stream.size(), max_chunk)) ==
                frames)
        << "trial " << trial;
  }
}

TEST(CommFrame, HeaderAboveTheBoundOrOfUnknownKindIsRejected) {
  // Only the 16 header bytes are fed: the reader must refuse before it
  // allocates a payload, so a size past RAM cannot surface as
  // std::bad_alloc.
  const scd::FrameHeader bad[] = {
      {0, scd::kDataFrame, scd::kMaxFrameBytes + 1},
      {0, scd::kDataFrame, std::uint64_t{1} << 40},
      {0, scd::kDataFrame, std::numeric_limits<std::uint64_t>::max()},
      {0, scd::kPoisonFrame, scd::kMaxFrameBytes + 1},
      {0, 2, 4},
      {0, std::numeric_limits<std::uint32_t>::max(), 0},
  };
  for (const scd::FrameHeader& header : bad) {
    scd::FrameReader reader;
    const auto* bytes = reinterpret_cast<const unsigned char*>(&header);
    int frames = 0;
    try {
      reader.feed(bytes, sizeof(header), [&](const auto&, auto) { ++frames; });
      ADD_FAILURE() << "kind " << header.kind << ", size " << header.size
                    << " was accepted";
    } catch (const sc::CommError& error) {
      EXPECT_NE(std::string(error.what()).find(std::to_string(header.size)),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(frames, 0);
  }
}

TEST(CommFrame, MutatedStreamsYieldFramesOrCommError) {
  // Truncations, byte stomps and bit-rot, half of them aimed at the frame
  // headers, each fed in random chunks: the reader either completes
  // frames (within the bound) or throws CommError — nothing else.
  const std::vector<Frame> frames = sample_frames();
  const std::vector<unsigned char> stream = encode(frames);
  std::vector<std::size_t> headers;
  for (std::size_t at = 0; const Frame& frame : frames) {
    headers.push_back(at);
    at += sizeof(frame.header) + frame.payload.size();
  }
  su::Rng rng(8);
  const auto pick = [&] {
    return rng.bernoulli(0.5)
               ? headers[rng.uniform_index(headers.size())] +
                     rng.uniform_index(sizeof(scd::FrameHeader))
               : rng.uniform_index(stream.size());
  };
  int rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<unsigned char> mutated = stream;
    const int edits = 1 + static_cast<int>(rng.uniform_index(4));
    switch (trial % 3) {
      case 0:
        mutated.resize(rng.uniform_index(stream.size()));
        break;
      case 1:
        for (int e = 0; e < edits; ++e) {
          mutated[pick()] = static_cast<unsigned char>(rng());
        }
        break;
      default:
        for (int e = 0; e < edits; ++e) {
          mutated[pick()] ^= static_cast<unsigned char>(1u << rng.uniform_index(8));
        }
        break;
    }
    try {
      for (const Frame& frame : decode(mutated, random_cuts(rng, mutated.size(), 4096))) {
        ASSERT_LE(frame.payload.size(), scd::kMaxFrameBytes);
      }
    } catch (const sc::CommError&) {
      ++rejected;
    } catch (const std::exception& error) {
      FAIL() << "trial " << trial << " threw " << error.what();
    }
  }
  EXPECT_GT(rejected, 0);  // the header mutations reached the checks
}

// --- Fault semantics: rank failures must never hang the world ---------------

TEST(Comm, RankExceptionBeforeBarrierPoisonsWorldAndReturns) {
  // The original bug: rank 1 dies before the barrier, ranks 0 and 2 are
  // already inside it, and run() never returns. Now the failure poisons
  // the world: the barrier aborts with CommError naming rank 1 on every
  // survivor, and run() rethrows rank 1's original exception.
  std::atomic<int> survivors_aborted{0};
  try {
    sc::run(3, [&](sc::Communicator& comm) {
      if (comm.rank() == 1) {
        throw std::runtime_error("rank 1 failed before the barrier");
      }
      try {
        comm.barrier();
      } catch (const sc::CommError& error) {
        EXPECT_EQ(error.failed_rank(), 1);
        EXPECT_NE(std::string(error.what()).find("rank 1"), std::string::npos);
        ++survivors_aborted;
        throw;
      }
    });
    FAIL() << "run() swallowed the rank failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rank 1 failed before the barrier");
  }
  EXPECT_EQ(survivors_aborted.load(), 2);
}

TEST(Comm, PendingRequestDestructionPoisonsWorld) {
  // Dropping a Request while its collective is still pending used to be
  // documented as an MPI-style footgun ("peers deadlock, exactly like
  // real MPI"). Now it is loud and survivable: the destructor poisons
  // the world, so the run fails fast with a descriptive CommError
  // instead of stranding the other ranks inside the allreduce.
  try {
    sc::run(2, [](sc::Communicator& comm) {
      std::vector<float> data(32, 1.0f);
      {
        sc::Request dropped =
            comm.iallreduce(data.data(), data.size(), sc::ReduceOp::kSum);
        EXPECT_TRUE(dropped.pending());
        // ...destroyed without wait().
      }
    });
    FAIL() << "abandoned collective did not surface";
  } catch (const sc::CommError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("Request destroyed while pending"), std::string::npos)
        << what;
    EXPECT_NE(what.find("wait()"), std::string::npos) << what;
  }
}

TEST(Comm, MovedFromRequestIsInert) {
  sc::run(2, [](sc::Communicator& comm) {
    std::vector<float> data(8, 1.0f);
    sc::Request request =
        comm.iallreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    sc::Request moved = std::move(request);
    EXPECT_FALSE(request.pending());  // NOLINT(bugprone-use-after-move)
    request.wait();                   // no-op, not a double wait
    EXPECT_TRUE(moved.pending());
    moved.wait();
    EXPECT_FALSE(moved.pending());
  });
}

TEST(Comm, OutOfRangePeersAreRejected) {
  sc::run(2, [](sc::Communicator& comm) {
    float v = 0.0f;
    EXPECT_THROW(comm.transport().send(/*dest=*/2, /*tag=*/0, &v, sizeof(v)),
                 std::invalid_argument);
    EXPECT_THROW(
        comm.transport().recv(/*source=*/-1, /*tag=*/0, &v, sizeof(v)),
        std::invalid_argument);
  });
}

// --- The SB_COMM_* environment contract -------------------------------------

namespace {

/// Set (or unset, for nullptr) one environment variable for a scope and
/// restore its previous value afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace

TEST(Comm, CommEnvIntegersAreRangeChecked) {
  // Every SB_COMM_* integer goes through one range-checked parser: values
  // past int's range used to wrap (world 4294967298 became 2) and ports
  // outside [1, 65535] were bound modulo 65536.
  const struct {
    const char* name;
    const char* value;
  } bad[] = {
      {"SB_COMM_WORLD", "4294967298"},
      {"SB_COMM_WORLD", "0"},
      {"SB_COMM_RANK", "4294967296"},
      {"SB_COMM_RANK", "-1"},
      {"SB_COMM_PORTS", "70000,-1"},
      {"SB_COMM_PORTS", "5000,-1"},
      {"SB_COMM_PORTS", "0"},
      {"SB_COMM_PORTS", "99999999999999999999"},
      {"SB_COMM_PORTS", "12x"},
      {"SB_COMM_BASE_PORT", "70000"},
      {"SB_COMM_BASE_PORT", "-5"},
      {"SB_COMM_CONNECT_TIMEOUT_MS", "2147483648"},
      {"SB_COMM_OP_TIMEOUT_MS", "-1"},
  };
  for (const auto& entry : bad) {
    const ScopedEnv set(entry.name, entry.value);
    try {
      (void)sc::options_from_env();
      ADD_FAILURE() << entry.name << "=" << entry.value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(entry.name), std::string::npos)
          << error.what();
    }
  }

  const ScopedEnv world("SB_COMM_WORLD", "3");
  const ScopedEnv rank("SB_COMM_RANK", "2");
  const ScopedEnv ports("SB_COMM_PORTS", "1,65535,4000");
  const sc::TransportOptions options = sc::options_from_env();
  EXPECT_EQ(options.world, 3);
  EXPECT_EQ(options.rank, 2);
  EXPECT_EQ(options.ports, (std::vector<int>{1, 65535, 4000}));
}

TEST(Comm, TcpPortsPastTheRangeAreRejected) {
  // base_port + rank must stay a port too; checked before anything binds.
  sc::TransportOptions options;
  options.backend = sc::Backend::kTcp;
  options.world = 2;
  options.base_port = 65535;
  options.connect_timeout_ms = 200;
  EXPECT_THROW((void)sc::connect(options), std::invalid_argument);
  options.base_port = 0;
  options.ports = {5000, 70000};
  EXPECT_THROW((void)sc::connect(options), std::invalid_argument);
}

// --- Hostile TCP peers and mismatched shm worlds ---------------------------

namespace {

/// Bind port 0 on loopback and return the kernel-assigned port.
int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = static_cast<int>(ntohs(addr.sin_port));
  ::close(fd);
  return port;
}

/// A raw loopback client standing in for a rank: connects to `port`
/// (retrying until the listener is up), writes `bytes`, then holds the
/// socket open until destroyed or until `hold` has passed.
class RawPeer {
 public:
  RawPeer(int port, std::vector<unsigned char> bytes,
          std::chrono::milliseconds hold)
      : thread_([this, port, bytes = std::move(bytes), hold] {
          run(port, bytes, std::chrono::steady_clock::now() + hold);
        }) {}
  ~RawPeer() {
    release_ = true;
    thread_.join();
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

 private:
  void run(int port, const std::vector<unsigned char>& bytes,
           std::chrono::steady_clock::time_point until) {
    const auto live = [&] {
      return !release_ && std::chrono::steady_clock::now() < until;
    };
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int fd = -1;
    while (fd < 0 && live()) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        fd = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (fd < 0) return;
    if (!bytes.empty()) {
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    while (live()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::close(fd);
  }

  std::atomic<bool> release_{false};
  std::thread thread_;
};

sc::TransportOptions tcp_rank0_of_two(int connect_timeout_ms) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kTcp;
  options.world = 2;
  options.rank = 0;
  options.ports = {pick_free_port(), pick_free_port()};
  options.connect_timeout_ms = connect_timeout_ms;
  options.op_timeout_ms = 10000;
  return options;
}

}  // namespace

TEST(Comm, TcpSilentConnectionCannotHoldEstablish) {
  // A connection that never sends its hello must not hold rank 0 past
  // connect_timeout, although it stays open for longer.
  const sc::TransportOptions options = tcp_rank0_of_two(500);
  const RawPeer silent(options.ports[0], {}, std::chrono::seconds(4));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)sc::connect(options), sc::CommError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1500));
}

TEST(Comm, TcpOversizeFrameHeaderPoisonsInsteadOfAllocating) {
  // The peer completes a valid hello as rank 1 ("SbHC" magic, then its
  // rank), then sends a data header claiming 2^40 payload bytes.
  const sc::TransportOptions options = tcp_rank0_of_two(10000);
  const std::uint32_t hello[2] = {0x53624843u, 1};
  const scd::FrameHeader header{0, scd::kDataFrame, std::uint64_t{1} << 40};
  std::vector<unsigned char> bytes(sizeof(hello) + sizeof(header));
  std::memcpy(bytes.data(), hello, sizeof(hello));
  std::memcpy(bytes.data() + sizeof(hello), &header, sizeof(header));
  const RawPeer peer(options.ports[0], bytes, std::chrono::seconds(10));

  sc::Endpoint endpoint(options);
  float value = 0.0f;
  try {
    endpoint.transport().recv(1, 0, &value, sizeof(value));
    ADD_FAILURE() << "an oversize frame header was accepted";
  } catch (const sc::CommError& error) {
    EXPECT_EQ(error.failed_rank(), 1);
    EXPECT_NE(std::string(error.what()).find("1099511627776"),
              std::string::npos)
        << error.what();
  }
  EXPECT_TRUE(endpoint.transport().poisoned());
}

TEST(Comm, ShmAttachRejectsAMismatchedWorld) {
  // Rank 0 creates the segment for a world of 3. A rank launched with a
  // world of 2 must fail at attach, naming both sizes, rather than map
  // the segment under its own channel layout. It poisons the segment
  // first, so rank 0 fails with that reason long before its own connect
  // timeout instead of waiting it out.
  sc::TransportOptions creator;
  creator.backend = sc::Backend::kShm;
  creator.world = 3;
  creator.session = "sb_test_shm_world_" + std::to_string(::getpid());
  creator.connect_timeout_ms = 10000;
  std::string creator_error;
  std::chrono::steady_clock::duration creator_wait{};
  std::thread rank0([&] {
    const auto start = std::chrono::steady_clock::now();
    try {
      sc::Endpoint endpoint(creator);
      creator_error = "rank 0 established a world with a mismatched rank";
    } catch (const sc::CommError& error) {
      creator_error = error.what();
    }
    creator_wait = std::chrono::steady_clock::now() - start;
  });
  sc::TransportOptions joiner = creator;
  joiner.world = 2;
  joiner.rank = 1;
  const auto start = std::chrono::steady_clock::now();
  try {
    sc::Endpoint endpoint(joiner);
    ADD_FAILURE() << "a world-2 rank attached to a world-3 segment";
  } catch (const sc::CommError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("world of 3"), std::string::npos) << what;
    EXPECT_NE(what.find("world of 2"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(joiner.connect_timeout_ms));
  rank0.join();
  EXPECT_NE(creator_error.find("world of 3"), std::string::npos)
      << creator_error;
  EXPECT_NE(creator_error.find("world of 2"), std::string::npos)
      << creator_error;
  EXPECT_LT(creator_wait,
            std::chrono::milliseconds(creator.connect_timeout_ms / 2));
}

// --- Real multi-process transports (fork + shm / TCP) -----------------------

#ifndef STREAMBRAIN_TSAN_BUILD

TEST(Comm, ShmTwoProcessAllreduce) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kShm;
  options.world = 2;
  options.session = "sb_test_shm_" + std::to_string(::getpid());
  options.op_timeout_ms = 20000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = rank 1: contribute and verify; any failure exits nonzero.
    options.rank = 1;
    int code = 1;
    try {
      sc::Endpoint endpoint(options);
      std::vector<float> data = {1.0f, 10.0f};
      endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
      code = (data[0] == 2.0f && data[1] == 30.0f) ? 0 : 2;
    } catch (...) {
    }
    std::_Exit(code);
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data = {1.0f, 20.0f};
  endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
  EXPECT_FLOAT_EQ(data[0], 2.0f);
  EXPECT_FLOAT_EQ(data[1], 30.0f);
  EXPECT_GT(endpoint.comm().wire_bytes_sent(),
            endpoint.comm().bytes_sent());  // frame headers on a real wire
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(Comm, ShmPeerProcessDeathPoisonsSurvivor) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kShm;
  options.world = 2;
  options.session = "sb_test_shm_death_" + std::to_string(::getpid());
  options.op_timeout_ms = 1500;  // the survivor's escape hatch

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child = rank 1: join the world, then die without a word.
    options.rank = 1;
    try {
      sc::Endpoint endpoint(options);
    } catch (...) {
      std::_Exit(1);
    }
    std::_Exit(0);
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data(16, 1.0f);
  try {
    endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    FAIL() << "allreduce with a dead shm peer did not fail";
  } catch (const sc::CommError& error) {
    EXPECT_EQ(error.failed_rank(), 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

TEST(Comm, TcpTwoProcessAllreduce) {
  sc::TransportOptions options;
  options.backend = sc::Backend::kTcp;
  options.world = 2;
  options.ports = {pick_free_port(), pick_free_port()};
  options.connect_timeout_ms = 20000;
  options.op_timeout_ms = 20000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    options.rank = 1;
    int code = 1;
    try {
      sc::Endpoint endpoint(options);
      std::vector<float> data = {3.0f};
      endpoint.comm().allreduce(data.data(), 1, sc::ReduceOp::kSum);
      code = data[0] == 7.0f ? 0 : 2;
    } catch (...) {
    }
    std::_Exit(code);
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data = {4.0f};
  endpoint.comm().allreduce(data.data(), 1, sc::ReduceOp::kSum);
  EXPECT_FLOAT_EQ(data[0], 7.0f);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(Comm, TcpPeerProcessDeathPoisonsSurvivor) {
  // The killed peer's sockets close, the survivor reads EOF the moment
  // it needs that rank, and the op aborts with CommError — no waiting
  // for the op timeout.
  sc::TransportOptions options;
  options.backend = sc::Backend::kTcp;
  options.world = 2;
  options.ports = {pick_free_port(), pick_free_port()};
  options.connect_timeout_ms = 20000;
  options.op_timeout_ms = 20000;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    options.rank = 1;
    try {
      sc::Endpoint endpoint(options);
    } catch (...) {
      std::_Exit(1);
    }
    std::_Exit(0);  // sockets close; rank 0 sees EOF mid-collective
  }
  options.rank = 0;
  sc::Endpoint endpoint(options);
  std::vector<float> data(16, 1.0f);
  try {
    endpoint.comm().allreduce(data.data(), data.size(), sc::ReduceOp::kSum);
    FAIL() << "allreduce with a dead tcp peer did not fail";
  } catch (const sc::CommError& error) {
    EXPECT_EQ(error.failed_rank(), 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

#endif  // !STREAMBRAIN_TSAN_BUILD
