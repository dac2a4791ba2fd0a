// Conformance / property suite for the comm substrate, parameterized
// over every transport backend (in-process mailboxes, POSIX shared
// memory, TCP loopback): the allreduce over randomized counts (including
// 0 and 1), float and uint64, world sizes 1–8; rank-order determinism of
// the flat allreduce (bitwise equal to a serial left-to-right
// reduction), flat-vs-ring agreement (exact for min/max, tight tolerance
// for float sums), nonblocking iallreduce equivalence, the transport's
// point-to-point frames (tags, sizes, self-sends), the byte-accounting
// invariants, and the fault contract: a rank failure mid-collective must
// surface as comm::CommError on every surviving rank instead of hanging.
//
// The collectives are written once against the Transport interface, so
// passing here means the three backends are observationally identical up
// to wire framing overhead — which the WireVsLogicalBytes case pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::comm;
namespace su = streambrain::util;

namespace {

constexpr std::size_t kCounts[] = {0, 1, 2, 7, 64, 257};

class CommProperty : public ::testing::TestWithParam<sc::Backend> {
 protected:
  sc::Backend backend() const { return GetParam(); }

  void run(int world, const std::function<void(sc::Communicator&)>& body) {
    sc::run_transport(backend(), world, body);
  }

  sc::RunStats run_reported(
      int world, const std::function<void(sc::Communicator&)>& body) {
    return sc::run_transport(backend(), world, body);
  }

  template <typename T>
  std::vector<std::vector<T>> run_allreduce(
      const std::vector<std::vector<T>>& inputs, sc::ReduceOp op,
      sc::AllreduceAlgorithm algorithm) {
    const int world = static_cast<int>(inputs.size());
    std::vector<std::vector<T>> results(inputs.size());
    run(world, [&](sc::Communicator& comm) {
      std::vector<T> mine = inputs[static_cast<std::size_t>(comm.rank())];
      comm.allreduce(mine.data(), mine.size(), op, algorithm);
      results[static_cast<std::size_t>(comm.rank())] = std::move(mine);
    });
    return results;
  }
};

template <typename T>
std::vector<std::vector<T>> random_contributions(int world, std::size_t count,
                                                 std::uint64_t seed) {
  std::vector<std::vector<T>> data(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    su::Rng rng(seed + static_cast<std::uint64_t>(r) * 7919);
    auto& mine = data[static_cast<std::size_t>(r)];
    mine.resize(count);
    for (auto& v : mine) v = static_cast<T>(rng.uniform(-2.0, 2.0));
  }
  return data;
}

/// Serial left-to-right (rank 0 first) reduction — the flat algorithm's
/// documented association.
template <typename T>
std::vector<T> serial_reference(const std::vector<std::vector<T>>& inputs,
                                sc::ReduceOp op) {
  std::vector<T> acc = inputs[0];
  for (std::size_t r = 1; r < inputs.size(); ++r) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
      switch (op) {
        case sc::ReduceOp::kSum:
          acc[i] += inputs[r][i];
          break;
        case sc::ReduceOp::kMin:
          acc[i] = std::min(acc[i], inputs[r][i]);
          break;
        case sc::ReduceOp::kMax:
          acc[i] = std::max(acc[i], inputs[r][i]);
          break;
      }
    }
  }
  return acc;
}

}  // namespace

// --- Allreduce: determinism & algorithm agreement --------------------------

TEST_P(CommProperty, FlatAllreduceMatchesSerialReferenceBitwise) {
  for (int world = 1; world <= 8; ++world) {
    for (const std::size_t count : kCounts) {
      const auto inputs =
          random_contributions<float>(world, count, 100 + count);
      const auto reference = serial_reference(inputs, sc::ReduceOp::kSum);
      const auto results = run_allreduce(inputs, sc::ReduceOp::kSum,
                                         sc::AllreduceAlgorithm::kFlat);
      for (const auto& per_rank : results) {
        ASSERT_EQ(per_rank.size(), reference.size());
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(per_rank[i], reference[i])  // bitwise
              << "world=" << world << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST_P(CommProperty, RingAgreesWithFlatWithinExactTolerance) {
  for (int world = 1; world <= 8; ++world) {
    for (const std::size_t count : kCounts) {
      const auto inputs =
          random_contributions<float>(world, count, 900 + count);
      const auto flat = run_allreduce(inputs, sc::ReduceOp::kSum,
                                      sc::AllreduceAlgorithm::kFlat);
      const auto ring = run_allreduce(inputs, sc::ReduceOp::kSum,
                                      sc::AllreduceAlgorithm::kRing);
      for (int r = 0; r < world; ++r) {
        for (std::size_t i = 0; i < count; ++i) {
          // Same values, different association: only rounding may differ.
          EXPECT_NEAR(ring[static_cast<std::size_t>(r)][i],
                      flat[static_cast<std::size_t>(r)][i],
                      1e-5 * static_cast<double>(world))
              << "world=" << world << " count=" << count;
        }
      }
    }
  }
}

TEST_P(CommProperty, MinMaxAreExactUnderBothAlgorithms) {
  for (int world : {1, 2, 4, 7}) {
    for (const sc::ReduceOp op : {sc::ReduceOp::kMin, sc::ReduceOp::kMax}) {
      const auto inputs = random_contributions<float>(world, 65, 31);
      const auto reference = serial_reference(inputs, op);
      for (const auto algorithm : {sc::AllreduceAlgorithm::kFlat,
                                   sc::AllreduceAlgorithm::kRing}) {
        const auto results = run_allreduce(inputs, op, algorithm);
        for (const auto& per_rank : results) {
          // min/max are associative and commutative: bitwise equal.
          for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(per_rank[i], reference[i]);
          }
        }
      }
    }
  }
}

TEST_P(CommProperty, Uint64AllreduceIsExactUnderBothAlgorithms) {
  for (int world : {1, 2, 5, 8}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{19}}) {
      std::vector<std::vector<std::uint64_t>> results(
          static_cast<std::size_t>(world));
      for (const auto algorithm : {sc::AllreduceAlgorithm::kFlat,
                                   sc::AllreduceAlgorithm::kRing}) {
        run(world, [&](sc::Communicator& comm) {
          std::vector<std::uint64_t> mine(count);
          for (std::size_t i = 0; i < count; ++i) {
            mine[i] = (static_cast<std::uint64_t>(comm.rank()) << 32) + i + 1;
          }
          comm.allreduce(mine.data(), count, sc::ReduceOp::kSum, algorithm);
          results[static_cast<std::size_t>(comm.rank())] = std::move(mine);
        });
        for (const auto& per_rank : results) {
          for (std::size_t i = 0; i < count; ++i) {
            std::uint64_t expected = 0;
            for (int r = 0; r < world; ++r) {
              expected += (static_cast<std::uint64_t>(r) << 32) + i + 1;
            }
            EXPECT_EQ(per_rank[i], expected);
          }
        }
      }
    }
  }
}

TEST_P(CommProperty, AllreduceIsRepeatableAcrossRuns) {
  for (const auto algorithm :
       {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
    const auto inputs = random_contributions<float>(6, 129, 55);
    const auto first = run_allreduce(inputs, sc::ReduceOp::kSum, algorithm);
    const auto second = run_allreduce(inputs, sc::ReduceOp::kSum, algorithm);
    EXPECT_EQ(first, second);  // bitwise, run-to-run
  }
}

TEST_P(CommProperty, AllRanksAgreeUnderBothAlgorithms) {
  for (const auto algorithm :
       {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
    const auto inputs = random_contributions<float>(7, 97, 21);
    const auto results = run_allreduce(inputs, sc::ReduceOp::kSum, algorithm);
    for (std::size_t r = 1; r < results.size(); ++r) {
      EXPECT_EQ(results[0], results[r]);
    }
  }
}

TEST_P(CommProperty, MeanDividesBothAlgorithms) {
  for (int world : {1, 4}) {
    for (const auto algorithm :
         {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
      run(world, [&](sc::Communicator& comm) {
        std::vector<float> mine = {static_cast<float>(comm.rank() * 2)};
        comm.allreduce_mean(mine.data(), 1, algorithm);
        EXPECT_FLOAT_EQ(mine[0], static_cast<float>(world - 1));
      });
    }
  }
}

// --- Cross-backend agreement ------------------------------------------------

TEST_P(CommProperty, ResultBitwiseIdenticalToInprocBackend) {
  // The collectives never touch the wire directly, so every backend must
  // produce the in-process backend's bits exactly — not approximately.
  for (const auto algorithm :
       {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
    const auto inputs = random_contributions<float>(5, 193, 77);
    std::vector<std::vector<float>> reference(5);
    sc::run_transport(sc::Backend::kInProcess, 5, [&](sc::Communicator& comm) {
      std::vector<float> mine = inputs[static_cast<std::size_t>(comm.rank())];
      comm.allreduce(mine.data(), mine.size(), sc::ReduceOp::kSum, algorithm);
      reference[static_cast<std::size_t>(comm.rank())] = std::move(mine);
    });
    const auto mine = run_allreduce(inputs, sc::ReduceOp::kSum, algorithm);
    EXPECT_EQ(mine, reference);
  }
}

// --- Nonblocking -----------------------------------------------------------

TEST_P(CommProperty, IallreduceMatchesBlockingAndOverlapsCompute) {
  for (const auto algorithm :
       {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
    const auto inputs = random_contributions<float>(4, 77, 13);
    const auto blocking =
        run_allreduce(inputs, sc::ReduceOp::kSum, algorithm);
    std::vector<std::vector<float>> results(4);
    run(4, [&](sc::Communicator& comm) {
      std::vector<float> mine = inputs[static_cast<std::size_t>(comm.rank())];
      sc::Request request =
          comm.iallreduce(mine.data(), mine.size(), sc::ReduceOp::kSum,
                          algorithm);
      EXPECT_TRUE(request.pending());
      // Compute on unrelated data while the collective is in flight.
      double unrelated = 0.0;
      for (int i = 0; i < 1000; ++i) unrelated += std::sqrt(i + comm.rank());
      EXPECT_GT(unrelated, 0.0);
      request.wait();
      EXPECT_FALSE(request.pending());
      request.wait();  // idempotent
      results[static_cast<std::size_t>(comm.rank())] = std::move(mine);
    });
    EXPECT_EQ(results, blocking);
  }
}

TEST_P(CommProperty, DefaultRequestIsEmpty) {
  sc::Request request;
  EXPECT_FALSE(request.pending());
  request.wait();  // no-op
}

// --- Transport point-to-point frames ----------------------------------------

TEST_P(CommProperty, SendRecvRandomizedSizesAndTags) {
  run(3, [](sc::Communicator& comm) {
    su::Rng rng(808);
    // Deterministic shared plan: 12 messages rank 0 -> {1,2}.
    for (int m = 0; m < 12; ++m) {
      const int dest = 1 + m % 2;
      const std::size_t count = static_cast<std::size_t>(rng.uniform_int(0, 40));
      std::vector<float> payload(count);
      for (std::size_t i = 0; i < count; ++i) {
        payload[i] = static_cast<float>(m * 100 + i);
      }
      if (comm.rank() == 0) {
        comm.transport().send(dest, /*tag=*/m, payload.data(),
                              count * sizeof(float));
      } else if (comm.rank() == dest) {
        std::vector<float> received(count, -1.0f);
        comm.transport().recv(0, /*tag=*/m, received.data(),
                              count * sizeof(float));
        EXPECT_EQ(received, payload);
      }
    }
  });
}

TEST_P(CommProperty, SelfSendRoundTripsAndCostsNoWire) {
  // MPI-style self messaging: send to your own rank, then receive it.
  const auto stats = run_reported(2, [](sc::Communicator& comm) {
    std::vector<float> payload = {1.5f, -2.5f,
                                  static_cast<float>(comm.rank())};
    comm.transport().send(comm.rank(), /*tag=*/4, payload.data(),
                          payload.size() * sizeof(float));
    std::vector<float> received(payload.size(), 0.0f);
    comm.transport().recv(comm.rank(), /*tag=*/4, received.data(),
                          received.size() * sizeof(float));
    EXPECT_EQ(received, payload);
  });
  // Self-sends never cross the wire; raw frames carry no logical charge
  // (only the collectives charge the cost model).
  EXPECT_EQ(stats.total_wire_bytes, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
}

TEST_P(CommProperty, RecvCountMismatchFailsWithDescriptiveError) {
  // Sender posts 5 floats, receiver asks for 3: a silent truncation bug
  // in disguise. The transport must refuse with an error naming both
  // sizes, and the world must come down poisoned rather than hang.
  try {
    run(2, [](sc::Communicator& comm) {
      std::vector<float> buffer(5, 1.0f);
      if (comm.rank() == 0) {
        comm.transport().send(/*dest=*/1, /*tag=*/0, buffer.data(),
                              5 * sizeof(float));
      } else {
        comm.transport().recv(/*source=*/0, /*tag=*/0, buffer.data(),
                              3 * sizeof(float));
      }
    });
    FAIL() << "count mismatch did not throw";
  } catch (const sc::CommError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("size mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("12"), std::string::npos) << what;  // posted bytes
    EXPECT_NE(what.find("20"), std::string::npos) << what;  // carried bytes
  }
}

// --- Fault injection: the bugfix this suite pins ---------------------------

TEST_P(CommProperty, RankDeathMidCollectivePoisonsSurvivors) {
  // Rank 2 dies before joining the allreduce. Without world poisoning
  // the other ranks would block forever inside the collective — the
  // original hang. run() must return promptly with rank 2's exception,
  // and every survivor must have observed a CommError naming rank 2.
  for (const auto algorithm :
       {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
    std::atomic<int> survivors_poisoned{0};
    try {
      run(4, [&](sc::Communicator& comm) {
        if (comm.rank() == 2) {
          throw std::runtime_error("injected fault on rank 2");
        }
        std::vector<float> data(64, 1.0f);
        try {
          comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum,
                         algorithm);
        } catch (const sc::CommError& error) {
          EXPECT_EQ(error.failed_rank(), 2);
          survivors_poisoned.fetch_add(1);
          throw;
        }
      });
      FAIL() << "rank death did not surface";
    } catch (const std::runtime_error& error) {
      // The *original* exception wins over the survivors' CommErrors.
      EXPECT_NE(std::string(error.what()).find("injected fault"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(survivors_poisoned.load(), 3);
  }
}

TEST_P(CommProperty, RankDeathDuringSendRecvPoisonsPeer) {
  // Rank 1 dies while rank 0 is blocked in recv() on it.
  std::atomic<bool> receiver_got_comm_error{false};
  try {
    run(2, [&](sc::Communicator& comm) {
      if (comm.rank() == 1) {
        throw std::runtime_error("receiver will never hear from me");
      }
      std::vector<float> data(8, 0.0f);
      try {
        comm.transport().recv(/*source=*/1, /*tag=*/0, data.data(),
                              data.size() * sizeof(float));
      } catch (const sc::CommError& error) {
        EXPECT_EQ(error.failed_rank(), 1);
        receiver_got_comm_error.store(true);
        throw;
      }
    });
    FAIL() << "rank death did not surface";
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(receiver_got_comm_error.load());
}

TEST_P(CommProperty, PoisonedWorldRejectsFurtherOperations) {
  // After the world is poisoned every subsequent operation must fail
  // immediately — no timeout, no hang.
  try {
    run(2, [&](sc::Communicator& comm) {
      if (comm.rank() == 1) throw std::runtime_error("down");
      float v = 0.0f;
      for (int attempt = 0; attempt < 3; ++attempt) {
        try {
          comm.allreduce(&v, 1, sc::ReduceOp::kSum);
          FAIL() << "operation succeeded in a dead world";
        } catch (const sc::CommError& error) {
          EXPECT_EQ(error.failed_rank(), 1);
        }
      }
    });
    FAIL() << "rank death did not surface";
  } catch (const std::runtime_error&) {
  }
}

// --- Byte accounting invariants --------------------------------------------

TEST_P(CommProperty, FlatAllreduceByteFormula) {
  for (int world : {1, 2, 4, 8}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{100}}) {
      const auto stats = run_reported(world, [&](sc::Communicator& comm) {
        std::vector<float> data(count, 1.0f);
        comm.allreduce(data.data(), count, sc::ReduceOp::kSum,
                       sc::AllreduceAlgorithm::kFlat);
      });
      const std::uint64_t expected =
          static_cast<std::uint64_t>(count * sizeof(float)) *
          static_cast<std::uint64_t>(world - 1);
      std::uint64_t total = 0;
      for (int r = 0; r < world; ++r) {
        EXPECT_EQ(stats.bytes_per_rank[static_cast<std::size_t>(r)], expected);
        total += stats.bytes_per_rank[static_cast<std::size_t>(r)];
      }
      EXPECT_EQ(stats.total_bytes, total);  // total == sum of per-rank
    }
  }
}

TEST_P(CommProperty, RingAllreduceByteFormulaAndAdvantage) {
  const std::size_t count = 1024;
  for (int world : {2, 4, 8}) {
    const auto stats = run_reported(world, [&](sc::Communicator& comm) {
      std::vector<float> data(count, 1.0f);
      comm.allreduce(data.data(), count, sc::ReduceOp::kSum,
                     sc::AllreduceAlgorithm::kRing);
    });
    const std::uint64_t expected = static_cast<std::uint64_t>(
        2.0 * (world - 1) / static_cast<double>(world) *
        static_cast<double>(count * sizeof(float)));
    const std::uint64_t flat = static_cast<std::uint64_t>(
        count * sizeof(float)) * static_cast<std::uint64_t>(world - 1);
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(stats.bytes_per_rank[static_cast<std::size_t>(r)], expected);
    }
    EXPECT_EQ(stats.total_bytes,
              expected * static_cast<std::uint64_t>(world));
    if (world > 2) {
      EXPECT_LT(expected, flat);  // ring's bandwidth advantage
    }
  }
}

TEST_P(CommProperty, LogicalBytesIdenticalAcrossBackendsWireDiffers) {
  // The logical byte model is a property of the algorithm, not the wire:
  // every backend must report the in-process backend's numbers exactly.
  // Wire bytes add real framing on shm/tcp and are zero only when
  // nothing actually moves between ranks.
  const std::size_t count = 300;
  const auto body = [count](sc::Communicator& comm) {
    std::vector<float> data(count, static_cast<float>(comm.rank()));
    comm.allreduce(data.data(), count, sc::ReduceOp::kSum,
                   sc::AllreduceAlgorithm::kRing);
  };
  const auto reference =
      sc::run_transport(sc::Backend::kInProcess, 4, body);
  const auto stats = run_reported(4, body);
  EXPECT_EQ(stats.bytes_per_rank, reference.bytes_per_rank);
  EXPECT_EQ(stats.total_bytes, reference.total_bytes);
  // Framing can only add bytes on top of the payload.
  EXPECT_GE(stats.total_wire_bytes, stats.total_bytes);
}

TEST_P(CommProperty, ZeroCountCollectivesSendNothing) {
  const auto stats = run_reported(5, [](sc::Communicator& comm) {
    comm.allreduce(static_cast<float*>(nullptr), 0, sc::ReduceOp::kSum,
                   sc::AllreduceAlgorithm::kFlat);
    float dummy = 0.0f;
    comm.allreduce(&dummy, 0, sc::ReduceOp::kSum,
                   sc::AllreduceAlgorithm::kRing);
    comm.allreduce_mean(&dummy, 0);
    comm.iallreduce(&dummy, 0, sc::ReduceOp::kSum).wait();
  });
  EXPECT_EQ(stats.total_bytes, 0u);
}

TEST_P(CommProperty, SingleRankSendsNothingForAnyAlgorithm) {
  for (const auto algorithm :
       {sc::AllreduceAlgorithm::kFlat, sc::AllreduceAlgorithm::kRing}) {
    const auto stats = run_reported(1, [&](sc::Communicator& comm) {
      std::vector<float> data(256, 2.0f);
      comm.allreduce(data.data(), data.size(), sc::ReduceOp::kSum, algorithm);
      for (const float v : data) EXPECT_FLOAT_EQ(v, 2.0f);
    });
    EXPECT_EQ(stats.total_bytes, 0u);
    EXPECT_EQ(stats.total_wire_bytes, 0u);
  }
}

TEST_P(CommProperty, AlgorithmAndBackendNames) {
  EXPECT_STREQ(sc::algorithm_name(sc::AllreduceAlgorithm::kFlat), "flat");
  EXPECT_STREQ(sc::algorithm_name(sc::AllreduceAlgorithm::kRing), "ring");
  EXPECT_STREQ(sc::backend_name(sc::Backend::kInProcess), "inproc");
  EXPECT_STREQ(sc::backend_name(sc::Backend::kShm), "shm");
  EXPECT_STREQ(sc::backend_name(sc::Backend::kTcp), "tcp");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CommProperty,
    ::testing::Values(sc::Backend::kInProcess, sc::Backend::kShm,
                      sc::Backend::kTcp),
    [](const ::testing::TestParamInfo<sc::Backend>& info) {
      return std::string(sc::backend_name(info.param));
    });
