#pragma once
// Internal seams between the transport factory (collectives.cpp) and the
// per-backend TUs. Not installed; include only from src/comm/*.cpp.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.hpp"

namespace streambrain::comm::detail {

// Negative tags carry the transports' own protocol traffic.
inline constexpr int kCollTag = -2;     // collective payload frames
inline constexpr int kBarrierTag = -3;  // TCP dissemination-barrier tokens

// TCP listen ports, explicit or base_port + rank, must lie in [1, 65535].
inline constexpr int kMaxPort = 65535;

/// Whole thread-mode worlds: `world` transports sharing one PoisonState
/// (and, for shm/tcp, one pre-created segment / pre-bound listener set).
std::vector<std::unique_ptr<Transport>> make_inproc_world(
    int world, const TransportOptions& base);
std::vector<std::unique_ptr<Transport>> make_shm_world(
    int world, const TransportOptions& base);
std::vector<std::unique_ptr<Transport>> make_tcp_world(
    int world, const TransportOptions& base);

/// Single multi-process endpoints (options.rank identifies this process).
std::unique_ptr<Transport> make_shm_transport(const TransportOptions& options);
std::unique_ptr<Transport> make_tcp_transport(const TransportOptions& options);

/// Unique-enough session id for auto-named thread-mode shm segments
/// (pid + monotonic counter; no wall clock so runs are reproducible).
std::string generate_session();

}  // namespace streambrain::comm::detail
