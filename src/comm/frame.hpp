#pragma once
// The wire format and the (source, tag) matching rule every comm backend
// shares; include only from src/comm/*.cpp and the comm tests. A frame is
// a 16-byte FrameHeader and `size` payload bytes, on shm rings and TCP
// sockets alike. FrameReader is the one decoder of inbound shm and TCP
// bytes; Inbox queues payloads per (source, tag), FIFO within a pair.
// FramedTransport is what shm and TCP share above moving bytes.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "comm/transport.hpp"

namespace streambrain::comm::detail {

using Payload = std::vector<unsigned char>;

inline constexpr std::uint32_t kDataFrame = 0;
inline constexpr std::uint32_t kPoisonFrame = 1;  // TCP poison broadcast

/// The largest payload one frame may carry. It is about 40x the largest
/// frame the paper topology sends (one flat-allreduce frame of 8 virtual
/// shards x 843,280 floats, about 27 MB). A header claiming more is
/// corrupt; send() refuses a larger payload before writing a byte.
inline constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 30;

struct FrameHeader {
  std::int32_t tag;    // kPoisonFrame: the failed rank
  std::uint32_t kind;  // kDataFrame | kPoisonFrame
  std::uint64_t size;  // payload bytes following the header
};
static_assert(sizeof(FrameHeader) == 16);

/// Incremental decoder for one inbound byte stream.
class FrameReader {
 public:
  /// Consume `bytes` inbound bytes, calling on_frame(header, payload) for
  /// each frame they complete. Payload bytes are copied straight from
  /// `data` into the frame's buffer, which is reserved but not zeroed.
  /// Throws CommError, before allocating anything, for a header above
  /// kMaxFrameBytes or of an unknown kind; the stream cannot be resumed.
  template <typename OnFrame>
  void feed(const unsigned char* data, std::size_t bytes, OnFrame&& on_frame) {
    while (bytes > 0) {
      std::size_t n = 0;
      if (header_got_ < sizeof(FrameHeader)) {
        n = std::min(bytes, sizeof(FrameHeader) - header_got_);
        std::memcpy(reinterpret_cast<unsigned char*>(&header_) + header_got_,
                    data, n);
        header_got_ += n;
        if (header_got_ == sizeof(FrameHeader)) start_payload();
      } else {
        n = std::min<std::size_t>(bytes, header_.size - payload_.size());
        payload_.insert(payload_.end(), data, data + n);
      }
      data += n;
      bytes -= n;
      if (header_got_ == sizeof(FrameHeader) &&
          payload_.size() == header_.size) {
        header_got_ = 0;
        on_frame(header_, std::exchange(payload_, Payload{}));
      }
    }
  }

 private:
  void start_payload();

  FrameHeader header_{};
  std::size_t header_got_ = 0;
  Payload payload_;
};

/// Delivered payloads of one rank, queued per (source, tag). Not
/// thread-safe; the in-process backend guards its inboxes with a mutex.
class Inbox {
 public:
  explicit Inbox(int rank) : rank_(rank) {}

  void post(int source, int tag, Payload payload) {
    queues_[{source, tag}].push_back(std::move(payload));
  }

  /// The oldest payload posted under (source, tag), or nullopt when none
  /// is queued. Throws CommError when its size differs from
  /// `expected_bytes` (a send/recv count mismatch); it is consumed either
  /// way.
  std::optional<Payload> take(int source, int tag, std::size_t expected_bytes);

 private:
  int rank_;
  std::map<std::pair<int, int>, std::deque<Payload>> queues_;
};

/// The shared half of the byte-stream backends (shm, TCP).
class FramedTransport : public Transport {
 protected:
  FramedTransport(int rank, int size, std::shared_ptr<PoisonState> poison,
                  int op_timeout_ms);

  /// Write all of `bytes` toward `dest`, draining inbound traffic while
  /// the wire is full.
  virtual void write_wire(int dest, const void* data, std::size_t bytes) = 0;
  /// Move inbound bytes into receive() for at most one poll slice, while
  /// a recv(source, tag) waits. Throws CommError when `source` is gone.
  virtual void await_inbound(int source, int tag) = 0;

  /// Decode bytes that arrived from rank `source`. A malformed frame
  /// poisons the world.
  void receive(int source, const unsigned char* data, std::size_t bytes);

  void do_send(int dest, int tag, const void* data,
               std::size_t bytes) final;
  std::optional<Payload> recv_slice(int source, int tag,
                                    std::size_t expected_bytes) final;

 private:
  Inbox inbox_;
  std::vector<FrameReader> readers_;
};

}  // namespace streambrain::comm::detail
