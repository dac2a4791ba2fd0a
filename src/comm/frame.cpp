// FrameReader's header check, Inbox matching, and the framing half of
// the shm and TCP backends (see frame.hpp).

#include "comm/frame.hpp"

#include <sstream>
#include <string>

namespace streambrain::comm::detail {

void FrameReader::start_payload() {
  if (header_.size > kMaxFrameBytes || (header_.kind != kDataFrame &&
                                        header_.kind != kPoisonFrame)) {
    std::ostringstream msg;
    msg << "malformed frame header (tag " << header_.tag << ", kind "
        << header_.kind << ", size " << header_.size
        << " bytes): the frame bound is " << kMaxFrameBytes
        << " bytes and the kinds are data and poison";
    throw CommError(-1, msg.str());
  }
  payload_.reserve(static_cast<std::size_t>(header_.size));
}

std::optional<Payload> Inbox::take(int source, int tag,
                                   std::size_t expected_bytes) {
  const auto it = queues_.find({source, tag});
  if (it == queues_.end()) return std::nullopt;
  Payload payload = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  if (payload.size() != expected_bytes) {
    std::ostringstream msg;
    msg << "recv(source=" << source << ", tag=" << tag << ") on rank "
        << rank_ << ": size mismatch: posted " << expected_bytes
        << " bytes but the matched message carries " << payload.size()
        << " bytes (send/recv count mismatch)";
    throw CommError(rank_, msg.str());
  }
  return payload;
}

FramedTransport::FramedTransport(int rank, int size,
                                 std::shared_ptr<PoisonState> poison,
                                 int op_timeout_ms)
    : Transport(rank, size, std::move(poison), op_timeout_ms),
      inbox_(rank),
      readers_(static_cast<std::size_t>(size)) {}

void FramedTransport::receive(int source, const unsigned char* data,
                              std::size_t bytes) {
  try {
    readers_[static_cast<std::size_t>(source)].feed(
        data, bytes, [&](const FrameHeader& header, Payload payload) {
          if (header.kind == kPoisonFrame) {
            // poison() re-broadcasts, so the claim survives even if the
            // origin died before reaching every peer; duplicates are
            // no-ops.
            poison(header.tag, std::string(payload.begin(), payload.end()));
          } else {
            inbox_.post(source, header.tag, std::move(payload));
          }
        });
  } catch (const CommError& error) {
    poison(source, "rank " + std::to_string(rank_) + " read from rank " +
                       std::to_string(source) + " a " + error.what());
    throw_poisoned();
  }
}

void FramedTransport::do_send(int dest, int tag, const void* data,
                              std::size_t bytes) {
  if (dest == rank_) {  // no wire crossed
    const auto* begin = static_cast<const unsigned char*>(data);
    inbox_.post(rank_, tag, Payload(begin, begin + bytes));
    return;
  }
  const FrameHeader header{tag, kDataFrame, static_cast<std::uint64_t>(bytes)};
  write_wire(dest, &header, sizeof(header));
  if (bytes > 0) write_wire(dest, data, bytes);
  add_wire_bytes(sizeof(header) + bytes);
}

std::optional<Payload> FramedTransport::recv_slice(int source, int tag,
                                                   std::size_t expected_bytes) {
  std::optional<Payload> payload = inbox_.take(source, tag, expected_bytes);
  if (!payload) {
    await_inbound(source, tag);
    payload = inbox_.take(source, tag, expected_bytes);
  }
  return payload;
}

}  // namespace streambrain::comm::detail
