// Socket I/O shared by every socket-carrying transport: the stream
// endpoints of the process and TCP transports, the shm transport's
// bootstrap/death channel, and the service front-end. One
// implementation of the EINTR-retry / MSG_NOSIGNAL discipline and of
// bounded frame parsing instead of a copy per transport -- and one
// place where "the peer vanished" is classified.
//
// Death classification matters to the fault-tolerant path: an EOF in
// the middle of a frame (or mid-handshake) means the PEER died, which a
// TCP worker answers by reconnecting and the master by recovering the
// orphaned chunk -- while a malformed frame means protocol corruption,
// which is never retried. PeerDisconnected keeps the two distinct where
// a generic runtime_error conflated them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hmxp::runtime {

/// The peer closed the connection part-way through a frame (or the
/// stream reset under us): the other PROCESS is gone or the link
/// dropped, not a protocol bug. Transports catch this type to route
/// into their reconnect / fault-recovery paths.
class PeerDisconnected : public std::runtime_error {
 public:
  explicit PeerDisconnected(const std::string& what)
      : std::runtime_error(what) {}
};

/// Reads exactly `size` bytes from a blocking fd; returns false on a
/// clean EOF at a frame boundary (`start` == true, nothing read yet),
/// throws PeerDisconnected on mid-frame EOF or a connection reset, and
/// std::runtime_error on other errors. Retries EINTR.
bool read_exact(int fd, std::uint8_t* out, std::size_t size, bool start);

/// Writes exactly `size` bytes to a blocking fd (MSG_NOSIGNAL, EINTR
/// retried). A broken pipe / reset throws PeerDisconnected; other
/// errors throw std::runtime_error.
void write_exact(int fd, const std::uint8_t* data, std::size_t size);

/// Reads one length-prefixed frame into `body` (prefix stripped) from a
/// blocking fd. Returns false on clean EOF at a frame boundary. The
/// declared length is validated against `max_frame_bytes` BEFORE any
/// allocation: a corrupt or hostile prefix must fail the connection,
/// never drive a multi-GiB resize.
bool read_frame(int fd, std::vector<std::uint8_t>& body,
                std::uint64_t max_frame_bytes);

/// Best-effort kError notice carrying `what`: never throws, and gives up
/// rather than wait on a non-blocking fd (a blocking fd waits for room
/// as usual). The peer may already be gone -- its EOF then carries the
/// news.
void send_error_notice(int fd, const std::string& what) noexcept;

/// The non-blocking counterpart of read_frame: absorbs whatever a
/// connected non-blocking fd has buffered and hands out each complete
/// frame as it arrives. Every declared length is validated against the
/// reader's bound BEFORE any byte of the frame is buffered for it, so a
/// corrupt or hostile prefix fails the connection instead of sizing an
/// allocation.
class FrameReader {
 public:
  explicit FrameReader(std::uint64_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends everything `fd` has ready. Returns false once the peer
  /// closed its end (EOF or reset); throws std::runtime_error on any
  /// other read error. Invalidates bodies handed out by next().
  bool fill(int fd);
  /// The next complete frame's body (prefix stripped), valid until the
  /// next fill() or clear(); false when only part of one is buffered.
  /// Throws std::runtime_error on a length beyond the bound.
  bool next(const std::uint8_t** body, std::size_t* size);
  /// Drops everything buffered (a dead or replaced connection).
  void clear();

 private:
  std::uint64_t max_frame_bytes_;
  std::vector<std::uint8_t> rx_;
  std::size_t cursor_ = 0;  // start of the first unconsumed frame
};

}  // namespace hmxp::runtime
