#include "runtime/socket_util.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "runtime/serde.hpp"

namespace hmxp::runtime {

bool read_exact(int fd, std::uint8_t* out, std::size_t size, bool start) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, out + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (start && done == 0) return false;
      throw PeerDisconnected("peer closed the connection mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET)
      throw PeerDisconnected("connection reset by peer");
    throw std::runtime_error(std::string("socket read failed: ") +
                             std::strerror(errno));
  }
  return true;
}

void write_exact(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      throw PeerDisconnected("peer closed the connection mid-write");
    throw std::runtime_error(std::string("socket write failed: ") +
                             std::strerror(errno));
  }
}

bool read_frame(int fd, std::vector<std::uint8_t>& body,
                std::uint64_t max_frame_bytes) {
  std::uint8_t prefix[serde::kLengthBytes];
  if (!read_exact(fd, prefix, sizeof prefix, /*start=*/true)) return false;
  const std::uint64_t length =
      serde::checked_frame_length(prefix, max_frame_bytes);
  body.resize(static_cast<std::size_t>(length));
  read_exact(fd, body.data(), body.size(), /*start=*/false);
  return true;
}


void send_error_notice(int fd, const std::string& what) noexcept {
  try {
    std::vector<std::uint8_t> frame;
    serde::encode_error(what, frame);
    std::size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + done, frame.size() - done,
                               MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return;  // dead peer, or a non-blocking fd that is full: give up
    }
  } catch (...) {
  }
}

bool FrameReader::fill(int fd) {
  if (cursor_ > 0) {
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = 0;
  }
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      rx_.insert(rx_.end(), buffer, buffer + n);
      if (static_cast<std::size_t>(n) < sizeof buffer) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return false;
    throw std::runtime_error(std::string("recv failed: ") +
                             std::strerror(errno));
  }
}

bool FrameReader::next(const std::uint8_t** body, std::size_t* size) {
  const std::size_t buffered = rx_.size() - cursor_;
  if (buffered < serde::kLengthBytes) return false;
  const std::uint64_t length =
      serde::checked_frame_length(rx_.data() + cursor_, max_frame_bytes_);
  if (buffered - serde::kLengthBytes < length) return false;
  *body = rx_.data() + cursor_ + serde::kLengthBytes;
  *size = static_cast<std::size_t>(length);
  cursor_ += serde::kLengthBytes + *size;
  return true;
}

void FrameReader::clear() {
  rx_.clear();
  cursor_ = 0;
}

}  // namespace hmxp::runtime
