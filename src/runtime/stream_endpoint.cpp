#include "runtime/stream_endpoint.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <variant>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "matrix/kernel_dispatch.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using serde::FrameType;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// poll(2) on one fd; EINTR counts as "woke up, look again".
void poll_one(int fd, short events, int timeout_ms) {
  struct pollfd entry;
  entry.fd = fd;
  entry.events = events;
  entry.revents = 0;
  if (::poll(&entry, 1, timeout_ms) < 0 && errno != EINTR)
    throw std::runtime_error(std::string("poll failed: ") +
                             std::strerror(errno));
}

}  // namespace

// ---- bootstrap --------------------------------------------------------------

serde::HelloFrame await_hello(int fd, Clock::time_point deadline) {
  FrameReader reader(kHelloFrameBytes);
  for (;;) {
    const bool open = reader.fill(fd);
    const std::uint8_t* body = nullptr;
    std::size_t size = 0;
    if (reader.next(&body, &size)) {
      if (serde::frame_type(body, size) == FrameType::kError)
        throw std::runtime_error(serde::decode_error(body, size));
      return serde::decode_hello(body, size);
    }
    if (!open) throw PeerDisconnected("exited before its bootstrap hello");
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0)
      throw std::runtime_error("no bootstrap hello within " +
                               std::to_string(kBootstrapTimeout.count()) +
                               "s");
    poll_one(fd, POLLIN, static_cast<int>(left.count()) + 1);
  }
}

void exchange_hello(int fd, std::uint64_t token) {
  serde::HelloFrame hello =
      serde::local_hello(matrix::current_kernel_config());
  hello.token = token;
  serde::ByteBuffer frame;
  serde::encode_hello(hello, frame);
  write_exact(fd, frame.data(), frame.size());

  serde::ByteBuffer body;
  if (!read_frame(fd, body, kHelloFrameBytes))
    throw PeerDisconnected("master closed the connection during handshake");
  switch (serde::frame_type(body.data(), body.size())) {
    case FrameType::kHello:
      // decode_hello validates the master's magic and protocol version
      // symmetrically, so BOTH sides of a version skew report it.
      serde::decode_hello(body.data(), body.size());
      return;
    case FrameType::kError:
      throw std::runtime_error("master rejected handshake: " +
                               serde::decode_error(body.data(), body.size()));
    default:
      throw std::runtime_error("unexpected handshake reply from master");
  }
}

// ---- worker side ------------------------------------------------------------

std::optional<WorkerMessage> StreamWorkerPort::receive() {
  // The goodbye is one-shot (the lookahead in try_receive may consume
  // it), so remember it: the half-close behind it must not read as a
  // dead link.
  if (goodbye_) return std::nullopt;
  if (!read_frame(fd_, body_, max_frame_bytes_))
    throw PeerDisconnected("connection closed without a goodbye");
  const FrameType type = serde::frame_type(body_.data(), body_.size());
  if (type == FrameType::kGoodbye) {
    goodbye_ = true;
    return std::nullopt;
  }

  // Return the inbox credit BEFORE computing: the slot is free the
  // moment the message is dequeued, exactly like a channel pop.
  tx_.clear();
  serde::encode_control(FrameType::kCredit, tx_);
  write_exact(fd_, tx_.data(), tx_.size());

  switch (type) {
    case FrameType::kChunk:
      return WorkerMessage(
          serde::decode_chunk(body_.data(), body_.size(), *pool_));
    case FrameType::kOperand:
      return WorkerMessage(
          serde::decode_operand(body_.data(), body_.size(), *pool_));
    case FrameType::kCancel:
      return WorkerMessage(serde::decode_cancel(body_.data(), body_.size()));
    default:
      throw std::runtime_error("unexpected inbound frame type");
  }
}

std::optional<WorkerMessage> StreamWorkerPort::try_receive() {
  if (goodbye_) return std::nullopt;
  // Only commit to the blocking read once a frame has started to arrive;
  // a partially written frame completes in microseconds (the master
  // writes frames whole). A readable EOF goes to receive(), which
  // reports it.
  struct pollfd probe;
  probe.fd = fd_;
  probe.events = POLLIN;
  probe.revents = 0;
  if (::poll(&probe, 1, 0) != 1 || (probe.revents & POLLIN) == 0)
    return std::nullopt;
  return receive();
}

void StreamWorkerPort::send(ResultMessage result) {
  tx_.clear();
  serde::encode_result(result, tx_);
  // Payload storage recycles in the worker's own pool.
  result.c.release_to(*pool_);
  write_exact(fd_, tx_.data(), tx_.size());
}

// ---- master side ------------------------------------------------------------

StreamEndpoint::StreamEndpoint(std::string name, pid_t pid,
                               std::size_t credits,
                               const serde::HelloFrame& hello,
                               BufferPool* pool, TransportStats* stats,
                               std::uint64_t max_frame_bytes,
                               ReadmitSource readmit)
    : name_(std::move(name)),
      child_(pid),
      capacity_(credits),
      credits_(credits),
      hello_(hello),
      pool_(pool),
      stats_(stats),
      readmit_(std::move(readmit)),
      reader_(max_frame_bytes) {}

void StreamEndpoint::send(WorkerMessage message) {
  throw_if_dead();
  const auto serde_begin = Clock::now();
  tx_.clear();
  if (auto* chunk = std::get_if<ChunkMessage>(&message)) {
    serde::encode_chunk(*chunk, tx_);
    chunk->c.release_to(*pool_);
  } else if (auto* operands = std::get_if<OperandMessage>(&message)) {
    serde::encode_operand(*operands, tx_);
    operands->a.release_to(*pool_);
    operands->b.release_to(*pool_);
  } else {
    serde::encode_cancel(std::get<CancelMessage>(message), tx_);
  }
  stats_->serde_seconds += seconds_since(serde_begin);

  // The bounded-inbox rule: no credit, no send. Pump while waiting so
  // results and credits keep flowing (and death is noticed).
  while (credits_ == 0 && !failed_) wait_io();
  throw_if_dead();
  --credits_;
  write_frame();
  ++stats_->messages_sent;
  stats_->bytes_sent += tx_.size();
}

std::optional<ResultMessage> StreamEndpoint::try_recv() {
  if (results_.empty() && !failed_) pump();
  return pop_result();
}

std::optional<ResultMessage> StreamEndpoint::recv() {
  pump();
  while (results_.empty() && !failed_) wait_io();
  return pop_result();
}

void StreamEndpoint::kill() {
  if (killed_) return;
  killed_ = true;
  child_.kill();
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void StreamEndpoint::drain(BufferPool& pool) {
  while (!results_.empty()) {
    results_.front().c.release_to(pool);
    results_.pop_front();
  }
  reader_.clear();
}

bool StreamEndpoint::try_readmit() {
  if (!failed_ || killed_ || !readmit_) return false;
  serde::HelloFrame hello;
  const int fd = readmit_(&hello);
  return fd >= 0 && adopt(fd, hello);
}

bool StreamEndpoint::adopt(int fd, const serde::HelloFrame& hello) {
  if (!hello.same_kernel_config(hello_)) {
    // Cannot happen for a forked child (it re-asserts the master's
    // configuration), but a drop-in remote worker could diverge.
    const std::string reason =
        "worker booted with a divergent kernel configuration "
        "(tier/micro-kernel/tuned blocking)";
    send_error_notice(fd, reason);
    ::close(fd);
    mark_failed(reason);  // a refused re-admission simply stays failed
    return false;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  reader_.clear();
  eof_ = false;
  failed_ = false;
  error_ = nullptr;
  credits_ = capacity_;
  try {
    tx_.clear();
    serde::encode_hello(hello_, tx_);
    write_frame();
  } catch (...) {
    return false;  // write_frame already marked the endpoint failed
  }
  return true;
}

void StreamEndpoint::begin_shutdown() noexcept {
  discarding_ = true;
  if (fd_ < 0 || killed_) return;
  if (!failed_) {
    try {
      tx_.clear();
      serde::encode_control(FrameType::kGoodbye, tx_);
      write_frame();
    } catch (...) {
      // A dying connection on the way out carries the news as EOF.
    }
  }
  ::shutdown(fd_, SHUT_WR);
}

void StreamEndpoint::finish_shutdown() noexcept {
  discarding_ = true;
  if (fd_ >= 0) {
    try {
      while (!eof_ && !failed_) wait_io();
    } catch (...) {
      // Corrupt trailing frames on a teardown path are ignorable.
    }
  }
  teardown();
}

void StreamEndpoint::teardown() noexcept {
  // Close first: the EOF is what makes a still-draining child exit, so
  // the blocking reap below cannot hang on a healthy worker.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  child_.reap(/*force=*/failed_);
}

std::optional<ResultMessage> StreamEndpoint::pop_result() {
  if (results_.empty()) return std::nullopt;
  ResultMessage result = std::move(results_.front());
  results_.pop_front();
  ++stats_->messages_received;
  return result;
}

void StreamEndpoint::mark_failed(const std::string& reason) {
  if (failed_) return;
  error_ = std::make_exception_ptr(
      std::runtime_error(name_ + ": " + reason + child_.exit_suffix()));
  failed_ = true;
}

void StreamEndpoint::write_frame() {
  // Pump inbound traffic whenever the socket back-pressures: the worker
  // must be able to hand a result back while the master is mid-send, or
  // both would block forever.
  std::size_t done = 0;
  while (done < tx_.size()) {
    const ssize_t n =
        ::send(fd_, tx_.data() + done, tx_.size() - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_io(/*want_write=*/true);
      throw_if_dead();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    mark_failed(n < 0 && (errno == EPIPE || errno == ECONNRESET)
                    ? std::string("connection lost mid-write")
                    : std::string("send failed: ") + std::strerror(errno));
    throw_dead();
  }
}

void StreamEndpoint::wait_io(bool want_write) {
  if (eof_ || fd_ < 0) {
    mark_failed("connection closed");
    return;
  }
  try {
    poll_one(fd_, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)),
             /*timeout_ms=*/-1);
  } catch (const std::exception& error) {
    mark_failed(error.what());
    return;
  }
  pump();
}

void StreamEndpoint::pump() {
  if (eof_ || fd_ < 0) return;
  try {
    eof_ = !reader_.fill(fd_);
  } catch (const std::exception& error) {
    mark_failed(error.what());
    return;
  }
  const std::uint8_t* body = nullptr;
  std::size_t size = 0;
  while (!failed_) {
    try {
      // A corrupt prefix fails the endpoint cleanly (the reader's bound
      // is derived from the run's geometry); it never sizes a buffer.
      if (!reader_.next(&body, &size)) break;
    } catch (const std::exception& error) {
      mark_failed(error.what());
      break;
    }
    stats_->bytes_received += serde::kLengthBytes + size;
    try {
      dispatch(body, size);
    } catch (const std::exception& error) {
      // Corrupt frame CONTENT is the same protocol death as a corrupt
      // length: the worker failed, the run recovers under
      // tolerate_faults -- it must never abort a tolerant run.
      mark_failed(std::string("protocol corruption: ") + error.what());
    }
  }
  if (eof_ && !discarding_)
    mark_failed("connection lost (closed without a goodbye)");
}

void StreamEndpoint::dispatch(const std::uint8_t* body, std::size_t size) {
  switch (serde::frame_type(body, size)) {
    case FrameType::kCredit:
      ++credits_;
      break;
    case FrameType::kResult: {
      if (discarding_) break;
      const auto serde_begin = Clock::now();
      results_.push_back(serde::decode_result(body, size, *pool_));
      stats_->serde_seconds += seconds_since(serde_begin);
      break;
    }
    case FrameType::kError:
      mark_failed(serde::decode_error(body, size));
      break;
    default:
      // Hellos never ride an adopted connection (adopt() validated the
      // only one), so one here is as corrupt as any stranger's frame.
      mark_failed("unexpected frame from worker");
      break;
  }
}

}  // namespace hmxp::runtime
