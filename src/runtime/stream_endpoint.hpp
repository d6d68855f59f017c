// The framed-socket data plane of the process and TCP transports: one
// master-side StreamEndpoint and one worker-side StreamWorkerPort over a
// connected stream socket -- a socketpair(2) end for kProcess, an
// accepted loopback connection for kTcp. Frames are the serde wire
// format ([u64 length][type][payload]); the two transports differ only
// in how the connection comes to exist (and, for TCP, comes back).
//
// One protocol on both:
//
//   * Bootstrap. The worker sends a kHello for the configuration it
//     ACTUALLY runs; the master validates it once, in
//     StreamEndpoint::adopt, before the endpoint owns the connection,
//     and answers with its own hello (or a kError naming the reason),
//     which the worker validates in exchange_hello. After that a kHello
//     on the connection is corruption.
//   * Backpressure. The master holds `inbox_capacity` credits per
//     worker; every frame it ships consumes one, and the worker returns
//     one (kCredit) each time it dequeues a message -- the bounded
//     channel's "pop frees the slot, then the worker computes" timing.
//     A master pushing past a worker's buffers blocks in send(), pumping
//     inbound frames while it waits so a worker blocked handing a result
//     back can never deadlock it.
//   * Clean stop. kGoodbye, then a half-close. On the worker side a bare
//     EOF is always PeerDisconnected: the link or the master died. A
//     process child then exits; a TCP child redials.
//   * Death. A worker dying on a C++ exception ships a kError frame with
//     its what() text first (run_worker_child), so the master rethrows
//     the real root cause; one that dies without unwinding (SIGKILL)
//     just disappears and the cause comes from its exit status.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <string>

#include "runtime/child_process.hpp"
#include "runtime/serde.hpp"
#include "runtime/socket_util.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"

namespace hmxp::runtime {

/// How long the master waits for a freshly forked worker's hello.
inline constexpr std::chrono::seconds kBootstrapTimeout{30};

/// Hello frames are a fixed handful of integers; anything bigger is not
/// a worker saying hello. Bounding every pre-adoption read this tightly
/// means an unauthenticated peer can never make the master allocate.
inline constexpr std::uint64_t kHelloFrameBytes = 4096;

/// Master half of the bootstrap on a connected non-blocking fd: blocks
/// in poll until the worker's hello arrives or `deadline` passes.
/// Throws PeerDisconnected when the worker closed first, and
/// std::runtime_error on a timeout, a kError notice, or a frame that is
/// not a valid hello (bad magic or protocol version, named both ways).
serde::HelloFrame await_hello(
    int fd, std::chrono::steady_clock::time_point deadline);

/// Worker half of the bootstrap on a blocking fd: ships the hello for
/// the kernel configuration this process runs (with its identity
/// `token`; 0 where the connection itself is the identity) and blocks
/// for the master's answer -- its hello admits, a kError carries the
/// rejection, EOF throws PeerDisconnected.
void exchange_hello(int fd, std::uint64_t token);

/// The worker's face of the connection: frame intake with credit
/// return, result frames out. Lives entirely in the child process.
class StreamWorkerPort final : public WorkerPort {
 public:
  StreamWorkerPort(int fd, BufferPool* pool, std::uint64_t max_frame_bytes)
      : fd_(fd), pool_(pool), max_frame_bytes_(max_frame_bytes) {}

  /// nullopt on kGoodbye; PeerDisconnected on a bare EOF.
  std::optional<WorkerMessage> receive() override;
  std::optional<WorkerMessage> try_receive() override;
  void send(ResultMessage result) override;

 private:
  int fd_;
  BufferPool* pool_;
  std::uint64_t max_frame_bytes_;
  serde::ByteBuffer body_;
  serde::ByteBuffer tx_;
  bool goodbye_ = false;
};

/// The master's handle on one worker connection.
class StreamEndpoint final : public Endpoint {
 public:
  /// Claims a worker's fresh connection: its fd (-1 when none is staged
  /// yet) and the hello it already sent. Null where a failed worker
  /// can never come back.
  using ReadmitSource = std::function<int(serde::HelloFrame* hello)>;

  /// `name` prefixes every failure ("tcp worker 2: ..."). `hello` is
  /// the master's answer to a worker hello; its kernel fields are the
  /// configuration every worker must match. The endpoint starts without
  /// a connection: adopt() (or fail()) completes its bootstrap.
  StreamEndpoint(std::string name, pid_t pid, std::size_t credits,
                 const serde::HelloFrame& hello, BufferPool* pool,
                 TransportStats* stats, std::uint64_t max_frame_bytes,
                 ReadmitSource readmit = nullptr);
  ~StreamEndpoint() override { teardown(); }

  // ----- Endpoint -----
  void send(WorkerMessage message) override;
  std::optional<ResultMessage> try_recv() override;
  std::optional<ResultMessage> recv() override;
  bool failed() const override { return failed_; }
  std::exception_ptr error() const override { return error_; }
  bool killed() const override { return killed_; }
  void kill() override;
  void drain(BufferPool& pool) override;
  /// Claims the worker's reconnection from the re-admission source (if
  /// it redialed by now) and adopts it with a fresh credit window.
  bool try_readmit() override;

  // ----- transport-internal -----
  /// Takes ownership of a connected non-blocking fd whose worker sent
  /// `hello`: validates its kernel configuration and answers with the
  /// master's hello, resetting the connection state. A divergent worker
  /// gets a kError instead and the fd is closed. False when the
  /// connection was refused or died on the spot (the endpoint is then
  /// failed).
  bool adopt(int fd, const serde::HelloFrame& hello);
  /// Marks the endpoint failed with `reason` (a bootstrap that never
  /// produced a connection).
  void fail(const std::string& reason) { mark_failed(reason); }
  /// Graceful stop: kGoodbye (so a TCP worker KNOWS this is not a dead
  /// link), then half-close.
  void begin_shutdown() noexcept;
  /// Drains the connection to EOF (unblocking a worker mid-result),
  /// reaps the child and closes the fd. Idempotent.
  void finish_shutdown() noexcept;

 private:
  void teardown() noexcept;
  [[noreturn]] void throw_dead() { std::rethrow_exception(error_); }
  void throw_if_dead() {
    if (failed_) throw_dead();
  }
  std::optional<ResultMessage> pop_result();
  void mark_failed(const std::string& reason);
  void write_frame();
  void wait_io(bool want_write = false);
  void pump();
  void dispatch(const std::uint8_t* body, std::size_t size);

  std::string name_;
  ChildProcess child_;
  std::size_t capacity_;
  std::size_t credits_;
  serde::HelloFrame hello_;
  BufferPool* pool_;
  TransportStats* stats_;
  ReadmitSource readmit_;
  FrameReader reader_;
  int fd_ = -1;
  serde::ByteBuffer tx_;
  std::deque<ResultMessage> results_;
  std::exception_ptr error_;
  bool failed_ = false;
  bool killed_ = false;
  bool eof_ = false;
  bool discarding_ = false;
};

}  // namespace hmxp::runtime
