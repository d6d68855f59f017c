// TcpTransport: the online runtime over loopback TCP -- workers DIAL
// the master instead of inheriting a socketpair end, which is the whole
// connection lifecycle of a real cluster deployment rehearsed inside
// one machine (and one CI job). Once connected, a TCP worker speaks the
// framed-socket protocol of runtime/stream_endpoint.hpp, exactly like a
// process worker; what is TCP-only lives here: the listen socket, the
// dialing, the identity tokens, and re-admission.
//
// Topology: the master binds a listen socket on 127.0.0.1 (ephemeral
// port) BEFORE forking, so the very first connect can never be refused.
// Each forked worker dials that port and sends its hello carrying a
// per-worker identity TOKEN. The Acceptor owns the listen socket and
// every connection that has not yet proven its identity: it accepts,
// reads the hello frame under a small bound and a deadline, rejects
// strangers (bad magic / wrong protocol version) with a kError naming
// both versions, and stages authenticated connections by token until
// the owning endpoint adopts them.
//
// Reconnect lifecycle: a dropped connection surfaces as EOF without a
// goodbye. The master marks the endpoint failed and recovers exactly
// like any worker death (mirror rollback, chunk back to the pending
// set); the worker closes its end, redials, and re-handshakes with the
// SAME token. Once the master finished recovering it polls
// Endpoint::try_readmit, which adopts the staged connection with a fresh
// credit window and re-admits the worker as a hot-joining idle worker
// -- an FT-* scheduler then hands it orphaned or fresh work.
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "matrix/kernel_dispatch.hpp"
#include "matrix/tuning.hpp"
#include "runtime/executor.hpp"
#include "runtime/stream_endpoint.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/transport.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

void set_nodelay(int fd) {
  // Credits and cancels are latency-critical one-liners; never let
  // Nagle batch them behind a payload.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Milliseconds left until `deadline`, rounded up (0 once it passed).
int millis_until(Clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

// ---- child side -------------------------------------------------------------

/// Dials the master's loopback port with a blocking socket, retrying
/// transient failures (including the refusal window while the master's
/// accept queue churns during recovery) under a deadline.
int dial_master(std::uint16_t port) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw std::runtime_error(std::string("socket failed: ") +
                               std::strerror(errno));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      set_nodelay(fd);
      return fd;
    }
    const int saved = errno;
    ::close(fd);
    if (saved == EINTR) continue;
    if (Clock::now() >= deadline)
      throw std::runtime_error(std::string("cannot reach master: ") +
                               std::strerror(saved));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The TCP worker's serve loop: dial, handshake, run the worker
/// protocol. A severed connection (PeerDisconnected from either
/// direction, or a TcpDisconnectFault injected by a fault hook) drops
/// the socket and redials -- the worker restarts its protocol state from
/// scratch, which is correct because the master rolled back everything
/// it had in flight when it observed the death. If the master is really
/// gone, dial_master's deadline (or PDEATHSIG) ends the loop. Returns on
/// the master's goodbye; any other exception is a real worker death.
void serve_dialing(int& fd, BufferPool& pool, std::uint16_t port,
                   std::uint64_t token, const WorkerContext& context,
                   std::uint64_t max_frame_bytes) {
  for (;;) {
    try {
      fd = dial_master(port);
      exchange_hello(fd, token);
      StreamWorkerPort worker_port(fd, &pool, max_frame_bytes);
      worker_main(context, worker_port, pool);
      return;
    } catch (const TcpDisconnectFault&) {
      // Injected link failure: sever abruptly (no goodbye, no notice)
      // and come back -- worker_main already surrendered the chunk.
    } catch (const PeerDisconnected&) {
      // The link (or the master's endpoint) dropped under us: redial.
    }
    ::close(fd);
    fd = -1;
  }
}

// ---- master side ------------------------------------------------------------

/// Owns the listen socket and every connection that has not yet proven
/// an identity: accepts, reads the handshake frame under a tight bound
/// and a deadline, rejects strangers with a kError, and stages
/// authenticated connections by token until an endpoint claims them.
/// Single-threaded like the whole master loop; endpoints drive it by
/// calling poll() from their bootstrap and re-admission paths.
class Acceptor {
 public:
  Acceptor() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    HMXP_CHECK(listen_fd_ >= 0, "socket failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: the kernel picks a free port
    HMXP_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0,
               "bind 127.0.0.1 failed");
    HMXP_CHECK(::listen(listen_fd_, 64) == 0, "listen failed");
    socklen_t len = sizeof addr;
    HMXP_CHECK(::getsockname(listen_fd_,
                             reinterpret_cast<sockaddr*>(&addr), &len) == 0,
               "getsockname failed");
    port_ = ntohs(addr.sin_port);
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    HMXP_CHECK(flags >= 0 &&
                   ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl O_NONBLOCK failed");
  }

  ~Acceptor() { close_all(); }
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  std::uint16_t port() const { return port_; }

  /// The forked child must not keep the master's listen socket open (a
  /// dangling copy would keep the port alive past the master).
  void close_in_child() noexcept {
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  /// Blocks in poll(2) -- over the listen socket and every pending
  /// handshake -- until one of them has news or `timeout_ms` passes (0:
  /// just look), then accepts what is queued and advances every pending
  /// handshake. Non-blocking I/O throughout.
  void poll(int timeout_ms) {
    if (timeout_ms > 0 && listen_fd_ >= 0) {
      std::vector<struct pollfd> fds;
      fds.reserve(pending_.size() + 1);
      fds.push_back({listen_fd_, POLLIN, 0});
      for (const Pending& conn : pending_) fds.push_back({conn.fd, POLLIN, 0});
      ::poll(fds.data(), fds.size(), timeout_ms);  // EINTR: just look again
    }
    accept_new();
    const auto now = Clock::now();
    for (std::size_t i = 0; i < pending_.size();) {
      if (advance(pending_[i]) || now >= pending_[i].deadline) {
        if (pending_[i].fd >= 0) ::close(pending_[i].fd);
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
        continue;
      }
      ++i;
    }
  }

  /// Claims the staged connection presenting `token`; -1 if none. The
  /// returned fd is non-blocking, ready for StreamEndpoint::adopt.
  int take(std::uint64_t token, serde::HelloFrame* hello) {
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      if (staged_[i].hello.token != token) continue;
      const int fd = staged_[i].fd;
      *hello = staged_[i].hello;
      staged_[i] = std::move(staged_.back());
      staged_.pop_back();
      return fd;
    }
    return -1;
  }

  void close_all() noexcept {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const Pending& conn : pending_)
      if (conn.fd >= 0) ::close(conn.fd);
    pending_.clear();
    for (const Staged& conn : staged_)
      if (conn.fd >= 0) ::close(conn.fd);
    staged_.clear();
  }

 private:
  struct Pending {
    int fd = -1;
    FrameReader reader{kHelloFrameBytes};
    Clock::time_point deadline;
  };
  struct Staged {
    int fd = -1;
    serde::HelloFrame hello;
  };

  void accept_new() {
    if (listen_fd_ < 0) return;
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient accept error: try again later
      }
      set_nodelay(fd);
      Pending conn;
      conn.fd = fd;
      conn.deadline = Clock::now() + std::chrono::seconds(10);
      pending_.push_back(std::move(conn));
    }
  }

  /// Reads whatever the pending connection has; true when it should be
  /// dropped (EOF, corruption, rejection), false to keep waiting. A
  /// completed valid hello moves the connection to staged_ (also
  /// returning true -- the fd moved, Pending::fd is cleared).
  bool advance(Pending& conn) {
    try {
      const bool open = conn.reader.fill(conn.fd);
      const std::uint8_t* body = nullptr;
      std::size_t size = 0;
      if (!conn.reader.next(&body, &size)) return !open;
      staged_.push_back({conn.fd, serde::decode_hello(body, size)});
      conn.fd = -1;  // ownership moved
      return true;
    } catch (const std::exception& error) {
      // Not an hmxp worker, or a version skew: tell it why (the error
      // names both versions) and drop it.
      send_error_notice(conn.fd, error.what());
      return true;
    }
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Pending> pending_;
  std::vector<Staged> staged_;
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(int workers, std::size_t inbox_capacity,
               const ExecutorOptions& options, Clock::time_point run_begin,
               BufferPool* pool, std::size_t max_payload_doubles)
      : endpoint_stats_(static_cast<std::size_t>(workers)) {
    // Resolve (possibly autotune) the blocking in the master, before
    // any fork; children re-assert and answer for exactly this state.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const std::uint64_t max_frame_bytes =
        options.max_frame_bytes != 0
            ? static_cast<std::uint64_t>(options.max_frame_bytes)
            : serde::max_frame_bytes_for(max_payload_doubles);

    // Identity tokens: random base + index, never 0 (0 marks the
    // socketpair transports, where the fd itself is the identity).
    std::random_device entropy;
    const std::uint64_t base =
        ((static_cast<std::uint64_t>(entropy()) << 32) ^ entropy()) | 1;
    const auto count = static_cast<std::size_t>(workers);
    std::vector<std::uint64_t> tokens(count);
    try {
      endpoints_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t token = tokens[i] = base + i;
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);
        const std::uint16_t port = acceptor_.port();

        const pid_t pid = ::fork();
        HMXP_CHECK(pid >= 0, "fork failed");
        if (pid == 0) {
          // Child: it DIALS, so the only inherited resource to drop is
          // the master's listen socket.
          acceptor_.close_in_child();
          run_worker_child(-1, config, [&](int& fd, BufferPool& worker_pool) {
            serve_dialing(fd, worker_pool, port, token, context,
                          max_frame_bytes);
          });
        }
        serde::HelloFrame hello = serde::local_hello(config);
        hello.token = token;
        endpoints_.push_back(std::make_unique<StreamEndpoint>(
            "tcp worker " + std::to_string(i), pid, inbox_capacity, hello,
            pool, &endpoint_stats_[i], max_frame_bytes,
            [this, token](serde::HelloFrame* reconnect) {
              acceptor_.poll(/*timeout_ms=*/0);
              return acceptor_.take(token, reconnect);
            }));
      }
    } catch (...) {
      shutdown();
      throw;
    }
    // Synchronize on every worker's bootstrap handshake, blocked in
    // poll: launch-pad deaths, version skews and kernel-configuration
    // mismatches surface here.
    const auto deadline = Clock::now() + kBootstrapTimeout;
    for (std::size_t i = 0; i < count; ++i) {
      serde::HelloFrame hello;
      int fd = acceptor_.take(tokens[i], &hello);
      while (fd < 0 && Clock::now() < deadline) {
        acceptor_.poll(millis_until(deadline));
        fd = acceptor_.take(tokens[i], &hello);
      }
      if (fd >= 0)
        endpoints_[i]->adopt(fd, hello);
      else
        endpoints_[i]->fail("no bootstrap hello within " +
                            std::to_string(kBootstrapTimeout.count()) + "s");
    }
  }

  ~TcpTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kTcp; }
  int worker_count() const override {
    return static_cast<int>(endpoints_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }

  void shutdown() noexcept override {
    for (auto& endpoint : endpoints_) endpoint->begin_shutdown();
    for (auto& endpoint : endpoints_) endpoint->finish_shutdown();
    acceptor_.close_all();
  }

  TransportStats stats() const override {
    TransportStats total;
    for (const TransportStats& slot : endpoint_stats_) total += slot;
    return total;
  }

 private:
  Acceptor acceptor_;
  // One slot per endpoint (each writes only its own; stable addresses,
  // never resized) so concurrent fleet jobs never race on a counter.
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<StreamEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<TcpTransport>(workers, inbox_capacity, options,
                                        run_begin, pool, max_payload_doubles);
}

}  // namespace hmxp::runtime
