// ProcessTransport: one worker PROCESS per worker, the in-machine
// stand-in for the companion report's real-cluster MPI deployment.
//
// Topology: the master owns one socketpair(2) per worker; each child is
// forked (no exec -- it inherits the executor's options, schedules and
// kernel state copy-on-write) and runs the same worker_main as a thread
// worker, over the framed-socket protocol of runtime/stream_endpoint.hpp
// it shares with the TCP transport. A forked worker is REALLY isolated:
// a SIGKILL, an abort, or an OOM kill surfaces to the master as a socket
// EOF -- a first-class worker failure the fault-tolerant master recovers
// from exactly like a dead thread. The socketpair end IS the worker's
// identity, so a failed worker never comes back.
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "matrix/kernel_dispatch.hpp"
#include "matrix/tuning.hpp"
#include "runtime/executor.hpp"
#include "runtime/stream_endpoint.hpp"
#include "runtime/transport.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

class ProcessTransport final : public Transport {
 public:
  ProcessTransport(int workers, std::size_t inbox_capacity,
                   const ExecutorOptions& options,
                   Clock::time_point run_begin, BufferPool* pool,
                   std::size_t max_payload_doubles)
      : endpoint_stats_(static_cast<std::size_t>(workers)) {
    // Capture the kernel configuration ONCE, in the master, before any
    // fork: the explicit pins (force_kernel_tier / --kernel,
    // force_micro_kernel_variant), the tier/variant the dispatch
    // resolved, and the tuned BlockingParams. current_kernel_config()
    // RESOLVES the blocking -- running the autotune search now, in the
    // master -- so every child inherits a settled winner and re-asserts
    // exactly this state instead of re-tuning behind the fork.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const serde::HelloFrame hello = serde::local_hello(config);
    const std::uint64_t max_frame_bytes =
        options.max_frame_bytes != 0
            ? static_cast<std::uint64_t>(options.max_frame_bytes)
            : serde::max_frame_bytes_for(max_payload_doubles);

    const auto count = static_cast<std::size_t>(workers);
    // master_fds keeps every master-end NUMBER for the whole spawn loop:
    // each child must close every master end it inherited, or a dead
    // child's socket would never read as EOF and stray fds would pin dead
    // sockets open. Until adopt() hands an fd to its endpoint, closing
    // it is this constructor's job.
    std::vector<int> master_fds(count, -1);
    std::vector<int> child_fds(count, -1);
    try {
      for (std::size_t i = 0; i < count; ++i) {
        int fds[2];
        HMXP_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                   "socketpair failed");
        master_fds[i] = fds[0];
        child_fds[i] = fds[1];
      }
      endpoints_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);

        const pid_t pid = ::fork();
        HMXP_CHECK(pid >= 0, "fork failed");
        if (pid == 0) {
          // Child: keep only this worker's own end.
          for (std::size_t j = 0; j < count; ++j) {
            if (master_fds[j] >= 0) ::close(master_fds[j]);
            if (j != i && child_fds[j] >= 0) ::close(child_fds[j]);
          }
          run_worker_child(
              child_fds[i], config, [&](int& fd, BufferPool& worker_pool) {
                exchange_hello(fd, /*token=*/0);
                StreamWorkerPort port(fd, &worker_pool, max_frame_bytes);
                worker_main(context, port, worker_pool);
              });
        }
        // Master: the child end belongs to the child now.
        ::close(child_fds[i]);
        child_fds[i] = -1;
        const int flags = ::fcntl(master_fds[i], F_GETFL, 0);
        HMXP_CHECK(flags >= 0 && ::fcntl(master_fds[i], F_SETFL,
                                         flags | O_NONBLOCK) == 0,
                   "fcntl O_NONBLOCK failed");
        endpoints_.push_back(std::make_unique<StreamEndpoint>(
            "worker process " + std::to_string(i), pid, inbox_capacity, hello,
            pool, &endpoint_stats_[i], max_frame_bytes));
      }
    } catch (...) {
      for (const int fd : master_fds)
        if (fd >= 0) ::close(fd);
      for (const int fd : child_fds)
        if (fd >= 0) ::close(fd);
      shutdown();
      throw;
    }
    // Synchronize on every child's bootstrap hello: launch-pad deaths
    // and kernel-configuration mismatches surface here, not mid-run.
    const auto deadline = Clock::now() + kBootstrapTimeout;
    for (std::size_t i = 0; i < count; ++i) {
      StreamEndpoint& endpoint = *endpoints_[i];
      const int fd = master_fds[i];
      try {
        endpoint.adopt(fd, await_hello(fd, deadline));
      } catch (const std::exception& error) {
        ::close(fd);
        endpoint.fail(error.what());
      }
    }
  }

  ~ProcessTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kProcess; }
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
  }

  TransportStats stats() const override {
    TransportStats total;
    for (const TransportStats& slot : endpoint_stats_) total += slot;
    return total;
  }

 private:
  // One slot per endpoint (each writes only its own; stable addresses,
  // never resized) so concurrent fleet jobs never race on a counter.
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<StreamEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_process_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<ProcessTransport>(workers, inbox_capacity, options,
                                            run_begin, pool,
                                            max_payload_doubles);
}

}  // namespace hmxp::runtime
