// The forked-worker lifecycle every process-isolated transport (process,
// tcp, shm) shares: ChildProcess is the master's handle on one forked
// worker, run_worker_child is the worker's side of the fork.
//
// Fork without exec: the child deliberately inherits the master's
// address space (options, schedules, fault_hook closures and the
// kernel-dispatch statics all come along for free -- an exec'ing
// transport could ship none of them). POSIX only blesses
// async-signal-safe calls in the child of a multithreaded parent; glibc
// (every deployment target here) additionally makes malloc fork-safe
// via its internal atfork handlers, which these children rely on. The
// master bounds every bootstrap wait, so even a wedged child fails the
// run instead of hanging it.
#pragma once

#include <functional>
#include <string>

#include <sys/types.h>

#include "matrix/tuning.hpp"
#include "runtime/buffer_pool.hpp"

namespace hmxp::runtime {

/// The master's handle on one forked worker process.
class ChildProcess {
 public:
  explicit ChildProcess(pid_t pid) : pid_(pid) {}
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// SIGKILL, unless already reaped. Killing an exited-but-unreaped
  /// child is a no-op: the zombie pins the pid, so this can never hit a
  /// recycled process.
  void kill() noexcept;
  /// Reaps the child if it already exited and describes how: " (killed
  /// by signal N)" or " (exit status N)". Empty while it still runs.
  /// Never blocks.
  std::string exit_suffix() noexcept;
  /// Blocking reap, idempotent. `force` SIGKILLs first: a failed child
  /// may still be alive (wedged before its hello, spewing corrupt
  /// frames, redialing), nothing upstream is obliged to have killed it,
  /// and waitpid must never block on a process that will not exit.
  void reap(bool force) noexcept;

 private:
  pid_t pid_;
  bool reaped_ = false;
};

/// Body of every forked worker; never returns. Arms PDEATHSIG (an
/// orphaned worker must not outlive a crashed master), re-asserts the
/// master's kernel configuration -- tier, micro-kernel variant AND the
/// tuned blocking, so the child can never re-resolve (or re-tune)
/// differently -- then runs `serve` with a private BufferPool. Exits 0
/// when `serve` returns and 2 when it throws; a std::exception's what()
/// is first shipped as a kError frame on `fd` (when >= 0) so the
/// master rethrows the real root cause. `serve` may replace `fd` (a TCP
/// worker redials); whatever it holds at exit is closed.
[[noreturn]] void run_worker_child(
    int fd, const matrix::KernelConfig& config,
    const std::function<void(int& fd, BufferPool& pool)>& serve);

}  // namespace hmxp::runtime
