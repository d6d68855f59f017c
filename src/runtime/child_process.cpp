#include "runtime/child_process.hpp"

#include <cerrno>
#include <csignal>
#include <exception>

#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "matrix/kernel_dispatch.hpp"
#include "runtime/socket_util.hpp"

namespace hmxp::runtime {

void ChildProcess::kill() noexcept {
  if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
}

std::string ChildProcess::exit_suffix() noexcept {
  if (pid_ <= 0 || reaped_) return "";
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return "";
  reaped_ = true;
  if (WIFSIGNALED(status))
    return " (killed by signal " + std::to_string(WTERMSIG(status)) + ")";
  if (WIFEXITED(status))
    return " (exit status " + std::to_string(WEXITSTATUS(status)) + ")";
  return "";
}

void ChildProcess::reap(bool force) noexcept {
  if (pid_ <= 0 || reaped_) return;
  if (force) kill();
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
}

void run_worker_child(
    int fd, const matrix::KernelConfig& config,
    const std::function<void(int& fd, BufferPool& pool)>& serve) {
#if defined(__linux__)
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  matrix::install_kernel_config(config);

  BufferPool pool;
  int code = 0;
  try {
    serve(fd, pool);
  } catch (const std::exception& error) {
    if (fd >= 0) send_error_notice(fd, error.what());
    code = 2;
  } catch (...) {
    code = 2;
  }
  if (fd >= 0) ::close(fd);
  ::_exit(code);
}

}  // namespace hmxp::runtime
