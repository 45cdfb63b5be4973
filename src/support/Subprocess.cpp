//===- support/Subprocess.cpp - Guarded process execution ---------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>
#define SPL_HAVE_FORK 1
#endif

using namespace spl;

std::string SubprocessResult::describe() const {
  if (SpawnFailed)
    return "could not spawn process";
  if (TimedOut)
    return "timed out";
  if (Signal != 0)
    return "killed by signal " + std::to_string(Signal);
  return "exit " + std::to_string(ExitCode);
}

std::string GuardedResult::describe() const {
  if (SpawnFailed)
    return "could not spawn guard process";
  if (TimedOut)
    return "timed out";
  if (Signal != 0)
    return "died on signal " + std::to_string(Signal);
  return "exit " + std::to_string(ExitCode);
}

std::vector<std::string> spl::splitCommandArgs(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream SS(S);
  std::string Tok;
  while (SS >> Tok)
    Out.push_back(Tok);
  return Out;
}

double spl::envTimeoutSeconds(const char *Name, double DefSeconds) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return DefSeconds;
  char *End = nullptr;
  double Ms = std::strtod(Env, &End);
  if (End == Env || Ms <= 0)
    return DefSeconds;
  return Ms / 1000.0;
}

#if defined(SPL_HAVE_FORK)

extern char **environ;

namespace {

/// pidfd_open(2), called through syscall() because older C libraries lack
/// a wrapper. Returns -1 when there is no pidfd: a non-Linux host, a kernel
/// before 5.3, a seccomp filter that refuses the call, or the armed
/// `pidfd-open` fault site.
int openPidFd(pid_t Pid) {
  if (fault::at("pidfd-open"))
    return -1;
#if defined(__linux__) && defined(SYS_pidfd_open)
  return static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0));
#else
  (void)Pid;
  return -1;
#endif
}

/// poll() with a nanosecond timeout; a negative timeout waits forever.
int pollFor(struct pollfd *Fds, nfds_t N, std::int64_t TimeoutNs) {
#if defined(__linux__)
  struct timespec TS = {static_cast<time_t>(TimeoutNs / 1000000000),
                        static_cast<long>(TimeoutNs % 1000000000)};
  return ::ppoll(Fds, N, TimeoutNs < 0 ? nullptr : &TS, nullptr);
#else
  const std::int64_t Ms = (TimeoutNs + 999999) / 1000000;
  return ::poll(Fds, N,
                TimeoutNs < 0 ? -1
                              : static_cast<int>(std::min<std::int64_t>(
                                    Ms, std::numeric_limits<int>::max())));
#endif
}

/// A pipe whose ends are not inherited by children spawned concurrently
/// from other threads; the spawned command gets the write end through
/// explicit dup2 file actions only.
bool openPipe(int Fds[2]) {
#if defined(__linux__)
  return ::pipe2(Fds, O_CLOEXEC) == 0;
#else
  if (::pipe(Fds) != 0)
    return false;
  ::fcntl(Fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(Fds[1], F_SETFD, FD_CLOEXEC);
  return true;
#endif
}

/// Waits for \p Pid to exit, draining the non-blocking \p ReadFd (-1: no
/// pipe) into \p Output up to \p MaxOutputBytes meanwhile. One loop polls
/// the pipe and a pidfd, so it wakes the moment the child exits; where no
/// pidfd can be had it probes waitpid(WNOHANG) instead, sleeping 50 us at
/// first and doubling up to 20 ms (pipe activity restarts the backoff). When the deadline expires it kills the
/// child's whole process group and reports TimedOut. Returns the waitpid
/// status.
int waitForChild(pid_t Pid, double TimeoutSeconds, int ReadFd,
                 std::string *Output, std::size_t MaxOutputBytes,
                 bool &TimedOut) {
  using Clock = std::chrono::steady_clock;
  constexpr std::int64_t MinBackoffNs = 50 * 1000;
  constexpr std::int64_t MaxBackoffNs = 20 * 1000 * 1000;
  const bool HasDeadline = TimeoutSeconds > 0;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(TimeoutSeconds));
  const int PidFd = openPidFd(Pid);
  std::int64_t BackoffNs = MinBackoffNs;

  // Reads whatever the pipe holds right now (output past the cap is read
  // and dropped so the child never blocks on a full pipe). Returns false
  // once the pipe is at EOF or broken.
  char Buf[4096];
  auto Drain = [&]() -> bool {
    for (;;) {
      ssize_t N = ::read(ReadFd, Buf, sizeof(Buf));
      if (N > 0) {
        if (Output && Output->size() < MaxOutputBytes)
          Output->append(Buf, std::min<std::size_t>(
                                  static_cast<std::size_t>(N),
                                  MaxOutputBytes - Output->size()));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      return N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  };

  bool PipeOpen = ReadFd >= 0;
  int Status = 0;
  TimedOut = false;
  for (;;) {
    // Reaped, or not ours to wait for (ECHILD): either way the wait is over.
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno != EINTR))
      break;
    std::int64_t WaitNs = -1;
    if (HasDeadline) {
      WaitNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Deadline - Clock::now())
                   .count();
      if (WaitNs <= 0) {
        TimedOut = true;
        break;
      }
    }
    if (PidFd < 0) {
      WaitNs = WaitNs < 0 ? BackoffNs : std::min(WaitNs, BackoffNs);
      BackoffNs = std::min(BackoffNs * 2, MaxBackoffNs);
    }
    struct pollfd Fds[2];
    nfds_t N = 0;
    if (PipeOpen)
      Fds[N++] = {ReadFd, POLLIN, 0};
    if (PidFd >= 0)
      Fds[N++] = {PidFd, POLLIN, 0};
    if (pollFor(Fds, N, WaitNs) > 0 && PipeOpen && Fds[0].revents != 0) {
      PipeOpen = Drain();
      BackoffNs = MinBackoffNs; // Output or EOF: the exit may be near.
    }
  }

  if (TimedOut) {
    // Kill the whole group: compilers spawn their own children (cc1, as).
    ::kill(-Pid, SIGKILL);
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  } else if (PipeOpen) {
    // Collect what the child wrote before it exited. A grandchild that
    // still holds the pipe does not hold up the wait.
    Drain();
  }
  if (PidFd >= 0)
    ::close(PidFd);
  return Status;
}

/// Fills the status fields shared by SubprocessResult and GuardedResult.
template <typename ResultT>
void decodeStatus(ResultT &Res, int Status, bool TimedOut) {
  Res.TimedOut = TimedOut;
  if (TimedOut)
    return;
  if (WIFSIGNALED(Status))
    Res.Signal = WTERMSIG(Status);
  else if (WIFEXITED(Status))
    Res.ExitCode = WEXITSTATUS(Status);
}

} // namespace

SubprocessResult spl::runSubprocess(const std::vector<std::string> &Argv,
                                    const SubprocessOptions &Opts) {
  SubprocessResult Res;
  int Pipe[2];
  if (Argv.empty() || !openPipe(Pipe)) {
    Res.SpawnFailed = true;
    return Res;
  }
  std::vector<char *> CArgv;
  CArgv.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    CArgv.push_back(const_cast<char *>(A.c_str()));
  CArgv.push_back(nullptr);

  // posix_spawn does not copy this process's page tables the way fork
  // does, so starting the compiler costs the same from a large daemon as
  // from a small tool. The child gets its own process group (so a timeout
  // can kill compiler descendants), stdout+stderr into the pipe, and stdin
  // from /dev/null.
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDERR_FILENO);
  posix_spawn_file_actions_addopen(&Actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawnattr_t Attr;
  posix_spawnattr_init(&Attr);
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&Attr, 0);
  pid_t Pid = -1;
  const int Err =
      ::posix_spawnp(&Pid, CArgv[0], &Actions, &Attr, CArgv.data(), environ);
  posix_spawnattr_destroy(&Attr);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);

  if (Err != 0) {
    ::close(Pipe[0]);
    if (Err == EAGAIN || Err == ENOMEM) {
      Res.SpawnFailed = true;
    } else {
      // The command could not be executed; 127 mirrors the shell's
      // "command not found".
      Res.ExitCode = 127;
      Res.Output = Argv[0] + ": " + std::strerror(Err);
    }
    return Res;
  }

  ::fcntl(Pipe[0], F_SETFL, O_NONBLOCK);
  bool TimedOut = false;
  int Status = waitForChild(Pid, Opts.TimeoutSeconds, Pipe[0], &Res.Output,
                            Opts.MaxOutputBytes, TimedOut);
  ::close(Pipe[0]);
  decodeStatus(Res, Status, TimedOut);
  return Res;
}

GuardedResult spl::runGuarded(const std::function<int()> &Fn,
                              double TimeoutSeconds) {
  // A closure cannot be exec'd, so this one path keeps fork.
  GuardedResult Res;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Res.SpawnFailed = true;
    return Res;
  }
  if (Pid == 0) {
    ::setpgid(0, 0);
    ::_exit(Fn());
  }
  ::setpgid(Pid, Pid); // Also from the parent: closes the startup race.

  bool TimedOut = false;
  int Status = waitForChild(Pid, TimeoutSeconds, /*ReadFd=*/-1, nullptr, 0,
                            TimedOut);
  decodeStatus(Res, Status, TimedOut);
  return Res;
}

#else // !SPL_HAVE_FORK

SubprocessResult spl::runSubprocess(const std::vector<std::string> &,
                                    const SubprocessOptions &) {
  SubprocessResult Res;
  Res.SpawnFailed = true;
  Res.Output = "subprocess execution is not supported on this platform";
  return Res;
}

GuardedResult spl::runGuarded(const std::function<int()> &Fn, double) {
  // No isolation available: run inline so the feature degrades to the old
  // in-process behavior instead of refusing to work.
  GuardedResult Res;
  Res.ExitCode = Fn();
  return Res;
}

#endif // SPL_HAVE_FORK
