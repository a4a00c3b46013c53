#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

/// \file daemon.h
/// Process and socket plumbing for driving the real crh_serve binary: a
/// child-process owner that waits for the readiness line, and a blocking
/// newline-JSON connection over the daemon's Unix socket.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One crh_serve process. The destructor SIGKILLs and reaps a process that
/// is still running, so no daemon outlives the benchmark's scope for it.
class Daemon {
 public:
  /// Starts `binary` with `args` (stderr appended to `log_path`) and
  /// returns once the daemon printed its readiness line, or an error when
  /// it exited or stayed silent for `timeout_s`.
  static crh::Result<std::unique_ptr<Daemon>> Spawn(const std::string& binary,
                                                    const std::vector<std::string>& args,
                                                    const std::string& log_path,
                                                    double timeout_s);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// SIGKILL and reap.
  void Kill();

  /// SIGTERM (a graceful drain) and reap; the exit code, or an error when
  /// the daemon does not exit within `timeout_s` (it is then killed).
  crh::Result<int> Terminate(double timeout_s);

  /// The daemon's peak resident set (VmHWM) in MiB; NaN when unreadable.
  double PeakRssMb() const;

 private:
  Daemon() = default;
  /// Waits up to `timeout_s` for the child to exit; true when reaped.
  bool Reap(double timeout_s, int* status);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_path_;
};

/// A blocking client connection speaking one request line, one reply line.
class Connection {
 public:
  /// Connects to the Unix socket at `path`; every later send or receive
  /// gives up after `timeout_s`.
  static crh::Result<std::unique_ptr<Connection>> Open(const std::string& path,
                                                       double timeout_s);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `line` plus a newline and returns the reply line without its
  /// newline. A timeout or a closed connection is an IOError.
  crh::Result<std::string> Request(const std::string& line);

 private:
  Connection() = default;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
