#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "helpers.h"

namespace perfbench {

crh::Result<std::unique_ptr<Daemon>> Daemon::Spawn(const std::string& binary,
                                                   const std::vector<std::string>& args,
                                                   const std::string& log_path,
                                                   double timeout_s) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) return crh::Status::IOError("pipe2 failed");
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return crh::Status::IOError("cannot open " + log_path);
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark even if the benchmark itself is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(out_pipe[0]);
    return crh::Status::IOError("fork failed");
  }
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  daemon->stdout_fd_ = out_pipe[0];

  // Readiness comes from the daemon's own stdout line, never from a
  // connect-and-sleep loop.
  std::string pending;
  const double deadline = Now() + timeout_s;
  while (true) {
    const size_t newline = pending.find('\n');
    if (newline != std::string::npos) {
      if (ParseReadinessLine(pending.substr(0, newline), &daemon->socket_path_)) {
        return daemon;
      }
      pending.erase(0, newline + 1);
      continue;
    }
    const double left = deadline - Now();
    if (left <= 0) return crh::Status::IOError("crh_serve printed no readiness line in time");
    struct pollfd pfd = {daemon->stdout_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1e3)));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(daemon->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return crh::Status::IOError("crh_serve exited before it was ready");
    pending.append(buf, static_cast<size_t>(n));
  }
}

Daemon::~Daemon() {
  Kill();
}

bool Daemon::Reap(double timeout_s, int* status) {
  const double deadline = Now() + timeout_s;
  while (true) {
    const pid_t rc = ::waitpid(pid_, status, WNOHANG);
    if (rc == pid_) return true;
    if (rc < 0 && errno != EINTR) return true;  // already reaped elsewhere
    if (Now() >= deadline) return false;
    ::usleep(1000);
  }
}

void Daemon::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

crh::Result<int> Daemon::Terminate(double timeout_s) {
  if (pid_ <= 0) return crh::Status::FailedPrecondition("daemon not running");
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (!Reap(timeout_s, &status)) {
    Kill();
    return crh::Status::IOError("crh_serve did not drain in time");
  }
  pid_ = -1;
  Kill();  // closes the stdout pipe
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

crh::Result<std::unique_ptr<Connection>> Connection::Open(const std::string& path,
                                                          double timeout_s) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return crh::Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return crh::Status::IOError("socket() failed");
  std::unique_ptr<Connection> conn(new Connection());
  conn->fd_ = fd;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return crh::Status::IOError("connect(" + path + ") failed: " + std::strerror(errno));
  }
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return conn;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

crh::Result<std::string> Connection::Request(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return crh::Status::IOError(std::string("send failed: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string reply = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return reply;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return crh::Status::IOError("connection closed by the daemon");
    if (n < 0) {
      if (errno == EINTR) continue;
      return crh::Status::IOError(std::string("recv failed: ") + std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
