#include "serve/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace uic {
namespace serve {

namespace {

constexpr int kPollIntervalMs = 100;

/// Transient poll()/accept() failures retried before giving up. Each retry
/// sleeps one poll interval, so this bounds the stall at ~1s.
constexpr int kMaxTransientRetries = 10;

/// Sleep one poll interval (a poll with no fds — the project's sanctioned
/// sleep in the net layer); callers re-check their stop flag on the next
/// loop iteration.
void BackoffSleep() { poll(nullptr, 0, kPollIntervalMs); }

/// poll() for readability, re-arming on EINTR and backing off through the
/// poll interval on transient failures (kernel memory pressure). Returns
/// false when `stop` fired or poll failed for real, true when `fd` is
/// readable/at EOF.
bool WaitReadable(int fd, const std::atomic<bool>* stop) {
  int transient_failures = 0;
  while (true) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return false;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc;
    const failpoint::Hit fp = UIC_FAILPOINT("serve.net.poll");
    if (fp.action == failpoint::Action::kError) {
      rc = -1;
      errno = fp.error_errno;
    } else {
      failpoint::SleepFor(fp);
      rc = poll(&pfd, 1, stop != nullptr ? kPollIntervalMs : -1);
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOMEM || errno == EAGAIN) {
        if (++transient_failures > kMaxTransientRetries) return false;
        BackoffSleep();
        continue;
      }
      return false;
    }
    if (rc > 0) return true;  // readable, HUP, or error — read() resolves
  }
}

}  // namespace

bool FdLineChannel::ReadLine(std::string* line,
                             const std::atomic<bool>* stop) {
  while (!line_too_long_) {
    // Resume the scan where the last one stopped: re-scanning the whole
    // buffer after every chunk would be quadratic in the line length.
    const size_t nl = buffer_.find('\n', scanned_);
    const size_t line_bytes = nl != std::string::npos ? nl : buffer_.size();
    if (line_bytes > kMaxLineBytes) {
      line_too_long_ = true;
      buffer_.clear();
      break;
    }
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    scanned_ = buffer_.size();
    if (eof_) {
      if (buffer_.empty()) return false;
      *line = std::move(buffer_);  // final unterminated line
      buffer_.clear();
      return true;
    }
    if (!WaitReadable(read_fd_, stop)) return false;
    char chunk[4096];
    size_t want = sizeof(chunk);
    ssize_t n;
    const failpoint::Hit fp = UIC_FAILPOINT("serve.net.recv");
    if (fp.action == failpoint::Action::kError) {
      n = -1;
      errno = fp.error_errno;
    } else {
      if (fp.action == failpoint::Action::kShortIo && fp.arg < want) {
        want = fp.arg;  // short read: the loop must reassemble the line
      }
      failpoint::SleepFor(fp);
      n = read(read_fd_, chunk, want);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    UIC_METRIC_COUNTER(bytes_read, "uic_net_bytes_read_total",
                       "Bytes read from line channels.");
    bytes_read.Add(static_cast<uint64_t>(n));
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  return false;
}

bool FdLineChannel::WriteLine(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return WriteAll(framed);
}

bool FdLineChannel::WriteRaw(const std::string& data) {
  return WriteAll(data);
}

bool FdLineChannel::WriteAll(const std::string& framed) {
  size_t off = 0;
  while (off < framed.size()) {
    size_t want = framed.size() - off;
    ssize_t n;
    const failpoint::Hit fp = UIC_FAILPOINT("serve.net.send");
    if (fp.action == failpoint::Action::kError) {
      n = -1;
      errno = fp.error_errno;
    } else {
      if (fp.action == failpoint::Action::kShortIo && fp.arg < want) {
        want = fp.arg;  // partial write: the loop must finish the frame
      }
      failpoint::SleepFor(fp);
      if (socket_fds_) {
        n = send(write_fd_, framed.data() + off, want, MSG_NOSIGNAL);
      } else {
        n = write(write_fd_, framed.data() + off, want);
      }
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    UIC_METRIC_COUNTER(bytes_written, "uic_net_bytes_written_total",
                       "Bytes written to line channels.");
    bytes_written.Add(static_cast<uint64_t>(n));
    off += static_cast<size_t>(n);
  }
  return true;
}

TcpConnection& TcpConnection::operator=(TcpConnection&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void TcpConnection::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    port_ = o.port_;
    o.fd_ = -1;
  }
  return *this;
}

void TcpListener::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

Result<TcpListener> TcpListener::Listen(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    close(fd);
    return Status::IOError(std::string("bind 127.0.0.1:") +
                           std::to_string(port) + ": " + strerror(err));
  }
  if (listen(fd, 16) < 0) {
    const int err = errno;
    close(fd);
    return Status::IOError(std::string("listen: ") + strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    const int err = errno;
    close(fd);
    return Status::IOError(std::string("getsockname: ") + strerror(err));
  }

  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<TcpConnection> TcpListener::Accept(const std::atomic<bool>& stop) {
  while (true) {
    if (!WaitReadable(fd_, &stop)) return TcpConnection();  // stop fired
    int fd;
    const failpoint::Hit fp = UIC_FAILPOINT("serve.net.accept");
    if (fp.action == failpoint::Action::kError) {
      fd = -1;
      errno = fp.error_errno;
    } else {
      failpoint::SleepFor(fp);
      fd = accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;  // next client
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nothing pending after all (a race, or a nonblocking listener):
        // re-arm through the poll loop after one interval. The old
        // immediate `continue` could busy-spin at 100% CPU when poll kept
        // reporting the listener readable.
        BackoffSleep();
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Accept storm: fd-table or kernel-buffer exhaustion is transient
        // (connections close, pressure passes). Back off and keep the
        // listener alive instead of tearing the daemon down; the stop
        // flag is still observed every interval via WaitReadable.
        BackoffSleep();
        continue;
      }
      return Status::IOError(std::string("accept: ") + strerror(errno));
    }
    UIC_METRIC_COUNTER(accepted, "uic_net_connections_accepted_total",
                       "TCP connections accepted (serve + metrics ports).");
    accepted.Add();
    return TcpConnection(fd);
  }
}

Result<TcpConnection> TcpListener::Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    close(fd);
    return Status::IOError(std::string("connect 127.0.0.1:") +
                           std::to_string(port) + ": " + strerror(err));
  }
  return TcpConnection(fd);
}

}  // namespace serve
}  // namespace uic
