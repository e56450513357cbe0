// Transport for the welfare-query service: line-delimited I/O over file
// descriptors, plus a loopback TCP listener.
//
// This is the ONLY file (with net.cc) that may touch raw socket syscalls
// — uic_lint rule UIC-L008 bans socket/connect/accept/send/recv outside
// src/serve/net* so every byte on the wire goes through one audited
// place. Two properties the rest of the server relies on:
//
//  * Interruptibility: reads poll with a short timeout and observe an
//    optional stop flag, so a SIGTERM-initiated drain wakes a blocked
//    reader within ~100 ms without SA_RESTART games or thread signals.
//  * EINTR/partial-I/O correctness: every read/write loops on EINTR and
//    short counts; socket writes use MSG_NOSIGNAL so a vanished client
//    yields an error return instead of SIGPIPE.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace uic {
namespace serve {

/// \brief Newline-delimited message channel over a (read fd, write fd)
/// pair — stdin/stdout in pipe mode, the same socket twice in TCP mode.
/// Does not own the descriptors.
class FdLineChannel {
 public:
  /// `socket_fds`: the descriptors are sockets (write with MSG_NOSIGNAL).
  FdLineChannel(int read_fd, int write_fd, bool socket_fds = false)
      : read_fd_(read_fd), write_fd_(write_fd), socket_fds_(socket_fds) {}

  /// Longest line ReadLine accepts, newline excluded. Requests carry specs,
  /// never edge lists, so no legitimate line comes near it.
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;

  /// Read the next line into `*line` (newline stripped). Returns false on
  /// EOF, on a read error, or — checked roughly every 100 ms — when
  /// `*stop` becomes true. A final unterminated line is delivered before
  /// EOF is reported. A line longer than kMaxLineBytes also returns false
  /// and sets line_too_long(); the channel then reads nothing more.
  bool ReadLine(std::string* line, const std::atomic<bool>* stop = nullptr);

  /// True once ReadLine has met a line longer than kMaxLineBytes.
  bool line_too_long() const { return line_too_long_; }

  /// Write `line` plus '\n', looping over partial writes. False on error
  /// (e.g. the peer is gone).
  bool WriteLine(const std::string& line);

  /// Write `data` exactly as given (no framing) — the metrics HTTP
  /// responder's path, which needs CRLF headers rather than line framing.
  bool WriteRaw(const std::string& data);

 private:
  bool WriteAll(const std::string& data);

  int read_fd_;
  int write_fd_;
  bool socket_fds_;
  std::string buffer_;  ///< bytes read past the last returned line
  size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
  bool eof_ = false;
  bool line_too_long_ = false;
};

/// \brief An accepted TCP connection (owns the fd; move-only).
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(int fd) : fd_(fd) {}
  TcpConnection(TcpConnection&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  TcpConnection& operator=(TcpConnection&& o) noexcept;
  ~TcpConnection() { Close(); }

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// \brief Loopback (127.0.0.1) TCP listener. Owns the listening fd.
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(TcpListener&& o) noexcept : fd_(o.fd_), port_(o.port_) {
    o.fd_ = -1;
  }
  TcpListener& operator=(TcpListener&& o) noexcept;
  ~TcpListener() { Close(); }

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind and listen on 127.0.0.1:`port` (0 = kernel-assigned; read the
  /// result back from port()).
  [[nodiscard]] static Result<TcpListener> Listen(uint16_t port);

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Accept one connection, polling so `stop` is observed within ~100 ms.
  /// Returns an invalid connection (valid() == false) on stop — that is
  /// the normal shutdown path, not an error — and a Status only on a real
  /// accept failure.
  [[nodiscard]] Result<TcpConnection> Accept(const std::atomic<bool>& stop);

  /// Connect to 127.0.0.1:`port` — the test-client side.
  [[nodiscard]] static Result<TcpConnection> Connect(uint16_t port);

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace serve
}  // namespace uic
