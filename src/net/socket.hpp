#pragma once

/// \file
/// Thin POSIX TCP helpers for the network edge: an RAII fd wrapper plus
/// listen/connect/IO utilities. Errors travel through the Status/Result
/// channel (api/status.hpp) as kIoError — the net module never throws for
/// socket failures. All sends use MSG_NOSIGNAL so a peer that closed
/// mid-write produces an error return, not SIGPIPE.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/status.hpp"

namespace dbsp::net {

/// Move-only owner of one file descriptor; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (port 0 = kernel-assigned ephemeral
/// port; read it back with local_port). The socket is SO_REUSEADDR.
[[nodiscard]] Result<Socket> tcp_listen(const std::string& host, std::uint16_t port,
                                        int backlog);

/// Blocking connect with a timeout. The returned socket is in blocking
/// mode with TCP_NODELAY set (the protocol is request/response-y; Nagle
/// only adds latency).
[[nodiscard]] Result<Socket> tcp_connect(const std::string& host,
                                         std::uint16_t port, int timeout_ms);

/// The locally bound port of a socket (the ephemeral-port readback).
[[nodiscard]] Result<std::uint16_t> local_port(int fd);

Status set_nonblocking(int fd, bool on);

/// Blocking write of the whole buffer (EINTR-retrying). kIoError on any
/// failure, including the peer closing mid-write.
Status send_all(int fd, std::span<const std::uint8_t> bytes);

/// The write queue of one non-blocking socket: bytes are appended at the
/// back and send_pending() sends from the front. The lifetime totals tell
/// an owner when a given queued byte has entered the socket.
class OutBuffer {
 public:
  void append(std::span<const std::uint8_t> bytes);
  /// Drops the first `n` pending bytes (they were sent).
  void consume(std::size_t n) {
    pos_ += n;
    total_sent_ += n;
  }
  [[nodiscard]] std::span<const std::uint8_t> pending_bytes() const {
    return {bytes_.data() + pos_, pending()};
  }
  [[nodiscard]] std::size_t pending() const { return bytes_.size() - pos_; }
  [[nodiscard]] std::uint64_t total_queued() const { return total_queued_; }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;  ///< sent prefix of bytes_
  std::uint64_t total_queued_ = 0;
  std::uint64_t total_sent_ = 0;
};

/// The non-blocking send loop: sends as much of `out` as the socket takes
/// now (EINTR retried, EAGAIN stops) and returns the byte count. kIoError
/// when the peer is gone.
[[nodiscard]] Result<std::size_t> send_pending(int fd, OutBuffer& out);

/// Waits up to timeout_ms for the fd to become readable. Returns 1 when
/// readable, 0 on timeout; kIoError otherwise. timeout_ms < 0 waits
/// forever.
[[nodiscard]] Result<int> wait_readable(int fd, int timeout_ms);

/// One blocking read into `out`; returns the byte count (0 = clean EOF).
[[nodiscard]] Result<std::size_t> recv_some(int fd, std::span<std::uint8_t> out);

}  // namespace dbsp::net
