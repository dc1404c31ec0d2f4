#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dbsp::net {

namespace {

Status io_error(const std::string& what) {
  return Status::error(ErrorCode::kIoError,
                       what + ": " + std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

Result<sockaddr_in> parse_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string node = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "not an IPv4 address: " + node);
  }
  return addr;
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> tcp_listen(const std::string& host, std::uint16_t port,
                          int backlog) {
  auto addr = parse_addr(host, port);
  if (!addr.ok()) return addr.status();
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return io_error("socket");
  const int one = 1;
  (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) != 0) {
    return io_error("bind");
  }
  if (::listen(sock.fd(), backlog) != 0) return io_error("listen");
  return sock;
}

Result<Socket> tcp_connect(const std::string& host, std::uint16_t port,
                           int timeout_ms) {
  auto addr = parse_addr(host, port);
  if (!addr.ok()) return addr.status();
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return io_error("socket");
  // Connect non-blocking so the timeout is enforceable, then flip back.
  if (const Status s = set_nonblocking(sock.fd(), true); !s.ok()) return s;
  const int rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr.value()),
                           sizeof(sockaddr_in));
  if (rc != 0 && errno != EINPROGRESS) return io_error("connect");
  if (rc != 0) {
    pollfd pfd{sock.fd(), POLLOUT, 0};
    int prc = 0;
    do {
      prc = ::poll(&pfd, 1, timeout_ms);
    } while (prc < 0 && errno == EINTR);
    if (prc < 0) return io_error("poll");
    if (prc == 0) {
      return Status::error(ErrorCode::kUnavailable, "connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return io_error("getsockopt");
    }
    if (err != 0) {
      errno = err;
      return io_error("connect");
    }
  }
  if (const Status s = set_nonblocking(sock.fd(), false); !s.ok()) return s;
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

Result<std::uint16_t> local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return io_error("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Status set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return io_error("fcntl(F_GETFL)");
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) != 0) return io_error("fcntl(F_SETFL)");
  return Status();
}

Status send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status();
}

void OutBuffer::append(std::span<const std::uint8_t> bytes) {
  // Compact the sent prefix before it dominates the buffer.
  if (pos_ > 0 && (pos_ == bytes_.size() || pos_ >= 64 * 1024)) {
    bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  total_queued_ += bytes.size();
}

Result<std::size_t> send_pending(int fd, OutBuffer& out) {
  std::size_t sent = 0;
  while (out.pending() > 0) {
    const auto bytes = out.pending_bytes();
    const ssize_t n =
        ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      out.consume(static_cast<std::size_t>(n));
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n == 0 || errno != EINTR) {
      return io_error("send");
    }
  }
  return sent;
}

Result<int> wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc = 0;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return io_error("poll");
  return rc > 0 ? 1 : 0;
}

Result<std::size_t> recv_some(int fd, std::span<std::uint8_t> out) {
  while (true) {
    const ssize_t n = ::recv(fd, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno != EINTR) return io_error("recv");
  }
}

}  // namespace dbsp::net
