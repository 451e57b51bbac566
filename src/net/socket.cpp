#include "net/socket.hpp"

#include <stdexcept>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define AROPUF_NET_POSIX 1
#endif

namespace aropuf::net {

#if defined(AROPUF_NET_POSIX)

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

/// Marks `fd` close-on-exec (portable: macOS has no SOCK_CLOEXEC).
void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD) | FD_CLOEXEC); }

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::send_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE on this call, not
    // as a process-wide SIGPIPE that kills the coordinator.
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t Socket::recv_some(void* buf, std::size_t size) {
  while (true) {
    const ssize_t n = ::recv(fd_, buf, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_connect(const std::string& host, std::uint16_t port, double timeout_s) {
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("net: cannot resolve " + host + ": " + ::gai_strerror(rc));
  }
  std::string last_error = "no addresses";
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    set_cloexec(fd);
    // Non-blocking connect bounded by poll: a dead coordinator address fails
    // in timeout_s, not in the kernel's multi-minute SYN retry budget.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (crc < 0 && errno == EINPROGRESS) {
      struct pollfd pfd{fd, POLLOUT, 0};
      const int prc = ::poll(&pfd, 1, static_cast<int>(timeout_s * 1000.0));
      if (prc > 0) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        crc = err == 0 ? 0 : -1;
        if (err != 0) last_error = std::strerror(err);
      } else {
        crc = -1;
        last_error = prc == 0 ? "connection timed out" : std::strerror(errno);
      }
    } else if (crc < 0) {
      last_error = std::strerror(errno);
    }
    if (crc == 0) {
      ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::freeaddrinfo(res);
      return Socket(fd);
    }
    ::close(fd);
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("net: cannot connect to " + host + ":" + std::to_string(port) +
                           ": " + last_error);
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Listener Listener::listen_on(std::uint16_t port, bool loopback_only) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  set_cloexec(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind to port " + std::to_string(port));
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("listen");
  }
  struct sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("getsockname");
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Socket Listener::accept_connection() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      fail("accept");
    }
    set_cloexec(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Socket(fd);
  }
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

#else  // !AROPUF_NET_POSIX — stubs so targets link; every entry point throws.

namespace {
[[noreturn]] void unavailable() {
  throw std::runtime_error(
      "net: TCP transport requires POSIX sockets (unavailable on this platform); "
      "run aropuf_shard without --listen or --worker for single-host sharded runs");
}
}  // namespace

Socket::~Socket() { close(); }
Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
Socket& Socket::operator=(Socket&& other) noexcept {
  fd_ = other.fd_;
  other.fd_ = -1;
  return *this;
}
void Socket::send_all(const void*, std::size_t) { unavailable(); }
std::size_t Socket::recv_some(void*, std::size_t) { unavailable(); }
void Socket::close() noexcept { fd_ = -1; }

Socket tcp_connect(const std::string&, std::uint16_t, double) { unavailable(); }

Listener::~Listener() { close(); }
Listener::Listener(Listener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}
Listener& Listener::operator=(Listener&& other) noexcept {
  fd_ = other.fd_;
  port_ = other.port_;
  other.fd_ = -1;
  return *this;
}
Listener Listener::listen_on(std::uint16_t, bool) { unavailable(); }
Socket Listener::accept_connection() { unavailable(); }
void Listener::close() noexcept { fd_ = -1; }

#endif  // AROPUF_NET_POSIX

}  // namespace aropuf::net
