// Minimal TCP primitives for the fleet transport (POSIX sockets).
//
// Deliberately thin: blocking sockets plus poll()-based readiness is all the
// coordinator's single-threaded event loop needs, and every byte that crosses
// a socket goes through net/frame.hpp — no protocol logic lives here.
// Failures throw std::runtime_error with errno text; orderly peer close
// surfaces as a zero-byte recv, never an exception, so disconnects route
// through the coordinator's reassignment path rather than its error path.
//
// Platform: POSIX only.  On _WIN32 the header still compiles (so targets that
// merely link aropuf_net build everywhere) but every entry point throws;
// aropuf_shard without --listen or --worker (in-process shards, no sockets)
// is the supported Windows story.
//
// Every descriptor created here is close-on-exec, so a process that execs
// another never leaks its listener or its connections into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace aropuf::net {

/// Movable owner of one connected TCP socket.
class Socket {
 public:
  /// An invalid (unconnected) socket; valid() is false.
  Socket() = default;
  /// Adopts an already-connected file descriptor.
  explicit Socket(int fd) : fd_(fd) {}
  /// Closes the descriptor if still owned.
  ~Socket();
  /// Transfers ownership; `other` becomes invalid.
  Socket(Socket&& other) noexcept;
  /// Transfers ownership, closing any descriptor previously held.
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// True while an open descriptor is owned.
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// The raw descriptor (for poll()); -1 when invalid.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Sends the whole buffer (looping over short writes).  Throws
  /// std::runtime_error when the peer is gone or the socket errors.
  void send_all(const void* data, std::size_t size);
  /// Convenience overload sending a whole string.
  void send_all(const std::string& bytes) { send_all(bytes.data(), bytes.size()); }

  /// Receives whatever is available, up to `size` bytes.  Returns 0 on
  /// orderly peer close; throws std::runtime_error on socket errors.
  [[nodiscard]] std::size_t recv_some(void* buf, std::size_t size);

  /// Closes the descriptor now (idempotent); valid() becomes false.
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Connects to host:port with a bounded wait.  Throws std::runtime_error on
/// resolution or connection failure.
[[nodiscard]] Socket tcp_connect(const std::string& host, std::uint16_t port,
                                 double timeout_s);

/// Listening TCP endpoint on the IPv4 wildcard address or on 127.0.0.1.
class Listener {
 public:
  /// Binds and listens on `port` (0 = kernel-assigned ephemeral port, read it
  /// back via port()): on 127.0.0.1 when `loopback_only` (a coordinator that
  /// serves only workers it started itself), on every interface otherwise.
  /// Throws std::runtime_error on failure.
  [[nodiscard]] static Listener listen_on(std::uint16_t port, bool loopback_only);

  /// An invalid (unbound) listener; valid() is false.
  Listener() = default;
  /// Closes the listening descriptor if still owned.
  ~Listener();
  /// Transfers ownership; `other` becomes invalid.
  Listener(Listener&& other) noexcept;
  /// Transfers ownership, closing any descriptor previously held.
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// True while an open listening descriptor is owned.
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// The raw descriptor (for poll()); -1 when invalid.
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The actually bound port (resolves port 0 to the kernel's choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts one pending connection.  Throws std::runtime_error on failure;
  /// call only after the fd polled readable.
  [[nodiscard]] Socket accept_connection();

  /// Closes the listening descriptor now (idempotent).
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace aropuf::net
