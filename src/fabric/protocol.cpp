#include "fabric/protocol.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/campaign_journal.hpp"  // the journal's codec and frame
#include "util/posix_io.hpp"

namespace phifi::fabric {

namespace {

/// Guards against a desynchronized stream asking us to buffer gigabytes:
/// most frames are ~100 bytes, but a LeaseDone carries the per-attempt
/// outcome detail for its whole range, so the cap is generous.
constexpr std::uint32_t kMaxFrame = 1 << 20;

/// u8 type, six u64 fields, u32 text length.
constexpr std::uint32_t kFixedPayload = 1 + 6 * 8 + 4;

void make_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, ::fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

}  // namespace

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kReject: return "reject";
    case MsgType::kLeaseRequest: return "lease-request";
    case MsgType::kLeaseGrant: return "lease-grant";
    case MsgType::kLeaseRevoke: return "lease-revoke";
    case MsgType::kLeaseDone: return "lease-done";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kGoodbye: return "goodbye";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_message(const Message& message) {
  std::vector<std::uint8_t> payload;
  payload.reserve(kFixedPayload + message.text.size());
  payload.push_back(static_cast<std::uint8_t>(message.type));
  fi::put_u64(payload, message.worker);
  fi::put_u64(payload, message.fingerprint);
  fi::put_u64(payload, message.lease);
  fi::put_u64(payload, message.begin);
  fi::put_u64(payload, message.end);
  fi::put_u64(payload, message.run);
  fi::put_u32(payload, static_cast<std::uint32_t>(message.text.size()));
  payload.insert(payload.end(), message.text.begin(), message.text.end());
  return fi::journal_frame(payload);
}

bool decode_message(std::vector<std::uint8_t>& buffer, Message* out) {
  if (buffer.size() < 4) return false;
  const std::uint32_t size = fi::get_u32(buffer.data());
  if (size < kFixedPayload || size > kMaxFrame) {
    throw std::runtime_error("fabric: corrupt frame (size " +
                             std::to_string(size) + ")");
  }
  if (buffer.size() < 4 + static_cast<std::size_t>(size) + 4) return false;
  const std::uint8_t* payload = buffer.data() + 4;
  if (fi::get_u32(payload + size) != fi::journal_crc32(payload, size)) {
    throw std::runtime_error("fabric: corrupt frame (bad checksum)");
  }
  Message message;
  message.type = static_cast<MsgType>(payload[0]);
  message.worker = fi::get_u64(payload + 1);
  message.fingerprint = fi::get_u64(payload + 9);
  message.lease = fi::get_u64(payload + 17);
  message.begin = fi::get_u64(payload + 25);
  message.end = fi::get_u64(payload + 33);
  message.run = fi::get_u64(payload + 41);
  const std::uint32_t text_len = fi::get_u32(payload + 49);
  if (kFixedPayload + static_cast<std::size_t>(text_len) != size) {
    throw std::runtime_error("fabric: corrupt frame (bad text length)");
  }
  message.text.assign(reinterpret_cast<const char*>(payload + kFixedPayload),
                      text_len);
  buffer.erase(buffer.begin(),
               buffer.begin() + 4 + static_cast<std::size_t>(size) + 4);
  *out = std::move(message);
  return true;
}

Address parse_address(const std::string& spec) {
  Address address;
  if (spec.rfind("unix:", 0) == 0) {
    address.is_unix = true;
    address.path = spec.substr(5);
    if (address.path.empty()) {
      throw std::runtime_error("fabric: empty unix socket path in '" + spec +
                               "'");
    }
    if (address.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("fabric: unix socket path too long in '" +
                               spec + "'");
    }
    return address;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    address.is_unix = false;
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
      throw std::runtime_error("fabric: expected tcp:host:port, got '" +
                               spec + "'");
    }
    address.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long value = std::strtol(port.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || value <= 0 || value > 65535) {
      throw std::runtime_error("fabric: bad port '" + port + "' in '" +
                               spec + "'");
    }
    address.port = static_cast<std::uint16_t>(value);
    return address;
  }
  throw std::runtime_error(
      "fabric: address must be unix:PATH or tcp:HOST:PORT, got '" + spec +
      "'");
}

int listen_on(const Address& address) {
  int fd = -1;
  if (address.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("fabric: socket: ") +
                               std::strerror(errno));
    }
    // A previous coordinator's stale socket file would make bind fail; a
    // restarted coordinator must be able to re-bind its address.
    ::unlink(address.path.c_str());
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(),
                 sizeof(sa.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error("fabric: bind '" + address.path +
                               "': " + std::strerror(saved));
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("fabric: socket: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("fabric: bad listen host '" + address.host +
                               "' (use a numeric address)");
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error("fabric: bind " + address.host + ":" +
                               std::to_string(address.port) + ": " +
                               std::strerror(saved));
    }
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("fabric: listen: ") +
                             std::strerror(saved));
  }
  make_nonblocking_cloexec(fd);
  return fd;
}

int connect_to(const Address& address, int timeout_ms) {
  int fd = -1;
  sockaddr_storage storage{};
  socklen_t len = 0;
  if (address.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    auto* sa = reinterpret_cast<sockaddr_un*>(&storage);
    sa->sun_family = AF_UNIX;
    std::strncpy(sa->sun_path, address.path.c_str(),
                 sizeof(sa->sun_path) - 1);
    len = sizeof(sockaddr_un);
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    auto* sa = reinterpret_cast<sockaddr_in*>(&storage);
    sa->sin_family = AF_INET;
    sa->sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &sa->sin_addr) != 1) {
      // Fall back to a resolver for names like "localhost".
      addrinfo hints{};
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      addrinfo* info = nullptr;
      // phicheck:blocking-ok(worker-side reconnect path, coordinator reaches it only by name-union on tick/ensure_link; numeric hosts short-circuit above, so the resolver runs once per worker start for names like localhost)
      if (::getaddrinfo(address.host.c_str(),
                        std::to_string(address.port).c_str(), &hints,
                        &info) != 0 ||
          info == nullptr) {
        if (fd >= 0) ::close(fd);
        return -1;
      }
      std::memcpy(&storage, info->ai_addr, info->ai_addrlen);
      ::freeaddrinfo(info);
    }
    len = sizeof(sockaddr_in);
  }
  if (fd < 0) return -1;
  make_nonblocking_cloexec(fd);
  // phicheck:allow(eintr) nonblocking connect: EINTR means the handshake continues asynchronously, exactly like EINPROGRESS — both resolve via poll + SO_ERROR below
  if (::connect(  // phicheck:blocking-ok(socket is O_NONBLOCK: connect returns EINPROGRESS immediately; completion is polled below with a bounded timeout)
          fd, reinterpret_cast<sockaddr*>(&storage), len) == 0) {
    return fd;
  }
  if (errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    return -1;
  }
  // Nonblocking connect in flight: wait bounded, then check SO_ERROR.
  pollfd waiter{fd, POLLOUT, 0};
  const int ready = util::io::poll_retry(&waiter, 1, timeout_ms);
  if (ready <= 0) {
    ::close(fd);
    return -1;
  }
  int error = 0;
  socklen_t error_len = sizeof(error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) < 0 ||
      error != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int accept_on(int listen_fd) {
  const int fd = util::io::accept_retry(listen_fd);
  if (fd < 0) return -1;
  make_nonblocking_cloexec(fd);
  return fd;
}

Connection::Connection(int fd) : fd_(fd) {}

Connection::~Connection() { close(); }

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::send(const Message& message) {
  if (fd_ < 0) return false;
  const std::vector<std::uint8_t> frame = encode_message(message);
  const std::uint8_t* data = frame.data();
  std::size_t remaining = frame.size();
  while (remaining > 0) {
    const ssize_t n = util::io::send_some(fd_, data, remaining, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      remaining -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Frames are tiny; a full send buffer means the peer stopped
      // draining. Wait briefly rather than dropping the message.
      pollfd waiter{fd_, POLLOUT, 0};
      if (util::io::poll_retry(&waiter, 1, 1000) > 0) continue;
    }
    // A failed send usually means the peer hung up — but frames it sent
    // before closing (a coordinator's kShutdown racing our request) may
    // still be readable. Salvage them into inbound_ so next() can pop
    // them after the link is down; closing blind would lose them.
    pump();
    close();
    return false;
  }
  return true;
}

bool Connection::pump() {
  if (fd_ < 0) return false;
  while (true) {
    std::uint8_t chunk[4096];
    const ssize_t n = util::io::recv_some(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      inbound_.insert(inbound_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      close();
      return false;  // EOF
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    close();
    return false;
  }
}

bool Connection::next(Message* out) { return decode_message(inbound_, out); }

}  // namespace phifi::fabric
