// Fabric wire protocol: framed, CRC-checked messages between the campaign
// coordinator and its workers.
//
// The fabric shards one campaign's attempt-index space across worker
// processes (FINJ-style orchestration; see docs/FABRIC.md). The protocol
// is deliberately tiny: one fixed-field message struct, length-prefixed
// frames checksummed with the same CRC-32 the journal uses, over a UNIX
// or TCP stream socket. Everything here runs off the per-trial hot path —
// a worker touches the socket only from the scheduler tick, never inside
// a trial (the ZOFI design point: orchestration cost must not tax the
// trial loop).
//
// Frame layout (integers little-endian, the journal's frame):
//   u32 payload_size | payload | u32 crc32(payload)
// Payload: u8 type, then the fixed u64 fields, then u32 text_len + text.
//
// No frame carries outcome counts. A LeaseDone carries the per-attempt
// detail of its range (fabric/stats.hpp), and the coordinator derives every
// tally it reports from those details alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace phifi::fabric {

// phicheck:exhaustive-switch — adding a frame type must be visible at every
// dispatch site; defaults are reserved for out-of-range bytes off the wire.
enum class MsgType : std::uint8_t {
  kHello = 1,     ///< worker → coordinator: fingerprint + optional lease claim
  kWelcome,       ///< coordinator → worker: assigned worker id
  kReject,        ///< coordinator → worker: handshake refused (text = reason)
  kLeaseRequest,  ///< worker → coordinator: give me a range
  kLeaseGrant,    ///< coordinator → worker: lease_id covers [begin, end)
  kLeaseRevoke,   ///< coordinator → worker: abandon lease_id (reclaimed)
  kLeaseDone,     ///< worker → coordinator: lease_id finished (text = detail)
  kHeartbeat,     ///< worker → coordinator: lease liveness (lease 0 between
                  ///< leases) + observability snapshot (text)
  kShutdown,      ///< coordinator → worker: campaign over, exit
  kGoodbye,       ///< worker → coordinator: leaving voluntarily
};

std::string_view to_string(MsgType type);

/// One protocol message. A fixed field set keeps (de)serialization dumb:
/// unused fields ride along as zero.
struct Message {
  MsgType type = MsgType::kHello;
  std::uint64_t worker = 0;       ///< worker id (0 in a first HELLO)
  std::uint64_t fingerprint = 0;  ///< campaign fingerprint (HELLO)
  std::uint64_t lease = 0;        ///< lease id
  std::uint64_t begin = 0;        ///< lease range start (inclusive)
  std::uint64_t end = 0;          ///< lease range end (exclusive)
  std::uint64_t run = 0;          ///< campaign run id (WELCOME → worker)
  std::string text;               ///< reject reason / snapshot / lease detail
};

/// Serializes one message into a complete frame.
std::vector<std::uint8_t> encode_message(const Message& message);

/// Extracts one complete frame from the front of `buffer`, consuming it.
/// Returns false when the buffer holds no complete frame yet. Throws
/// std::runtime_error on a corrupt frame (bad CRC or absurd size) — a
/// stream that desynchronized cannot be trusted further.
bool decode_message(std::vector<std::uint8_t>& buffer, Message* out);

/// Fabric endpoint address: "unix:/path/to.sock" or "tcp:host:port".
struct Address {
  bool is_unix = true;
  std::string path;  ///< UNIX socket path
  std::string host;  ///< TCP host
  std::uint16_t port = 0;
};

/// Parses an address spec; throws std::runtime_error on a malformed one.
Address parse_address(const std::string& spec);

/// Binds + listens (unlinking a stale UNIX socket path first). Throws on
/// failure. The returned fd is nonblocking and close-on-exec.
int listen_on(const Address& address);

/// One connect attempt. Returns the connected fd (nonblocking, CLOEXEC) or
/// -1 on failure — the caller owns the retry/backoff policy. A pending TCP
/// connect is waited on for at most `timeout_ms`.
int connect_to(const Address& address, int timeout_ms = 1000);

/// Accepts one pending connection; -1 when none is waiting.
int accept_on(int listen_fd);

/// A buffered framed-message stream over a nonblocking socket.
class Connection {
 public:
  explicit Connection(int fd);  ///< takes ownership of the fd
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes one frame. Small messages on a healthy socket never block;
  /// a full send buffer is waited out briefly. Returns false once the
  /// connection is dead (peer gone, write error).
  bool send(const Message& message);

  /// Reads whatever bytes are available into the inbound buffer. Returns
  /// false on EOF or a read error (the connection is dead; buffered
  /// complete frames are still poppable via next()).
  bool pump();

  /// Pops the next complete inbound frame. Returns false when none is
  /// buffered. Throws std::runtime_error on a corrupt frame.
  bool next(Message* out);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool alive() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> inbound_;
};

}  // namespace phifi::fabric
