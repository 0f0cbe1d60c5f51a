// The benchmark's load generator: one thread drives one loopback TCP
// connection to the TcpServer, speaking the server's frame format
// ([u32 length LE][envelope]) on a nonblocking socket.
//
// A Source decides what to send and when. Closed-loop sources keep a
// fixed window of requests in flight; open-loop sources send on a fixed
// schedule whatever the server does, and a request is timed from when
// it was due, so a stall counts against every request queued behind it.
// The loop also records how late it noticed each due request — the
// generator's own lag, which says whether the offered load was really
// offered.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace perfbench {

uint64_t NowNs();

struct Request {
  /// When the request was due (the latency clock starts here).
  uint64_t due_ns = 0;
  /// When the loop queued it on the socket (set by the loop).
  uint64_t sent_ns = 0;
  /// Complete frame to send; points into `owned` or into the corpus.
  std::string_view frame;
  std::string owned;
  /// Source-defined correlation data.
  uint64_t tag = 0;
};

class Source {
 public:
  virtual ~Source() = default;
  /// Fills *out and returns true when a request is due at `now_ns`.
  /// Otherwise returns false and lowers *wake_ns to the time the next
  /// request falls due (leave it alone when only a response can unblock
  /// the source).
  virtual bool Next(uint64_t now_ns, size_t inflight, Request* out,
                    uint64_t* wake_ns) = 0;
  /// The response envelope to `req`, received at `recv_ns`.
  virtual void OnResponse(const Request& req, std::string_view envelope,
                          uint64_t recv_ns) = 0;
  /// True once the source will issue nothing more.
  virtual bool Exhausted(uint64_t now_ns) const = 0;
};

struct ConnResult {
  uint64_t sent = 0;
  uint64_t received = 0;
  /// How late the loop noticed each due request, in microseconds.
  std::vector<double> lateness_us;
  bytebrain::Status status;
};

/// Connects to 127.0.0.1:`port` and runs `source` until it is exhausted
/// and every response has arrived, or `deadline_ns` passes (an error).
ConnResult DriveConnection(uint16_t port, Source* source,
                           uint64_t deadline_ns);

/// Runs each source on its own thread and connection; returns when all
/// are done.
std::vector<ConnResult> DriveAll(uint16_t port,
                                 const std::vector<Source*>& sources,
                                 uint64_t deadline_ns);

}  // namespace perfbench
