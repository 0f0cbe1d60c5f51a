#include "loadgen.h"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <thread>

namespace perfbench {

using bytebrain::Status;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

class Socket {
 public:
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::IOError(std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return Status::OK();
  }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace

ConnResult DriveConnection(uint16_t port, Source* source,
                           uint64_t deadline_ns) {
  ConnResult result;
  Socket sock;
  result.status = sock.Connect(port);
  if (!result.status.ok()) return result;

  std::deque<Request> inflight;
  std::string wbuf;
  size_t wpos = 0;
  std::string rbuf;
  size_t rpos = 0;
  char chunk[1 << 16];
  result.lateness_us.reserve(1 << 16);

  while (true) {
    const uint64_t now = NowNs();
    if (now > deadline_ns) {
      result.status = Status::Aborted("connection deadline passed");
      return result;
    }
    uint64_t wake = now + 100'000'000;
    Request req;
    while (source->Next(now, inflight.size(), &req, &wake)) {
      result.lateness_us.push_back(
          now > req.due_ns ? static_cast<double>(now - req.due_ns) / 1e3 : 0);
      wbuf.append(req.frame);
      req.sent_ns = now;
      req.frame = {};
      req.owned.clear();
      inflight.push_back(std::move(req));
      ++result.sent;
      req = Request();
    }
    if (inflight.empty() && wpos == wbuf.size() && source->Exhausted(now)) {
      return result;
    }

    pollfd pfd{sock.fd(), POLLIN, 0};
    if (wpos < wbuf.size()) pfd.events |= POLLOUT;
    const uint64_t wait_ns = wake > now ? wake - now : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      result.status = Status::IOError(std::strerror(errno));
      return result;
    }
    if (ready <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      result.status = Status::IOError("socket error");
      return result;
    }
    if ((pfd.revents & POLLOUT) != 0) {
      while (wpos < wbuf.size()) {
        const ssize_t n = ::send(sock.fd(), wbuf.data() + wpos,
                                 wbuf.size() - wpos, MSG_NOSIGNAL);
        if (n > 0) {
          wpos += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          result.status = Status::IOError("send failed");
          return result;
        }
      }
      if (wpos == wbuf.size()) {
        wbuf.clear();
        wpos = 0;
      }
    }
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
      bool closed = false;
      while (true) {
        const ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
        if (n > 0) {
          rbuf.append(chunk, static_cast<size_t>(n));
        } else if (n == 0) {
          closed = true;
          break;
        } else {
          break;
        }
      }
      const uint64_t recv_ns = NowNs();
      while (rbuf.size() - rpos >= 4) {
        uint32_t len = 0;
        for (int i = 0; i < 4; ++i) {
          len |= static_cast<uint32_t>(static_cast<uint8_t>(rbuf[rpos + i]))
                 << (8 * i);
        }
        if (rbuf.size() - rpos - 4 < len) break;
        if (inflight.empty()) {
          result.status = Status::IOError("response without a request");
          return result;
        }
        source->OnResponse(inflight.front(),
                           std::string_view(rbuf).substr(rpos + 4, len),
                           recv_ns);
        inflight.pop_front();
        ++result.received;
        rpos += 4 + len;
      }
      if (rpos > 0 && rpos * 2 >= rbuf.size()) {
        rbuf.erase(0, rpos);
        rpos = 0;
      }
      if (closed) {
        result.status = Status::IOError("server closed the connection");
        return result;
      }
    }
  }
}

std::vector<ConnResult> DriveAll(uint16_t port,
                                 const std::vector<Source*>& sources,
                                 uint64_t deadline_ns) {
  std::vector<ConnResult> results(sources.size());
  std::vector<std::thread> threads;
  threads.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = DriveConnection(port, sources[i], deadline_ns);
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

}  // namespace perfbench
