#include "src/service/socket_io.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace eas {
namespace {

RequestError IoError(std::string message) {
  RequestError error;
  error.code = RequestErrorCode::kIo;
  error.message = std::move(message);
  return error;
}

// Fills a sockaddr_un for `path`; false if the path does not fit (sun_path
// is ~108 bytes - long TMPDIRs can exceed it).
bool FillAddress(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

Expected<UnixServerSocket> UnixServerSocket::Bind(const std::string& path) {
  sockaddr_un addr;
  if (!FillAddress(path, &addr)) {
    return IoError("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError("socket(): " + std::string(std::strerror(errno)));
  }
  // A stale file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; replace it.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return IoError("bind(" + path + "): " + detail);
  }
  if (::listen(fd, 64) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return IoError("listen(" + path + "): " + detail);
  }
  return UnixServerSocket(fd, path);
}

UnixServerSocket::UnixServerSocket(UnixServerSocket&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

UnixServerSocket::~UnixServerSocket() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

std::optional<int> UnixServerSocket::Accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) {
    return std::nullopt;
  }
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    return std::nullopt;
  }
  return client;
}

Expected<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  if (!FillAddress(path, &addr)) {
    return IoError("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError("socket(): " + std::string(std::strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return IoError("connect(" + path + "): " + detail + " (is the service running?)");
  }
  return fd;
}

LineChannel::LineChannel(LineChannel&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      scanned_(other.scanned_),
      line_too_long_(other.line_too_long_) {
  other.fd_ = -1;
  other.scanned_ = 0;
}

LineChannel::~LineChannel() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool LineChannel::ReadLine(std::string* line) {
  while (!line_too_long_) {
    // Only the bytes appended since the last scan can hold the terminator.
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos && newline <= kMaxLineBytes) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return true;
    }
    if (newline != std::string::npos || buffer_.size() > kMaxLineBytes) {
      line_too_long_ = true;
      buffer_.clear();
      buffer_.shrink_to_fit();
      return false;
    }
    scanned_ = buffer_.size();
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (got == 0) {
      // EOF: hand a trailing unterminated fragment to the caller once.
      if (!buffer_.empty()) {
        *line = std::move(buffer_);
        buffer_.clear();
        scanned_ = 0;
        return true;
      }
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
  return false;
}

bool LineChannel::WriteLine(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE here instead of
    // killing the process with SIGPIPE.
    const ssize_t wrote =
        ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace eas
