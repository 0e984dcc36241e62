// Minimal Unix-domain stream sockets for the experiment service.
//
// The service listens on a filesystem socket path - local-only by
// construction (no TCP port to firewall), access-controlled by directory
// permissions, and trivially namespaced per test via TMPDIR. This header
// wraps the raw fd plumbing in three small pieces:
//
//   UnixServerSocket   bind+listen on a path (stale socket files from a
//                      crashed predecessor are unlinked first); Accept with
//                      a poll timeout so the accept loop can observe a stop
//                      flag; unlinks the path on destruction
//   ConnectUnix        client connect, as a plain fd
//   LineChannel        newline-framed reads/writes over an fd: ReadLine
//                      buffers partial reads up to a line-length cap,
//                      WriteLine loops partial writes. Framing only -
//                      message semantics live in wire.h
//
// Everything reports failure as RequestError (code kIo) so transport and
// request errors flow through the same client-facing type.

#ifndef SRC_SERVICE_SOCKET_IO_H_
#define SRC_SERVICE_SOCKET_IO_H_

#include <cstddef>
#include <optional>
#include <string>

#include "src/api/request_error.h"

namespace eas {

class UnixServerSocket {
 public:
  // Binds and listens on `path`; an existing socket file there is replaced
  // (a daemon that crashed leaves one behind).
  static Expected<UnixServerSocket> Bind(const std::string& path);

  UnixServerSocket(UnixServerSocket&& other) noexcept;
  UnixServerSocket& operator=(UnixServerSocket&&) = delete;
  UnixServerSocket(const UnixServerSocket&) = delete;
  ~UnixServerSocket();

  // Waits up to `timeout_ms` for a connection; the connected fd, or nullopt
  // on timeout (the accept loop's chance to check its stop flag) or error.
  std::optional<int> Accept(int timeout_ms);

  const std::string& path() const { return path_; }

 private:
  UnixServerSocket(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

// Connects to the server socket at `path`; the fd on success.
Expected<int> ConnectUnix(const std::string& path);

// Newline-framed line I/O over a connected fd. Owns and closes the fd.
// ReadLine is single-reader; WriteLine is not internally locked - callers
// with concurrent writers (the server's record streaming) serialize with
// their own mutex.
class LineChannel {
 public:
  // Longest line ReadLine accepts, terminator excluded: far above any
  // request or record line, and small enough that a peer streaming bytes
  // without a newline cannot grow the buffer without bound.
  static constexpr std::size_t kMaxLineBytes = 1 << 20;

  explicit LineChannel(int fd) : fd_(fd) {}
  LineChannel(LineChannel&& other) noexcept;
  LineChannel& operator=(LineChannel&&) = delete;
  LineChannel(const LineChannel&) = delete;
  ~LineChannel();

  // Reads the next '\n'-terminated line (terminator stripped); false on
  // EOF or error (a final unterminated fragment is delivered first), and
  // from then on once a line exceeds kMaxLineBytes (see line_too_long()).
  bool ReadLine(std::string* line);

  // True once ReadLine has refused an over-long line. The stream is then
  // mid-line with no way to resynchronize, so the channel stays failed.
  bool line_too_long() const { return line_too_long_; }

  // Writes `line` plus the '\n' frame; false once the peer is gone.
  bool WriteLine(const std::string& line);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;  // prefix of buffer_ known to hold no '\n'
  bool line_too_long_ = false;
};

}  // namespace eas

#endif  // SRC_SERVICE_SOCKET_IO_H_
