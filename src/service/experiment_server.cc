#include "src/service/experiment_server.h"

#include <condition_variable>
#include <cstdlib>
#include <utility>

namespace eas {
namespace {

// Per-connection state shared between the handler thread and the service
// worker threads streaming this connection's records. Callbacks hold a
// shared_ptr, so the channel outlives the handler until the last record of
// the last outstanding submission has been written.
struct Connection {
  explicit Connection(int fd) : channel(fd) {}

  LineChannel channel;
  std::mutex write_mutex;  // serializes handler replies with record streams

  std::mutex pending_mutex;
  std::condition_variable all_done;
  std::size_t pending_submissions = 0;

  bool Write(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    return channel.WriteLine(line);
  }

  void SubmissionFinished() {
    std::lock_guard<std::mutex> lock(pending_mutex);
    --pending_submissions;
    all_done.notify_all();
  }

  void WaitAllDone() {
    std::unique_lock<std::mutex> lock(pending_mutex);
    all_done.wait(lock, [this] { return pending_submissions == 0; });
  }
};

RequestError ProtocolError(std::string message) {
  RequestError error;
  error.code = RequestErrorCode::kProtocol;
  error.message = std::move(message);
  return error;
}

}  // namespace

Expected<std::unique_ptr<ExperimentServer>> ExperimentServer::Start(ServerOptions options) {
  auto socket = UnixServerSocket::Bind(options.socket_path);
  if (!socket.ok()) {
    return socket.error();
  }
  std::unique_ptr<ExperimentServer> server(
      new ExperimentServer(std::move(options), std::move(*socket)));
  return server;
}

ExperimentServer::ExperimentServer(ServerOptions options, UnixServerSocket socket)
    : service_options_(options.service),
      service_(options.service),
      socket_(std::make_unique<UnixServerSocket>(std::move(socket))) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

ExperimentServer::~ExperimentServer() {
  Stop();
  Wait();
}

void ExperimentServer::AcceptLoop() {
  while (!stop_.load()) {
    // The poll timeout is how often the loop re-checks the stop flag.
    std::optional<int> fd = socket_->Accept(/*timeout_ms=*/200);
    if (!fd.has_value()) {
      continue;
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.emplace_back([this, client = *fd] { HandleConnection(client); });
  }
}

void ExperimentServer::HandleConnection(int fd) {
  auto conn = std::make_shared<Connection>(fd);

  // Submits `texts` as one atomic group and writes the acks/errors. The
  // write mutex is held across the submit so every `sub` ack reaches the
  // client before the first `rec` of that group can be written.
  const auto submit = [this, conn](const std::vector<std::string>& texts) {
    if (stop_.load()) {
      conn->Write("err " + RequestErrorToJson(RequestError{
                               RequestErrorCode::kShuttingDown, "", 0,
                               "service is shutting down; no new submissions"}));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(conn->pending_mutex);
      conn->pending_submissions += texts.size();
    }
    std::lock_guard<std::mutex> write_lock(conn->write_mutex);
    auto results = service_.SubmitBatch(
        texts,
        [conn](const StreamedRecord& record) {
          conn->Write("rec " + std::to_string(record.submission) + " " +
                      std::to_string(record.index) + " " + record.jsonl);
        },
        [conn](std::uint64_t id, std::size_t records, const std::string& error) {
          if (!error.empty()) {
            conn->Write("err " + RequestErrorToJson(RequestError{
                                     RequestErrorCode::kIo, "", 0,
                                     "submission " + std::to_string(id) + ": " + error}));
          }
          conn->Write("ok " + std::to_string(id) + " " + std::to_string(records));
          conn->SubmissionFinished();
        });
    if (!results.ok()) {
      {
        std::lock_guard<std::mutex> lock(conn->pending_mutex);
        conn->pending_submissions -= texts.size();
        conn->all_done.notify_all();
      }
      conn->channel.WriteLine("err " + RequestErrorToJson(results.error()));
      return;
    }
    for (const SubmitResult& result : *results) {
      conn->channel.WriteLine("sub " + std::to_string(result.submission) + " " +
                              std::to_string(result.records));
    }
  };

  std::string line;
  while (conn->channel.ReadLine(&line)) {
    if (line.rfind("run ", 0) == 0) {
      submit({line.substr(4)});
      continue;
    }
    if (line.rfind("batch ", 0) == 0) {
      char* end = nullptr;
      const long count = std::strtol(line.c_str() + 6, &end, 10);
      if (count <= 0 || (end != nullptr && *end != '\0')) {
        conn->Write("err " + RequestErrorToJson(
                                 ProtocolError("bad batch count in \"" + line + "\"")));
        continue;
      }
      std::vector<std::string> texts;
      bool bad = false;
      for (long i = 0; i < count; ++i) {
        std::string member;
        if (!conn->channel.ReadLine(&member) || member.rfind("run ", 0) != 0) {
          if (!conn->channel.line_too_long()) {
            conn->Write("err " + RequestErrorToJson(ProtocolError(
                                     "batch expected " + std::to_string(count) +
                                     " run lines, got \"" + member + "\"")));
          }
          bad = true;
          break;
        }
        texts.push_back(member.substr(4));
      }
      if (!bad) {
        submit(texts);
      }
      continue;
    }
    if (line == "status") {
      conn->Write("status " + ServiceStatusToJson(service_.Status()));
      continue;
    }
    if (line == "done") {
      conn->WaitAllDone();
      conn->Write("end");
      break;
    }
    if (line == "shutdown") {
      conn->WaitAllDone();
      conn->Write("end");
      stop_.store(true);
      break;
    }
    conn->Write("err " + RequestErrorToJson(ProtocolError("unknown verb: \"" + line + "\"")));
  }
  if (conn->channel.line_too_long()) {
    conn->Write("err " + RequestErrorToJson(ProtocolError(
                             "line exceeds the " + std::to_string(LineChannel::kMaxLineBytes) +
                             "-byte limit; closing the connection")));
  }
  // conn stays alive through the callbacks' shared_ptr until the last
  // outstanding record is streamed; nothing to wait for here.
}

void ExperimentServer::Wait() {
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Drain every admitted job (workers finish the backlog, then exit)...
  service_.Shutdown();
  // ...then reap the connection handlers; their clients see EOF or `end`.
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (std::thread& connection : connections) {
    connection.join();
  }
}

}  // namespace eas
