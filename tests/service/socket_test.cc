// The socket layer end to end: ExperimentServer accepting Unix-domain
// connections, ServiceClient speaking the wire protocol, and the same
// byte-identity contract as the in-process service tests - now across a
// real socket, with concurrent clients demuxed by submission id.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/result_sink.h"
#include "src/api/run_session.h"
#include "src/service/experiment_server.h"
#include "src/service/service_client.h"

namespace eas {
namespace {

std::string SocketPath(const std::string& name) {
  return "/tmp/eas_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

std::vector<std::string> OfflineLines(const std::string& text) {
  const auto request = ParseRunRequest(text);
  EXPECT_TRUE(request.ok()) << (request.ok() ? "" : request.error().Render());
  const auto resolved = ResolveRunRequest(*request);
  EXPECT_TRUE(resolved.ok()) << (resolved.ok() ? "" : resolved.error().Render());
  const RunSession session(1);
  std::vector<std::string> lines;
  for (const RunRecord& record : session.Run(*resolved)) {
    lines.push_back(JsonlRecordLine(record));
  }
  return lines;
}

ServerOptions QuickServer(const std::string& socket_path) {
  ServerOptions options;
  options.socket_path = socket_path;
  options.service.queue_depth = 32;
  options.service.workers = 2;
  return options;
}

// Streams one submission group through a fresh client and reorders by
// (submission, index) - the reconstruction eastool submit --jsonl does.
std::map<std::uint64_t, std::vector<std::string>> SubmitAndReorder(
    const std::string& socket_path, const std::vector<std::string>& texts) {
  std::map<std::uint64_t, std::vector<std::string>> lines;
  auto client = ServiceClient::Connect(socket_path);
  EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error().Render());
  if (!client.ok()) {
    return lines;
  }
  std::map<std::uint64_t, std::map<std::size_t, std::string>> collected;
  const auto outcome = client->SubmitAndStream(texts, [&](const ClientRecord& record) {
    collected[record.submission][record.index] = record.jsonl;
  });
  EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().Render());
  if (outcome.ok()) {
    EXPECT_EQ(outcome->submissions.size(), texts.size());
  }
  for (const auto& [submission, by_index] : collected) {
    for (const auto& [index, jsonl] : by_index) {
      lines[submission].push_back(jsonl);
    }
  }
  return lines;
}

TEST(ExperimentServerTest, StreamsOfflineIdenticalBytesOverTheSocket) {
  const std::string socket_path = SocketPath("e2e");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  const std::vector<std::string> texts = {
      "name = a; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 5; runs = 2",
      "name = b; topology = 1:2:1; workload = hot:2; duration-s = 2; seed = 9",
  };
  const auto by_submission = SubmitAndReorder(socket_path, texts);
  ASSERT_EQ(by_submission.size(), 2u);
  // Submission ids are assigned in request order, so the id-ordered map
  // walks the texts in order.
  auto it = by_submission.begin();
  EXPECT_EQ(it->second, OfflineLines(texts[0]));
  ++it;
  EXPECT_EQ(it->second, OfflineLines(texts[1]));
}

TEST(ExperimentServerTest, ConcurrentClientsAreDemuxedBySubmission) {
  const std::string socket_path = SocketPath("demux");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  constexpr int kClients = 2;
  constexpr int kPerClient = 2;
  std::mutex mutex;
  std::map<std::string, std::vector<std::string>> got;  // text -> reordered lines
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int m = 0; m < kPerClient; ++m) {
        const std::string text = "topology = 1:2:1; workload = hot:2; duration-s = 2; seed = " +
                                 std::to_string(40 + c * 10 + m) + "; runs = 2";
        auto lines = SubmitAndReorder(socket_path, {text});
        ASSERT_EQ(lines.size(), 1u);
        std::lock_guard<std::mutex> lock(mutex);
        got[text] = lines.begin()->second;
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kClients * kPerClient));
  for (const auto& [text, lines] : got) {
    EXPECT_EQ(lines, OfflineLines(text)) << text;
  }
}

TEST(ExperimentServerTest, RejectionsTravelAsStructuredErrors) {
  const std::string socket_path = SocketPath("reject");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.error().Render();
  const auto outcome = client->SubmitAndStream({"polcy = energy_aware"}, nullptr);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, RequestErrorCode::kUnknownKey);
  EXPECT_EQ(outcome.error().key, "polcy");
  EXPECT_EQ(outcome.error().line, 1u);
  EXPECT_NE(outcome.error().Render().find("unknown key \"polcy\""), std::string::npos);

  // The connection survives a rejection; a good submission still works.
  const auto retry = client->SubmitAndStream(
      {"topology = 1:2:1; workload = hot:2; duration-s = 2"}, nullptr);
  ASSERT_TRUE(retry.ok()) << retry.error().Render();
  EXPECT_EQ(retry->records, 1u);
}

TEST(ExperimentServerTest, StatusVerbReportsCounters) {
  const std::string socket_path = SocketPath("status");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto client = ServiceClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.error().Render();
  const auto done = client->SubmitAndStream(
      {"topology = 1:2:1; workload = hot:2; duration-s = 2; runs = 2"}, nullptr);
  ASSERT_TRUE(done.ok()) << done.error().Render();

  const auto status = client->QueryStatus();
  ASSERT_TRUE(status.ok()) << status.error().Render();
  EXPECT_EQ(StatusField(*status, "queue_capacity", -1), 32.0);
  EXPECT_EQ(StatusField(*status, "completed_runs", -1), 2.0);
  EXPECT_EQ(StatusField(*status, "completed_submissions", -1), 1.0);
  // `ok` is written from inside the worker's run loop, so the worker may
  // not have decremented in_flight yet when the client queries; the counter
  // is bounded by the pool size, not exactly zero.
  EXPECT_GE(StatusField(*status, "in_flight", -1), 0.0);
  EXPECT_LE(StatusField(*status, "in_flight", -1), 2.0);
  EXPECT_EQ(StatusField(*status, "queued", -1), 0.0);
  EXPECT_GE(StatusField(*status, "uptime_s", -1), 0.0);
}

TEST(ExperimentServerTest, UnknownVerbsGetProtocolErrorsNotDisconnects) {
  const std::string socket_path = SocketPath("verbs");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto fd = ConnectUnix(socket_path);
  ASSERT_TRUE(fd.ok()) << fd.error().Render();
  LineChannel channel(*fd);
  ASSERT_TRUE(channel.WriteLine("frobnicate"));
  std::string line;
  ASSERT_TRUE(channel.ReadLine(&line));
  ASSERT_EQ(line.rfind("err ", 0), 0u) << line;
  const RequestError error = RequestErrorFromJson(line.substr(4));
  EXPECT_EQ(error.code, RequestErrorCode::kProtocol);
  EXPECT_NE(error.message.find("frobnicate"), std::string::npos);

  ASSERT_TRUE(channel.WriteLine("done"));
  ASSERT_TRUE(channel.ReadLine(&line));
  EXPECT_EQ(line, "end");
}

TEST(ExperimentServerTest, OverLongLineGetsAnErrorAndCloses) {
  const std::string socket_path = SocketPath("longline");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  auto fd = ConnectUnix(socket_path);
  ASSERT_TRUE(fd.ok()) << fd.error().Render();
  LineChannel channel(*fd);
  // The server may close before taking the last bytes, so the write itself
  // is allowed to fail; the reply is what matters.
  channel.WriteLine("run " + std::string(LineChannel::kMaxLineBytes, 'x'));
  std::string line;
  ASSERT_TRUE(channel.ReadLine(&line));
  ASSERT_EQ(line.rfind("err ", 0), 0u) << line;
  const RequestError error = RequestErrorFromJson(line.substr(4));
  EXPECT_EQ(error.code, RequestErrorCode::kProtocol);
  EXPECT_NE(error.message.find(std::to_string(LineChannel::kMaxLineBytes)), std::string::npos)
      << error.message;
  EXPECT_FALSE(channel.ReadLine(&line)) << "connection still open: " << line;
}

TEST(ExperimentServerTest, ShutdownVerbDrainsAndStopsTheServer) {
  const std::string socket_path = SocketPath("shutdown");
  auto server = ExperimentServer::Start(QuickServer(socket_path));
  ASSERT_TRUE(server.ok()) << server.error().Render();

  std::size_t streamed = 0;
  {
    auto client = ServiceClient::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << client.error().Render();
    const auto outcome = client->SubmitAndStream(
        {"topology = 1:2:1; workload = hot:2; duration-s = 2; runs = 3"},
        [&](const ClientRecord&) { ++streamed; });
    ASSERT_TRUE(outcome.ok()) << outcome.error().Render();
    const auto ack = client->RequestShutdown();
    ASSERT_TRUE(ack.ok()) << ack.error().Render();
  }
  EXPECT_EQ(streamed, 3u);
  (*server)->Wait();  // returns: the shutdown verb stopped the accept loop
  server->reset();    // tears down the listening socket and unlinks the path

  // The daemon is gone: connecting again fails.
  auto late = ServiceClient::Connect(socket_path);
  EXPECT_FALSE(late.ok());
}

TEST(ExperimentServerTest, ConnectToMissingSocketDiagnoses) {
  const auto client = ServiceClient::Connect(SocketPath("nobody-home"));
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.error().code, RequestErrorCode::kIo);
  EXPECT_NE(client.error().message.find("is the service running?"), std::string::npos);
}

}  // namespace
}  // namespace eas
