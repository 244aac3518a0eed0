// Conformance tests for the RPC serving layer over a real loopback
// socket: ephemeral-port bind, register/update/request round trips,
// batch-window flush by count, by timeout and when the sockets go quiet,
// breaker sheds surfaced as Throttled (never silent), hostile bytes
// answered with a final Error frame, stalled-client disconnect, and the
// net_* metrics.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/anon/tolerance.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"

namespace histkanon {
namespace net {
namespace {

anon::ServiceProfile TestService() {
  anon::ServiceProfile service;
  service.id = 1;
  service.name = "poi";
  service.tolerance.max_area_width = 4000.0;
  service.tolerance.max_area_height = 4000.0;
  service.tolerance.max_time_window = 3600;
  return service;
}

ts::ConcurrentServerOptions SmallServer() {
  ts::ConcurrentServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 256;
  return options;
}

TEST(NetServer, BindsAnEphemeralPortAndStops) {
  ts::ConcurrentServer cs(SmallServer());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  // Double start is refused.
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
  server.Stop();  // idempotent
}

TEST(NetServer, RegisterUpdateRequestRoundTrip) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 1;  // serve immediately
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  auto reg = client.SendRegister(
      5, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  auto ack = client.WaitReply(*reg);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->msg.type, MsgType::kRegisterAck);
  EXPECT_EQ(ack->msg.code, 0u);

  ASSERT_TRUE(client.SendUpdate(5, geo::STPoint{{10, 10}, 30}).ok());
  auto req =
      client.SendRequest(5, geo::STPoint{{12, 12}, 60}, 1, "find poi");
  ASSERT_TRUE(req.ok());
  auto reply = client.WaitReply(*req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  EXPECT_EQ(reply->msg.request_id, *req);
  EXPECT_EQ(reply->msg.service, 1);
  EXPECT_EQ(reply->msg.data, "find poi");
  EXPECT_FALSE(reply->msg.pseudonym.empty());

  client.Close();
  server.Stop();
  cs.Finish();
  ASSERT_EQ(cs.outcomes().size(), 1u);
  EXPECT_TRUE(cs.outcomes()[0].forwarded);
}

TEST(NetServer, WindowBatchesByCountAcrossConnections) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 4;
  options.window_timeout_ms = 2000;  // count, not timeout, must flush
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<RpcClient>> clients;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<RpcClient>());
    ASSERT_TRUE(clients.back()->Connect(server.port()).ok());
    auto reg = clients.back()->SendRegister(
        i + 1, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(clients.back()->WaitReply(*reg).ok());
  }
  for (int i = 0; i < 4; ++i) {
    auto req = clients[i]->SendRequest(
        i + 1, geo::STPoint{{100.0 * i, 50.0}, 60}, 1, "q");
    ASSERT_TRUE(req.ok());
    ids.push_back(*req);
  }
  for (int i = 0; i < 4; ++i) {
    auto reply = clients[i]->WaitReply(ids[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  }
  EXPECT_GE(server.windows_flushed(), 1u);
  server.Stop();
}

TEST(NetServer, LoneClientIsFlushedByTimeout) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 1000;  // never reached
  options.window_timeout_ms = 5;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reg = client.SendRegister(
      9, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(client.WaitReply(*reg).ok());
  auto req = client.SendRequest(9, geo::STPoint{{5, 5}, 30}, 1, "lone");
  ASSERT_TRUE(req.ok());
  auto reply = client.WaitReply(*req);  // only the timeout can flush this
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  server.Stop();
}

TEST(NetServer, LoneRequestIsFlushedWhenTheSocketsGoQuiet) {
  // Default options: no fill wait.  The window closes on the first poll
  // round that finds nothing more to read, well before a 5 ms timer.
  ASSERT_EQ(RpcServerOptions{}.window_timeout_ms, 0);
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reg = client.SendRegister(
      9, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(client.WaitReply(*reg).ok());
  EXPECT_EQ(server.windows_flushed(), 0u);  // acks open no window

  // Each lone request is its own window; the fastest round trip of a
  // few shows no timer was waited on.
  int64_t fastest_ns = std::numeric_limits<int64_t>::max();
  for (uint64_t i = 1; i <= 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto req = client.SendRequest(9, geo::STPoint{{5, 5}, 30}, 1, "lone");
    ASSERT_TRUE(req.ok());
    auto reply = client.WaitReply(*req);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    fastest_ns = std::min<int64_t>(
        fastest_ns, std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
    EXPECT_EQ(server.windows_flushed(), i);
  }
  EXPECT_LT(fastest_ns, 5'000'000);
  server.Stop();
}

TEST(NetServer, FramesOfOneWriteShareOneWindow) {
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reg = client.SendRegister(
      3, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(client.WaitReply(*reg).ok());

  // N request frames in ONE send(): the server reads them in one poll
  // round, so they close exactly one window together.
  constexpr uint64_t kFrames = 16;
  std::string wire;
  for (uint64_t i = 0; i < kFrames; ++i) {
    RequestMsg msg;
    msg.request_id = 1000 + i;
    msg.user = 3;
    msg.exact = geo::STPoint{{10.0 * i, 10.0}, 60};
    msg.service = 1;
    msg.data = "batch";
    AppendFrame(&wire, static_cast<uint8_t>(MsgType::kRequest), 0,
                EncodeRequest(msg));
  }
  ASSERT_EQ(::send(client.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  for (uint64_t i = 0; i < kFrames; ++i) {
    auto reply = client.WaitReply(1000 + i);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->msg.type, MsgType::kResponseBox);
  }
  EXPECT_EQ(server.windows_flushed(), 1u);
  server.Stop();
  cs.Finish();
  EXPECT_EQ(cs.outcomes().size(), kFrames);
}

TEST(NetServer, BreakerShedsBecomeThrottledReplies) {
  // A failing journal trips the front-end breaker; wire submissions are
  // then suppressed fail-closed and MUST come back as Throttled frames.
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  ts::TsJournal journal;
  ts::ConcurrentServerOptions cs_options = SmallServer();
  cs_options.breaker.trip_threshold = 1;
  cs_options.breaker.probe_after = 100000;  // stay degraded for the test
  cs_options.journal = &journal;
  ts::ConcurrentServer cs(cs_options);
  fail::ScopedFailPoint fp(
      fail::kDurJournalAppend,
      fail::ErrorAction(common::StatusCode::kInternal, "disk gone"));
  RpcServerOptions options;
  options.max_window_requests = 1;
  options.retry_after_ms = 123;
  obs::Registry registry;
  options.registry = &registry;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // First registration: journal append fails -> Throttled; afterwards the
  // breaker is open, so every further message is Throttled too.
  for (int i = 0; i < 3; ++i) {
    auto reg = client.SendRegister(
        1, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
    ASSERT_TRUE(reg.ok());
    auto reply = client.WaitReply(*reg);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->msg.type, MsgType::kThrottled);
    EXPECT_EQ(reply->msg.retry_after_ms, 123u);
    EXPECT_FALSE(reply->msg.reason.empty());
  }
  // A shed REQUEST is throttled immediately (no window wait).
  auto req = client.SendRequest(1, geo::STPoint{{0, 0}, 10}, 1, "q");
  ASSERT_TRUE(req.ok());
  auto reply = client.WaitReply(*req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->msg.type, MsgType::kThrottled);
  // A shed fire-and-forget UPDATE is reported too: never a silent drop.
  auto upd = client.SendUpdate(1, geo::STPoint{{0, 0}, 20});
  ASSERT_TRUE(upd.ok());
  auto shed = client.WaitReply(*upd);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->msg.type, MsgType::kThrottled);

  EXPECT_GE(server.throttled(), 5u);
  EXPECT_EQ(cs.health(), ts::HealthState::kDegraded);
  server.Stop();
}

TEST(NetServer, GarbageBytesGetAFinalErrorFrame) {
  ts::ConcurrentServer cs(SmallServer());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // Hostile bytes after the magic (Connect already sent it): the frame
  // parser sees a corrupt record, answers one Error frame, and closes.
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(client.fd(), garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  auto reply = client.WaitAnyReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->msg.type, MsgType::kError);
  EXPECT_FALSE(reply->msg.message.empty());
  // The connection is then closed server-side.
  auto next = client.WaitAnyReply();
  EXPECT_FALSE(next.ok());
  EXPECT_GE(server.protocol_errors(), 1u);
  server.Stop();
}

TEST(NetServer, MalformedBodyGetsErrorAndCloses) {
  ts::ConcurrentServer cs(SmallServer());
  RpcServer server(&cs, RpcServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  // A well-framed kRequest whose body is one byte of junk.
  std::string wire;
  AppendFrame(&wire, static_cast<uint8_t>(MsgType::kRequest), 0, "j");
  ASSERT_EQ(::send(client.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto reply = client.WaitAnyReply();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->msg.type, MsgType::kError);
  // An unknown frame type is a protocol error too.
  RpcClient client2;
  ASSERT_TRUE(client2.Connect(server.port()).ok());
  std::string wire2;
  AppendFrame(&wire2, 0x7f, 0, "");
  ASSERT_EQ(::send(client2.fd(), wire2.data(), wire2.size(), 0),
            static_cast<ssize_t>(wire2.size()));
  auto reply2 = client2.WaitAnyReply();
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2->msg.type, MsgType::kError);
  server.Stop();
}

TEST(NetServer, MetricsCountTraffic) {
  obs::Registry registry;
  ts::ConcurrentServer cs(SmallServer());
  ASSERT_TRUE(cs.RegisterService(TestService()).ok());
  RpcServerOptions options;
  options.max_window_requests = 1;
  options.registry = &registry;
  RpcServer server(&cs, options);
  ASSERT_TRUE(server.Start().ok());
  RpcClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  auto reg = client.SendRegister(
      2, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kOff));
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(client.WaitReply(*reg).ok());
  auto req = client.SendRequest(2, geo::STPoint{{1, 1}, 10}, 1, "m");
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(client.WaitReply(*req).ok());
  EXPECT_EQ(server.accepted(), 1u);
  EXPECT_GE(server.frames_received(), 2u);
  EXPECT_GE(server.replies_sent(), 2u);
  EXPECT_EQ(registry.GetCounter("net_accepted_total")->value(), 1u);
  EXPECT_GE(registry.GetCounter("net_frames_received_total")->value(), 2u);
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace histkanon
