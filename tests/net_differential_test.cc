// Wire-vs-in-process differential (the networked layer's determinism
// contract): the SAME epoched workload streamed through an RpcClient over
// a real loopback socket and replayed in-process via
// ReplayEpochsConcurrent on a twin ConcurrentServer must produce
// byte-identical reply frames for every request, byte-identical journals,
// and byte-identical Checkpoint() blobs.  The wire server is configured
// so only the client's explicit kEndEpoch frames close windows — the
// epoch structure is the client's, exactly as in the twin replay.
//
// JournalReplaySelfClocking covers the default, timing-driven windows:
// there the journal's epoch markers are the record a twin replays.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/tgran/granularity.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace net {
namespace {

ts::ConcurrentServerOptions TwinOptions(ts::TsJournal* journal) {
  ts::ConcurrentServerOptions options;
  options.num_shards = 3;
  options.queue_capacity = 4096;
  options.journal = journal;
  return options;
}

// Sends one workload event as its wire frame, collecting the request ids
// that expect a reply: control acks and service requests.
void SendWorkloadEvent(RpcClient& client, const ts::WorkloadEvent& event,
                       std::vector<uint64_t>* acks,
                       std::vector<uint64_t>* requests) {
  switch (event.kind) {
    case ts::WorkloadEvent::Kind::kUpdate: {
      ASSERT_TRUE(client.SendUpdate(event.user, event.point).ok());
      break;
    }
    case ts::WorkloadEvent::Kind::kRequest: {
      auto id = client.SendRequest(event.user, event.point, event.service,
                                   event.data);
      ASSERT_TRUE(id.ok());
      requests->push_back(*id);
      break;
    }
    case ts::WorkloadEvent::Kind::kRegisterUser: {
      auto id = client.SendRegister(event.user, event.policy);
      ASSERT_TRUE(id.ok());
      acks->push_back(*id);
      break;
    }
    case ts::WorkloadEvent::Kind::kRegisterLbqid: {
      if (event.lbqid == nullptr) break;
      ts::JournalEvent journal_event;
      journal_event.kind = ts::JournalEvent::Kind::kRegisterLbqid;
      journal_event.user = event.user;
      journal_event.lbqid = event.lbqid;
      auto id = client.SendEvent(MsgType::kRegisterLbqid,
                                 ts::EncodeJournalEvent(journal_event));
      ASSERT_TRUE(id.ok());
      acks->push_back(*id);
      break;
    }
    case ts::WorkloadEvent::Kind::kSetRules: {
      if (event.rules == nullptr) break;
      ts::JournalEvent journal_event;
      journal_event.kind = ts::JournalEvent::Kind::kSetRules;
      journal_event.user = event.user;
      journal_event.rules = event.rules;
      auto id = client.SendEvent(MsgType::kSetRules,
                                 ts::EncodeJournalEvent(journal_event));
      ASSERT_TRUE(id.ok());
      acks->push_back(*id);
      break;
    }
  }
}

// Waits for every control ack in `acks`, each of which must be an ack.
void ExpectAcks(RpcClient& client, const std::vector<uint64_t>& acks) {
  for (const uint64_t id : acks) {
    auto ack = client.WaitReply(id);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack->msg.type, MsgType::kRegisterAck)
        << "control event shed in a fault-free run";
  }
}

// Streams `workload` through a wire client against `server`, asserting
// each reply is byte-identical to what `expected` (the twin's outcomes,
// in submission order) dictates.  `retry_after_ms` must match the
// server's option so ReplyForOutcome encodes identically.
void DriveWire(const ts::EpochedWorkload& workload, uint16_t port,
               const std::vector<ts::ProcessOutcome>& expected,
               uint32_t retry_after_ms) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  size_t request_index = 0;
  for (const std::vector<ts::WorkloadEvent>& epoch : workload.epochs) {
    std::vector<uint64_t> acks;      // register/lbqid/rules round trips
    std::vector<uint64_t> requests;  // service requests, submission order
    for (const ts::WorkloadEvent& event : epoch) {
      ASSERT_NO_FATAL_FAILURE(
          SendWorkloadEvent(client, event, &acks, &requests));
    }
    ASSERT_TRUE(client.SendEndEpoch().ok());
    ASSERT_NO_FATAL_FAILURE(ExpectAcks(client, acks));
    for (const uint64_t id : requests) {
      auto reply = client.WaitReply(id);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_LT(request_index, expected.size());
      const ReplyMsg want = ReplyForOutcome(id, expected[request_index],
                                            retry_after_ms);
      EXPECT_EQ(reply->msg.type, want.type)
          << "request " << request_index << ": wire disposition diverged";
      EXPECT_EQ(EncodeReply(reply->msg), EncodeReply(want))
          << "request " << request_index << ": reply bytes diverged";
      ++request_index;
    }
  }
  EXPECT_EQ(request_index, expected.size());
  client.Close();
}

// The in-process mirror of the wire drive: ReplayEpochsConcurrent's
// submission loop, but with a live Checkpoint() between the last epoch
// and Finish() — the same sequence the wire side runs, so journal bytes
// (which include the snapshot record) stay comparable.
std::vector<ts::ProcessOutcome> ReplayTwin(
    const ts::EpochedWorkload& workload, ts::ConcurrentServer* server,
    std::string* checkpoint_blob) {
  for (const anon::ServiceProfile& service : workload.services) {
    EXPECT_TRUE(server->RegisterService(service).ok());
  }
  for (const std::vector<ts::WorkloadEvent>& epoch : workload.epochs) {
    for (const ts::WorkloadEvent& event : epoch) {
      switch (event.kind) {
        case ts::WorkloadEvent::Kind::kUpdate:
          server->SubmitLocationUpdate(event.user, event.point);
          break;
        case ts::WorkloadEvent::Kind::kRequest:
          server->SubmitRequest(event.user, event.point, event.service,
                                event.data);
          break;
        case ts::WorkloadEvent::Kind::kRegisterUser:
          server->SubmitRegisterUser(event.user, event.policy);
          break;
        case ts::WorkloadEvent::Kind::kRegisterLbqid:
          if (event.lbqid != nullptr) {
            server->SubmitRegisterLbqid(event.user, *event.lbqid);
          }
          break;
        case ts::WorkloadEvent::Kind::kSetRules:
          if (event.rules != nullptr) {
            server->SubmitSetUserRules(event.user, *event.rules);
          }
          break;
      }
    }
    server->EndEpoch();
  }
  auto blob = server->Checkpoint();
  EXPECT_TRUE(blob.ok());
  if (blob.ok()) *checkpoint_blob = std::move(*blob);
  server->Finish();
  return server->outcomes();
}

void RunDifferential(const ts::EpochedWorkload& workload) {
  // Twin: the in-process submission stream.
  ts::TsJournal twin_journal;
  ts::ConcurrentServer twin(TwinOptions(&twin_journal));
  std::string twin_blob;
  const std::vector<ts::ProcessOutcome> expected =
      ReplayTwin(workload, &twin, &twin_blob);

  // Wire: same server config behind the RPC layer.  Window policy is
  // inert (huge count, long timeout) so only kEndEpoch frames flush.
  ts::TsJournal wire_journal;
  ts::ConcurrentServer wire(TwinOptions(&wire_journal));
  for (const anon::ServiceProfile& service : workload.services) {
    ASSERT_TRUE(wire.RegisterService(service).ok());
  }
  const tgran::GranularityRegistry granularities =
      tgran::GranularityRegistry::WithDefaults();
  RpcServerOptions options;
  options.max_window_requests = 1u << 20;
  options.window_timeout_ms = 10000;
  options.granularities = &granularities;
  RpcServer rpc(&wire, options);
  ASSERT_TRUE(rpc.Start().ok());
  {
    SCOPED_TRACE("wire replay");
    DriveWire(workload, rpc.port(), expected, options.retry_after_ms);
  }
  rpc.Stop();
  EXPECT_EQ(rpc.protocol_errors(), 0u);
  auto wire_blob = wire.Checkpoint();
  ASSERT_TRUE(wire_blob.ok());
  wire.Finish();

  // The wire server's outcome stream, journal, and checkpoint must be
  // byte-identical to the twin's.
  ASSERT_EQ(wire.outcomes().size(), expected.size());
  EXPECT_EQ(wire_journal.bytes(), twin_journal.bytes())
      << "wire journal diverged from the in-process twin";
  EXPECT_EQ(*wire_blob, twin_blob)
      << "wire checkpoint diverged from the in-process twin";
}

// Streams `workload` with no kEndEpoch frames, waiting only at each
// epoch's end, so the server's idle flushes alone cut the windows.
// Returns the replies in request (= submission) order.
std::vector<WireReply> DriveSelfClocked(const ts::EpochedWorkload& workload,
                                        uint16_t port) {
  std::vector<WireReply> replies;
  RpcClient client;
  if (!client.Connect(port).ok()) {
    ADD_FAILURE() << "connect failed";
    return replies;
  }
  for (const std::vector<ts::WorkloadEvent>& epoch : workload.epochs) {
    std::vector<uint64_t> acks;
    std::vector<uint64_t> requests;
    for (const ts::WorkloadEvent& event : epoch) {
      SendWorkloadEvent(client, event, &acks, &requests);
      if (::testing::Test::HasFatalFailure()) return replies;
    }
    ExpectAcks(client, acks);
    if (::testing::Test::HasFatalFailure()) return replies;
    for (const uint64_t id : requests) {
      auto reply = client.WaitReply(id);
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      if (!reply.ok()) return replies;
      replies.push_back(std::move(*reply));
    }
  }
  client.Close();
  return replies;
}

TEST(NetDifferential, JournalReplaySelfClocking) {
  // Default RpcServerOptions: timing, not the client, decides where the
  // windows end.  Whatever layout a run gets, its journaled epoch markers
  // record it, so replaying the server's own journal into a twin must
  // reproduce every outcome, the journal and the checkpoint.
  ts::SyntheticWorkloadOptions workload_options;
  workload_options.num_users = 24;
  workload_options.num_epochs = 5;
  workload_options.requests_per_epoch = 40;
  workload_options.seed = 404;
  const ts::EpochedWorkload workload =
      ts::MakeHotspotWorkload(workload_options);
  const tgran::GranularityRegistry granularities =
      tgran::GranularityRegistry::WithDefaults();

  ts::TsJournal wire_journal;
  ts::ConcurrentServerOptions server_options = TwinOptions(&wire_journal);
  ts::ConcurrentServer wire(server_options);
  for (const anon::ServiceProfile& service : workload.services) {
    ASSERT_TRUE(wire.RegisterService(service).ok());
  }
  RpcServerOptions options;
  options.granularities = &granularities;
  RpcServer rpc(&wire, options);
  ASSERT_TRUE(rpc.Start().ok());
  const std::vector<WireReply> replies =
      DriveSelfClocked(workload, rpc.port());
  rpc.Stop();
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(rpc.protocol_errors(), 0u);
  EXPECT_GE(rpc.windows_flushed(), 1u);
  const std::string streamed(wire_journal.bytes());
  auto wire_blob = wire.Checkpoint();
  ASSERT_TRUE(wire_blob.ok());
  wire.Finish();

  auto scanned = ts::ScanJournal(streamed, granularities);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_TRUE(scanned->clean);
  ASSERT_TRUE(scanned->snapshot.empty());
  ts::TsJournal twin_journal;
  server_options.journal = &twin_journal;
  ts::ConcurrentServer twin(server_options);
  for (const ts::JournalEvent& event : scanned->events) {
    ts::ApplyConcurrentJournalEvent(&twin, event);
  }
  EXPECT_EQ(twin_journal.bytes(), streamed)
      << "replaying the journal re-journaled different bytes";
  auto twin_blob = twin.Checkpoint();
  ASSERT_TRUE(twin_blob.ok());
  twin.Finish();

  const std::vector<ts::ProcessOutcome>& expected = twin.outcomes();
  ASSERT_EQ(wire.outcomes().size(), expected.size());
  ASSERT_EQ(replies.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(EncodeReply(ReplyForOutcome(i, wire.outcomes()[i],
                                          options.retry_after_ms)),
              EncodeReply(ReplyForOutcome(i, expected[i],
                                          options.retry_after_ms)))
        << "request " << i << ": replayed outcome diverged";
    EXPECT_EQ(EncodeReply(replies[i].msg),
              EncodeReply(ReplyForOutcome(replies[i].msg.request_id,
                                          expected[i],
                                          options.retry_after_ms)))
        << "request " << i << ": reply bytes diverged";
  }
  EXPECT_EQ(wire_journal.bytes(), twin_journal.bytes());
  EXPECT_EQ(*wire_blob, *twin_blob)
      << "replayed checkpoint diverged from the wire server's";
}

TEST(NetDifferential, UniformWorkloadMatchesInProcess) {
  ts::SyntheticWorkloadOptions options;
  options.num_users = 16;
  options.num_epochs = 4;
  options.requests_per_epoch = 24;
  options.seed = 101;
  RunDifferential(ts::MakeUniformWorkload(options));
}

TEST(NetDifferential, HotspotWorkloadMatchesInProcess) {
  ts::SyntheticWorkloadOptions options;
  options.num_users = 20;
  options.num_epochs = 4;
  options.requests_per_epoch = 24;
  options.seed = 202;
  RunDifferential(ts::MakeHotspotWorkload(options));
}

TEST(NetDifferential, CommuterWorkloadMatchesInProcess) {
  ts::CommuterWorkloadOptions options;
  options.num_commuters = 4;
  options.num_wanderers = 10;
  options.seed = 303;
  options.duration = 3600;
  options.epoch_seconds = 600;
  RunDifferential(ts::MakeCommuterWorkload(options));
}

}  // namespace
}  // namespace net
}  // namespace histkanon
