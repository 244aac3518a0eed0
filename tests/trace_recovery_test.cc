// Trace-id durability: the journal annotation record carries the trace
// allocator across crashes without touching snapshot bytes.  A recovered
// traced server resumes allocating exactly where the crashed one
// stopped; an untraced run journals no annotation at all, and snapshot
// blobs stay bit-identical traced vs untraced (null-object contract).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/causal_trace.h"
#include "src/tgran/granularity.h"
#include "src/ts/durability.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace ts {
namespace {

geo::STPoint PointAt(double x, double y, int64_t t) {
  return geo::STPoint{geo::Point{x, y}, t};
}

const tgran::GranularityRegistry& Registry() {
  static const tgran::GranularityRegistry* registry =
      new tgran::GranularityRegistry(
          tgran::GranularityRegistry::WithDefaults());
  return *registry;
}

TrustedServerOptions TracedOptions(obs::CausalTracer* tracer) {
  TrustedServerOptions options;
  options.causal = tracer;
  options.trace_id_seed = 500;
  return options;
}

/// Drives `count` admitted requests through the server.
void Drive(TrustedServer* server, int count, int64_t t0) {
  for (int i = 0; i < count; ++i) {
    const ProcessOutcome outcome =
        server->ProcessRequest(7, PointAt(100, 100, t0 + i), 0, "r");
    ASSERT_NE(outcome.disposition, Disposition::kRejected);
  }
}

TEST(TraceRecovery, CheckpointJournalsTheAllocatorPosition) {
  obs::CausalTracer tracer;
  TsJournal journal;
  TrustedServer server(TracedOptions(&tracer));
  server.AttachJournal(&journal);
  ASSERT_TRUE(server.ApplyLocationUpdate(7, PointAt(100, 100, 100)).ok());
  Drive(&server, 3, 200);
  ASSERT_TRUE(server.WriteCheckpoint().ok());

  const auto scan = ScanJournal(journal.bytes(), Registry());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->has_trace_annotation);
  EXPECT_EQ(scan->next_trace_id, 500u + 3);
  // The annotation rides immediately behind its snapshot: no events
  // between them.
  EXPECT_EQ(scan->events_before_annotation, 0u);
  EXPECT_EQ(scan->events.size(), 0u);
}

TEST(TraceRecovery, RecoveredServerResumesAllocationAtCrashPosition) {
  obs::CausalTracer tracer;
  TsJournal journal;
  uint64_t crashed_next = 0;
  {
    TrustedServer server(TracedOptions(&tracer));
    server.AttachJournal(&journal);
    ASSERT_TRUE(server.ApplyLocationUpdate(7, PointAt(100, 100, 100)).ok());
    Drive(&server, 2, 200);
    ASSERT_TRUE(server.WriteCheckpoint().ok());
    // Requests past the checkpoint: replay must advance past the
    // annotation's value to reach the crash position.
    Drive(&server, 3, 300);
    crashed_next = server.next_trace_id();
    EXPECT_EQ(crashed_next, 500u + 5);
  }  // "crash"

  obs::CausalTracer recovered_tracer;
  const auto recovered = RecoverTrustedServer(
      journal.bytes(), TracedOptions(&recovered_tracer), Registry());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->clean_tail);
  EXPECT_EQ(recovered->server->next_trace_id(), crashed_next);

  // The recovered chain continues where the crashed one stopped: the
  // next admitted request takes exactly the next id.
  TsJournal fresh;
  recovered->server->AttachJournal(&fresh);
  Drive(recovered->server.get(), 1, 400);
  EXPECT_EQ(recovered->server->next_trace_id(), crashed_next + 1);
  bool found = false;
  for (const obs::CausalSpanRecord& span : recovered_tracer.Records()) {
    if (span.trace_id == crashed_next && span.name == "request") found = true;
  }
  EXPECT_TRUE(found) << "post-recovery request did not take id "
                     << crashed_next;
}

TEST(TraceRecovery, TornTailAfterCheckpointStillSeedsFromAnnotation) {
  obs::CausalTracer tracer;
  TsJournal journal;
  {
    TrustedServer server(TracedOptions(&tracer));
    server.AttachJournal(&journal);
    ASSERT_TRUE(server.ApplyLocationUpdate(7, PointAt(100, 100, 100)).ok());
    Drive(&server, 2, 200);
    ASSERT_TRUE(server.WriteCheckpoint().ok());
    Drive(&server, 1, 300);
  }
  // Tear the final record (the post-checkpoint request) mid-byte.
  std::string torn(journal.bytes());
  torn.resize(torn.size() - 3);

  obs::CausalTracer recovered_tracer;
  const auto recovered = RecoverTrustedServer(
      torn, TracedOptions(&recovered_tracer), Registry());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->clean_tail);
  // The torn request never happened: the allocator rewinds with it.
  EXPECT_EQ(recovered->server->next_trace_id(), 500u + 2);
}

TEST(TraceRecovery, SecondCheckpointSupersedesTheFirstAnnotation) {
  obs::CausalTracer tracer;
  TsJournal journal;
  TrustedServer server(TracedOptions(&tracer));
  server.AttachJournal(&journal);
  ASSERT_TRUE(server.ApplyLocationUpdate(7, PointAt(100, 100, 100)).ok());
  Drive(&server, 2, 200);
  ASSERT_TRUE(server.WriteCheckpoint().ok());
  Drive(&server, 4, 300);
  ASSERT_TRUE(server.WriteCheckpoint().ok());

  const auto scan = ScanJournal(journal.bytes(), Registry());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->has_trace_annotation);
  EXPECT_EQ(scan->next_trace_id, 500u + 6);
}

TEST(TraceRecovery, UntracedRunJournalsNoAnnotation) {
  TsJournal journal;
  TrustedServerOptions options;
  options.trace_id_seed = 500;  // Seed set but NO tracer: ids untouched.
  TrustedServer server(options);
  server.AttachJournal(&journal);
  ASSERT_TRUE(server.ApplyLocationUpdate(7, PointAt(100, 100, 100)).ok());
  Drive(&server, 3, 200);
  ASSERT_TRUE(server.WriteCheckpoint().ok());

  const auto scan = ScanJournal(journal.bytes(), Registry());
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->has_trace_annotation);
}

TEST(TraceRecovery, JournalBytesIdenticalUpToTheAnnotationRecords) {
  // The tracer's ONLY journal footprint is the annotation behind each
  // snapshot.  Everything else — every event record, every snapshot
  // blob — is bit-identical to an untraced run of the same workload.
  auto run = [](bool traced) {
    obs::CausalTracer tracer;
    TsJournal journal;
    TrustedServerOptions options;
    options.trace_id_seed = 500;
    if (traced) options.causal = &tracer;
    TrustedServer server(options);
    server.AttachJournal(&journal);
    EXPECT_TRUE(server.ApplyLocationUpdate(7, PointAt(100, 100, 100)).ok());
    for (int i = 0; i < 3; ++i) {
      server.ProcessRequest(7, PointAt(100, 100, 200 + i), 0, "r");
    }
    EXPECT_TRUE(server.WriteCheckpoint().ok());
    struct RunResult {
      std::string journal_bytes;
      std::string checkpoint;
    };
    auto checkpoint = server.Checkpoint();
    EXPECT_TRUE(checkpoint.ok());
    return RunResult{std::string(journal.bytes()),
                     checkpoint.ok() ? *checkpoint : ""};
  };
  const auto traced = run(true);
  const auto untraced = run(false);

  // Snapshot blobs are bit-identical: the allocator lives in the
  // annotation, never in Checkpoint().
  EXPECT_EQ(traced.checkpoint, untraced.checkpoint);
  // The untraced journal is a strict prefix of the traced one (the
  // trailing annotation is the only extra record).
  ASSERT_GT(traced.journal_bytes.size(), untraced.journal_bytes.size());
  EXPECT_EQ(traced.journal_bytes.substr(0, untraced.journal_bytes.size()),
            untraced.journal_bytes);
  // And both decode to the same event stream.
  const auto traced_events = DecodeAllEvents(traced.journal_bytes, Registry());
  const auto untraced_events =
      DecodeAllEvents(untraced.journal_bytes, Registry());
  ASSERT_TRUE(traced_events.ok());
  ASSERT_TRUE(untraced_events.ok());
  EXPECT_EQ(traced_events->size(), untraced_events->size());
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
