// Status propagation through the durability I/O layer (ISSUE satellite:
// the silent fopen/fwrite/fflush calls became dur::FileSink with typed
// errors).  One test per failure site, plus the TsJournal sink tee's
// all-or-nothing rollback and the torn-physical-prefix recovery scan.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/dur/sink.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/tgran/granularity.h"
#include "src/ts/durability.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace ts {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(file);
  return out;
}

JournalEvent UpdateEvent(mod::UserId user, double x) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kUpdate;
  event.user = user;
  event.point = geo::STPoint{geo::Point{x, x}, 100};
  return event;
}

class DurabilityIoTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Registry::Instance().DisarmAll(); }

  const tgran::GranularityRegistry registry_ =
      tgran::GranularityRegistry::WithDefaults();
};

TEST_F(DurabilityIoTest, OpenFailsOnUnwritablePath) {
  const auto sink = dur::FileSink::Open("/nonexistent-dir/journal.bin");
  ASSERT_FALSE(sink.ok());
  EXPECT_EQ(sink.status().code(), common::StatusCode::kNotFound);
  EXPECT_NE(sink.status().message().find("/nonexistent-dir/journal.bin"),
            std::string::npos);
}

TEST_F(DurabilityIoTest, AppendAndSyncRoundTrip) {
  const std::string path = TempPath("sink_roundtrip.bin");
  auto sink = dur::FileSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  ASSERT_TRUE((*sink)->Append("hello ").ok());
  ASSERT_TRUE((*sink)->Append("world").ok());
  ASSERT_TRUE((*sink)->Sync().ok());
  ASSERT_TRUE((*sink)->Close().ok());
  EXPECT_EQ(ReadFile(path), "hello world");
}

TEST_F(DurabilityIoTest, AppendAfterCloseIsFailedPrecondition) {
  auto sink = dur::FileSink::Open(TempPath("sink_closed.bin"));
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE((*sink)->Close().ok());
  EXPECT_EQ((*sink)->Append("x").code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*sink)->Sync().code(), common::StatusCode::kFailedPrecondition);
  // Close is idempotent.
  EXPECT_TRUE((*sink)->Close().ok());
}

TEST_F(DurabilityIoTest, InjectedOpenFailure) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::ScopedFailPoint fp(
      fail::kDurFileOpen,
      fail::ErrorAction(common::StatusCode::kUnavailable, "no fds"));
  const auto sink = dur::FileSink::Open(TempPath("never_created.bin"));
  ASSERT_FALSE(sink.ok());
  EXPECT_TRUE(sink.status().IsUnavailable());
}

TEST_F(DurabilityIoTest, InjectedWriteFailure) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto sink = dur::FileSink::Open(TempPath("sink_write_fail.bin"));
  ASSERT_TRUE(sink.ok());
  {
    fail::ScopedFailPoint fp(
        fail::kDurFileWrite,
        fail::ErrorAction(common::StatusCode::kInternal, "disk full"));
    const common::Status status = (*sink)->Append("doomed");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("disk full"), std::string::npos);
  }
  // The sink survives the injected error and keeps working.
  EXPECT_TRUE((*sink)->Append("ok").ok());
  EXPECT_TRUE((*sink)->Close().ok());
}

TEST_F(DurabilityIoTest, InjectedPartialWriteReportsShortWrite) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  const std::string path = TempPath("sink_partial.bin");
  auto sink = dur::FileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  {
    fail::ScopedFailPoint fp(fail::kDurFilePartialWrite,
                             fail::PartialWriteAction(0.5));
    const common::Status status = (*sink)->Append("0123456789");
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("short write"), std::string::npos);
  }
  ASSERT_TRUE((*sink)->Close().ok());
  // The torn physical prefix reached the disk (5 of 10 bytes): the caller
  // saw an error, the file holds the partial bytes.
  EXPECT_EQ(ReadFile(path), "01234");
}

TEST_F(DurabilityIoTest, InjectedFlushAndSyncFailures) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto sink = dur::FileSink::Open(TempPath("sink_sync_fail.bin"));
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE((*sink)->Append("x").ok());
  {
    fail::ScopedFailPoint fp(
        fail::kDurFileFlush,
        fail::ErrorAction(common::StatusCode::kInternal, "flush eio"));
    EXPECT_NE((*sink)->Sync().message().find("flush eio"), std::string::npos);
  }
  {
    fail::ScopedFailPoint fp(
        fail::kDurFileSync,
        fail::ErrorAction(common::StatusCode::kInternal, "fsync eio"));
    EXPECT_NE((*sink)->Sync().message().find("fsync eio"), std::string::npos);
  }
  EXPECT_TRUE((*sink)->Close().ok());
}

TEST_F(DurabilityIoTest, JournalAppendRollsBackOnSinkFailure) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  const std::string path = TempPath("journal_rollback.bin");
  auto sink = dur::FileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  TsJournal journal;
  ASSERT_TRUE(journal.AttachSink(sink->get()).ok());
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(1, 10.0)).ok());
  const std::string before(journal.bytes());
  const size_t count_before = journal.event_count();
  {
    fail::ScopedFailPoint fp(
        fail::kDurFileWrite,
        fail::ErrorAction(common::StatusCode::kInternal, "disk full"));
    EXPECT_FALSE(journal.AppendEvent(UpdateEvent(2, 20.0)).ok());
  }
  // All-or-nothing: the failed append left no trace in the journal.
  EXPECT_EQ(journal.bytes(), before);
  EXPECT_EQ(journal.event_count(), count_before);
  // And the journal keeps accepting events after the fault clears.
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(3, 30.0)).ok());
  EXPECT_EQ(journal.event_count(), count_before + 1);
  ASSERT_TRUE((*sink)->Close().ok());
  EXPECT_EQ(ReadFile(path), journal.bytes());
}

TEST_F(DurabilityIoTest, TornPhysicalPrefixIsDiscardedByRecoveryScan) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  const std::string path = TempPath("journal_torn.bin");
  auto sink = dur::FileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  TsJournal journal;
  ASSERT_TRUE(journal.AttachSink(sink->get()).ok());
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(1, 10.0)).ok());
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(2, 20.0)).ok());
  {
    // Half the record's bytes reach the file: the in-memory journal rolls
    // back, but the file keeps a REAL torn tail.
    fail::ScopedFailPoint fp(fail::kDurFilePartialWrite,
                             fail::PartialWriteAction(0.5));
    EXPECT_FALSE(journal.AppendEvent(UpdateEvent(3, 30.0)).ok());
  }
  ASSERT_TRUE((*sink)->Close().ok());
  const std::string on_disk = ReadFile(path);
  EXPECT_GT(on_disk.size(), journal.bytes().size());
  const auto scan = ScanJournal(on_disk, registry_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->clean);
  EXPECT_EQ(scan->events.size(), 2u);  // the torn third event is discarded
  EXPECT_EQ(scan->valid_bytes, journal.bytes().size());
}

TEST_F(DurabilityIoTest, AttachSinkCatchesUpExistingBytes) {
  const std::string path = TempPath("journal_catchup.bin");
  TsJournal journal;
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(1, 10.0)).ok());
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(2, 20.0)).ok());
  auto sink = dur::FileSink::Open(path);
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE(journal.AttachSink(sink->get()).ok());
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(3, 30.0)).ok());
  ASSERT_TRUE(journal.Sync().ok());
  ASSERT_TRUE((*sink)->Close().ok());
  EXPECT_EQ(ReadFile(path), journal.bytes());
}

TEST_F(DurabilityIoTest, WriteToFilePropagatesInjectedErrors) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  TsJournal journal;
  ASSERT_TRUE(journal.AppendEvent(UpdateEvent(1, 10.0)).ok());
  fail::ScopedFailPoint fp(
      fail::kDurFileWrite,
      fail::ErrorAction(common::StatusCode::kInternal, "disk full"));
  EXPECT_FALSE(journal.WriteToFile(TempPath("journal_wtf.bin")).ok());
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
