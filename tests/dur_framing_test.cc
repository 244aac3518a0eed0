// Unit tests for the journal record framing: round-trips, torn tails,
// CRC corruption, length-cap corruption, the crash-consistent cut points
// RecordBoundaries reports, and the AppendBuffer journals are kept in.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/dur/append_buffer.h"
#include "src/dur/framing.h"

namespace histkanon {
namespace dur {
namespace {

std::string Journal(const std::vector<std::string>& payloads) {
  std::string bytes;
  AppendMagic(&bytes);
  for (const std::string& payload : payloads) AppendRecord(&bytes, payload);
  return bytes;
}

TEST(DurFraming, EmptyJournalScansClean) {
  std::string bytes;
  AppendMagic(&bytes);
  const auto scan = ScanRecords(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, bytes.size());
}

TEST(DurFraming, RoundTripsRecords) {
  const std::string bytes = Journal({"alpha", "", "gamma gamma"});
  const auto scan = ScanRecords(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0], "alpha");
  EXPECT_EQ(scan->records[1], "");
  EXPECT_EQ(scan->records[2], "gamma gamma");
  EXPECT_EQ(scan->valid_bytes, bytes.size());
}

TEST(DurFraming, WrongMagicIsNotAJournal) {
  std::string bytes = Journal({"payload"});
  bytes[0] = 'X';
  EXPECT_FALSE(ScanRecords(bytes).ok());
}

TEST(DurFraming, TornHeaderScansAsEmptyDirty) {
  std::string bytes;
  AppendMagic(&bytes);
  bytes.resize(3);  // crash mid-magic
  const auto scan = ScanRecords(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, 0u);
}

TEST(DurFraming, TornTailStopsAtLastIntactRecord) {
  const std::string intact = Journal({"first", "second"});
  std::string bytes = intact;
  AppendRecord(&bytes, "third record, torn");
  // Cut the last record anywhere: mid-header and mid-body.
  for (const size_t cut :
       {intact.size() + 2, intact.size() + 9, bytes.size() - 1}) {
    const std::string torn = bytes.substr(0, cut);
    const auto scan = ScanRecords(torn);
    ASSERT_TRUE(scan.ok()) << "cut at " << cut;
    EXPECT_FALSE(scan->clean) << "cut at " << cut;
    ASSERT_EQ(scan->records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(scan->valid_bytes, intact.size()) << "cut at " << cut;
  }
}

TEST(DurFraming, CorruptedPayloadIsDiscarded) {
  const std::string prefix = Journal({"keep me"});
  std::string bytes = prefix;
  AppendRecord(&bytes, "flip me");
  bytes.back() ^= 0x01;  // bit rot in the last payload byte
  const auto scan = ScanRecords(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], "keep me");
  EXPECT_EQ(scan->valid_bytes, prefix.size());
}

TEST(DurFraming, OversizeLengthIsCorruption) {
  std::string bytes = Journal({"ok"});
  const size_t keep = bytes.size();
  // A fake header whose length prefix exceeds the cap.
  const uint32_t huge = kMaxRecordPayload + 1;
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<char>((huge >> shift) & 0xff));
  }
  bytes.append(4, '\0');  // crc
  bytes.append("short");
  const auto scan = ScanRecords(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->clean);
  EXPECT_EQ(scan->valid_bytes, keep);
}

TEST(DurFraming, RecordBoundariesAreTheCutPoints) {
  const std::string bytes = Journal({"one", "two", "three"});
  const std::vector<size_t> boundaries = RecordBoundaries(bytes);
  ASSERT_EQ(boundaries.size(), 4u);  // magic end + 3 record ends
  EXPECT_EQ(boundaries.front(), JournalMagic().size());
  EXPECT_EQ(boundaries.back(), bytes.size());
  // Truncating at every boundary yields a clean journal with a record
  // count equal to the boundary's index.
  for (size_t i = 0; i < boundaries.size(); ++i) {
    const auto scan = ScanRecords(bytes.substr(0, boundaries[i]));
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->clean) << "boundary " << i;
    EXPECT_EQ(scan->records.size(), i) << "boundary " << i;
  }
}

TEST(DurFraming, AppendBufferHoldsTheSameBytesAsAString) {
  // ~600 KB of records: the buffer grows (and may move) several times.
  std::string expected;
  AppendBuffer buffer;
  AppendMagic(&expected);
  buffer.Append(JournalMagic());
  size_t cut = 0;
  for (size_t i = 0; i < 3000; ++i) {
    if (i == 1000) cut = expected.size();
    const std::string payload(100 + i % 200, static_cast<char>('a' + i % 26));
    AppendRecord(&expected, payload);
    AppendRecord(&buffer, payload);
  }
  ASSERT_EQ(buffer.size(), expected.size());
  EXPECT_EQ(buffer.view(), expected);

  buffer.Truncate(cut);
  EXPECT_EQ(buffer.view(), std::string_view(expected).substr(0, cut));
  buffer.Truncate(expected.size());  // never grows
  EXPECT_EQ(buffer.size(), cut);
  AppendRecord(&buffer, "after the cut");
  const auto scan = ScanRecords(buffer.view());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean);
  ASSERT_EQ(scan->records.size(), 1001u);
  EXPECT_EQ(scan->records.back(), "after the cut");

  buffer.Assign(std::string_view(expected).substr(0, 64));
  EXPECT_EQ(buffer.view(), std::string_view(expected).substr(0, 64));
  buffer.Assign("");
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DurFraming, Crc32MatchesKnownVector) {
  // The standard zlib check value: crc32("123456789") = 0xcbf43926.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

}  // namespace
}  // namespace dur
}  // namespace histkanon
