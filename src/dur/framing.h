// Checksummed record framing for the write-ahead journal.
//
// Layout:
//
//   file   := magic record*              magic = "HKDURJL1" (8 bytes)
//   record := u32 length | u32 crc32(payload) | payload
//
// The framing layer is payload-agnostic; the TS-specific event/snapshot
// codec lives in src/ts/durability.h.  What it guarantees:
//
//  - a TORN TAIL (the file ends mid-record, the usual crash shape) is
//    detected by the length prefix running past the end of the file;
//  - a CORRUPTED record (bit rot, partial sector write) is detected by the
//    CRC mismatch;
//  - in both cases the scan stops at the last intact record and reports
//    exactly how many bytes were valid, so recovery replays the intact
//    prefix and discards the damage — never replays garbage.

#ifndef HISTKANON_SRC_DUR_FRAMING_H_
#define HISTKANON_SRC_DUR_FRAMING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/dur/append_buffer.h"

namespace histkanon {
namespace dur {

/// The 8-byte file magic every journal starts with.
std::string_view JournalMagic();

/// Upper bound on a single record's payload (64 MiB).  A length prefix
/// beyond it is treated as corruption, bounding allocations when scanning
/// hostile bytes.
inline constexpr uint32_t kMaxRecordPayload = 64u << 20;

/// Bytes of a record header (u32 length + u32 crc) before its payload.
inline constexpr size_t kRecordHeaderBytes = 8;

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) of `bytes`.
uint32_t Crc32(std::string_view bytes);

/// Appends the file magic to an empty journal buffer.
void AppendMagic(std::string* out);

/// Appends one framed record (length + crc + payload) to `out`.
void AppendRecord(std::string* out, std::string_view payload);
void AppendRecord(AppendBuffer* out, std::string_view payload);

/// Outcome of an incremental single-record parse (ParseRecordAt).
enum class RecordParse : uint8_t {
  kRecord = 0,    ///< A whole intact record starts at `pos`.
  kNeedMore = 1,  ///< The bytes end mid-record (torn tail / short read).
  kBad = 2,       ///< Corruption: length over the cap or CRC mismatch.
};

/// Parses ONE framed record starting at `pos`.  The incremental primitive
/// shared by the whole-buffer journal scan below and the streaming wire
/// decoder (src/net/framing.h): on kRecord, `*payload` views the record
/// payload and `*consumed` is the full record size (header + payload); on
/// kBad, `*error` names the corruption.  `max_payload` bounds allocations
/// when parsing hostile bytes (journals use kMaxRecordPayload; the wire
/// uses a much smaller per-frame cap).
RecordParse ParseRecordAt(std::string_view bytes, size_t pos,
                          uint32_t max_payload, std::string_view* payload,
                          size_t* consumed, std::string* error);

/// \brief Result of scanning a (possibly damaged) journal byte string.
struct ScanResult {
  /// Payloads of the intact prefix records, in file order.  Views into the
  /// scanned bytes — valid only while the input outlives the result.
  std::vector<std::string_view> records;
  /// Bytes of the intact prefix (magic + intact records).  Truncating the
  /// file here yields a clean journal.
  size_t valid_bytes = 0;
  /// True when the file ended exactly on a record boundary.
  bool clean = true;
  /// Human-readable reason the scan stopped early (empty when clean).
  std::string tail_error;
};

/// Scans `bytes` front to back, stopping at the first torn or corrupted
/// record.  Fails with InvalidArgument only when the bytes are not a
/// journal at all (full magic present but wrong); a mere prefix of the
/// magic — the file torn inside the header — scans as zero records with
/// clean=false.
common::Result<ScanResult> ScanRecords(std::string_view bytes);

/// Every crash-consistent cut point of `bytes`: the end of the magic and
/// the end of each intact record, in increasing order.  Truncating the
/// journal at any returned offset yields a clean journal; the kill-point
/// harness iterates these.
std::vector<size_t> RecordBoundaries(std::string_view bytes);

}  // namespace dur
}  // namespace histkanon

#endif  // HISTKANON_SRC_DUR_FRAMING_H_
