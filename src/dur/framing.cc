#include "src/dur/framing.h"

#include <array>

#include "src/dur/encode.h"

namespace histkanon {
namespace dur {

namespace {

constexpr std::string_view kMagic = "HKDURJL1";

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::string_view JournalMagic() { return kMagic; }

uint32_t Crc32(std::string_view bytes) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xffffffffu;
  for (const char c : bytes) {
    crc = (crc >> 8) ^ kTable[(crc ^ static_cast<uint8_t>(c)) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

void AppendMagic(std::string* out) { out->append(kMagic); }

namespace {

std::string RecordHeader(std::string_view payload) {
  ByteWriter header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));
  return header.bytes();
}

}  // namespace

void AppendRecord(std::string* out, std::string_view payload) {
  out->append(RecordHeader(payload));
  out->append(payload.data(), payload.size());
}

void AppendRecord(AppendBuffer* out, std::string_view payload) {
  out->Append(RecordHeader(payload));
  out->Append(payload);
}

RecordParse ParseRecordAt(std::string_view bytes, size_t pos,
                          uint32_t max_payload, std::string_view* payload,
                          size_t* consumed, std::string* error) {
  ByteReader header(bytes.substr(pos));
  uint32_t length = 0;
  uint32_t crc = 0;
  if (!header.ReadU32(&length).ok() || !header.ReadU32(&crc).ok()) {
    return RecordParse::kNeedMore;
  }
  if (length > max_payload) {
    if (error != nullptr) {
      *error = "record length exceeds cap (corrupt header)";
    }
    return RecordParse::kBad;
  }
  const size_t body_start = pos + header.position();
  if (length > bytes.size() - body_start) return RecordParse::kNeedMore;
  const std::string_view body = bytes.substr(body_start, length);
  if (Crc32(body) != crc) {
    if (error != nullptr) *error = "record checksum mismatch";
    return RecordParse::kBad;
  }
  if (payload != nullptr) *payload = body;
  if (consumed != nullptr) *consumed = header.position() + length;
  return RecordParse::kRecord;
}

common::Result<ScanResult> ScanRecords(std::string_view bytes) {
  ScanResult result;
  if (bytes.size() < kMagic.size()) {
    // Torn inside the header: recover to an empty journal.  An empty file
    // is trivially clean; a partial magic that matches so far is a torn
    // header, anything else is not a journal.
    if (bytes != kMagic.substr(0, bytes.size())) {
      return common::Status::InvalidArgument("not a journal: bad magic");
    }
    result.clean = bytes.empty();
    if (!result.clean) result.tail_error = "torn file header";
    return result;
  }
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    return common::Status::InvalidArgument("not a journal: bad magic");
  }

  size_t pos = kMagic.size();
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    std::string_view payload;
    size_t consumed = 0;
    std::string error;
    const RecordParse parse = ParseRecordAt(bytes, pos, kMaxRecordPayload,
                                            &payload, &consumed, &error);
    if (parse == RecordParse::kNeedMore) {
      result.clean = false;
      result.tail_error =
          bytes.size() - pos < 8 ? "torn record header" : "torn record body";
      break;
    }
    if (parse == RecordParse::kBad) {
      result.clean = false;
      result.tail_error = std::move(error);
      break;
    }
    result.records.push_back(payload);
    pos += consumed;
    result.valid_bytes = pos;
  }
  return result;
}

std::vector<size_t> RecordBoundaries(std::string_view bytes) {
  std::vector<size_t> boundaries;
  common::Result<ScanResult> scan = ScanRecords(bytes);
  if (!scan.ok()) return boundaries;
  if (bytes.size() < kMagic.size()) return boundaries;
  boundaries.push_back(kMagic.size());
  size_t pos = kMagic.size();
  for (const std::string_view record : scan->records) {
    pos += kRecordHeaderBytes + record.size();
    boundaries.push_back(pos);
  }
  return boundaries;
}

}  // namespace dur
}  // namespace histkanon
