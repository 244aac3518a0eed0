// Implementation of the durability layer: the journal event codec, the
// TrustedServer snapshot codec, and replay-based recovery.  The
// TrustedServer member functions declared under "Durability" in
// trusted_server.h live here too, next to the record formats they depend
// on.

#include "src/ts/durability.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <utility>

#include "src/common/str.h"
#include "src/dur/encode.h"
#include "src/dur/framing.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/ts/shard.h"

namespace histkanon {
namespace ts {
namespace {

constexpr std::string_view kSnapshotMagic = "HKSNAP01";
constexpr std::string_view kConcurrentSnapshotMagic = "HKCCKPT1";

// ---------------------------------------------------------------------
// Primitive codecs.  Every decoder is Status-returning and validates
// enum ranges: snapshot bytes come from disk and a CRC only proves the
// bytes are the ones written, not that they are sane.

void PutPoint(dur::ByteWriter* writer, const geo::STPoint& point) {
  writer->PutDouble(point.p.x);
  writer->PutDouble(point.p.y);
  writer->PutI64(point.t);
}

common::Status ReadPoint(dur::ByteReader* reader, geo::STPoint* point) {
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&point->p.x));
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&point->p.y));
  HISTKANON_RETURN_NOT_OK(reader->ReadI64(&point->t));
  return common::Status::OK();
}

void PutBox(dur::ByteWriter* writer, const geo::STBox& box) {
  writer->PutDouble(box.area.min_x);
  writer->PutDouble(box.area.min_y);
  writer->PutDouble(box.area.max_x);
  writer->PutDouble(box.area.max_y);
  writer->PutI64(box.time.lo);
  writer->PutI64(box.time.hi);
}

common::Status ReadBox(dur::ByteReader* reader, geo::STBox* box) {
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&box->area.min_x));
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&box->area.min_y));
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&box->area.max_x));
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&box->area.max_y));
  HISTKANON_RETURN_NOT_OK(reader->ReadI64(&box->time.lo));
  HISTKANON_RETURN_NOT_OK(reader->ReadI64(&box->time.hi));
  return common::Status::OK();
}

void PutRngState(dur::ByteWriter* writer, const common::Rng::State& state) {
  for (const uint64_t word : state.s) writer->PutU64(word);
  writer->PutBool(state.has_cached_normal);
  writer->PutDouble(state.cached_normal);
}

common::Status ReadRngState(dur::ByteReader* reader,
                            common::Rng::State* state) {
  for (uint64_t& word : state->s) HISTKANON_RETURN_NOT_OK(reader->ReadU64(&word));
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&state->has_cached_normal));
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&state->cached_normal));
  return common::Status::OK();
}

void PutPolicy(dur::ByteWriter* writer, const PrivacyPolicy& policy) {
  writer->PutU8(static_cast<uint8_t>(policy.concern));
  writer->PutU64(policy.k);
  writer->PutDouble(policy.theta);
  writer->PutDouble(policy.k_schedule.initial_factor);
  writer->PutU64(policy.k_schedule.decrement_per_step);
  writer->PutDouble(policy.default_context_scale);
}

common::Status ReadPolicy(dur::ByteReader* reader, PrivacyPolicy* policy) {
  uint8_t concern = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU8(&concern));
  if (concern > static_cast<uint8_t>(PrivacyConcern::kHigh)) {
    return common::Status::InvalidArgument("bad privacy concern byte");
  }
  policy->concern = static_cast<PrivacyConcern>(concern);
  uint64_t k = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&k));
  policy->k = static_cast<size_t>(k);
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&policy->theta));
  HISTKANON_RETURN_NOT_OK(
      reader->ReadDouble(&policy->k_schedule.initial_factor));
  uint64_t decrement = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&decrement));
  policy->k_schedule.decrement_per_step = static_cast<size_t>(decrement);
  HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&policy->default_context_scale));
  return common::Status::OK();
}

void PutService(dur::ByteWriter* writer, const anon::ServiceProfile& service) {
  writer->PutI32(service.id);
  writer->PutString(service.name);
  writer->PutDouble(service.tolerance.max_area_width);
  writer->PutDouble(service.tolerance.max_area_height);
  writer->PutI64(service.tolerance.max_time_window);
}

common::Status ReadService(dur::ByteReader* reader,
                           anon::ServiceProfile* service) {
  HISTKANON_RETURN_NOT_OK(reader->ReadI32(&service->id));
  HISTKANON_RETURN_NOT_OK(reader->ReadString(&service->name));
  HISTKANON_RETURN_NOT_OK(
      reader->ReadDouble(&service->tolerance.max_area_width));
  HISTKANON_RETURN_NOT_OK(
      reader->ReadDouble(&service->tolerance.max_area_height));
  HISTKANON_RETURN_NOT_OK(
      reader->ReadI64(&service->tolerance.max_time_window));
  return common::Status::OK();
}

void PutRuleSet(dur::ByteWriter* writer, const PolicyRuleSet& rules) {
  PutPolicy(writer, rules.fallback());
  writer->PutU64(rules.rules().size());
  for (const PolicyRule& rule : rules.rules()) {
    writer->PutBool(rule.service.has_value());
    if (rule.service.has_value()) writer->PutI32(*rule.service);
    writer->PutBool(rule.window.has_value());
    if (rule.window.has_value()) {
      writer->PutI64(rule.window->begin_second_of_day());
      writer->PutI64(rule.window->end_second_of_day());
    }
    writer->PutBool(rule.weekdays_only.has_value());
    if (rule.weekdays_only.has_value()) writer->PutBool(*rule.weekdays_only);
    PutPolicy(writer, rule.policy);
  }
}

common::Result<PolicyRuleSet> ReadRuleSet(dur::ByteReader* reader) {
  PrivacyPolicy fallback;
  HISTKANON_RETURN_NOT_OK(ReadPolicy(reader, &fallback));
  PolicyRuleSet rules(fallback);
  uint64_t count = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    PolicyRule rule;
    bool has = false;
    HISTKANON_RETURN_NOT_OK(reader->ReadBool(&has));
    if (has) {
      mod::ServiceId service = 0;
      HISTKANON_RETURN_NOT_OK(reader->ReadI32(&service));
      rule.service = service;
    }
    HISTKANON_RETURN_NOT_OK(reader->ReadBool(&has));
    if (has) {
      int64_t begin = 0;
      int64_t end = 0;
      HISTKANON_RETURN_NOT_OK(reader->ReadI64(&begin));
      HISTKANON_RETURN_NOT_OK(reader->ReadI64(&end));
      HISTKANON_ASSIGN_OR_RETURN(rule.window,
                                 tgran::UTimeInterval::Create(begin, end));
    }
    HISTKANON_RETURN_NOT_OK(reader->ReadBool(&has));
    if (has) {
      bool weekdays = false;
      HISTKANON_RETURN_NOT_OK(reader->ReadBool(&weekdays));
      rule.weekdays_only = weekdays;
    }
    HISTKANON_RETURN_NOT_OK(ReadPolicy(reader, &rule.policy));
    rules.AddRule(std::move(rule));
  }
  return rules;
}

void PutLbqid(dur::ByteWriter* writer, const lbqid::Lbqid& lbqid) {
  writer->PutString(lbqid.name());
  writer->PutU64(lbqid.elements().size());
  for (const lbqid::LbqidElement& element : lbqid.elements()) {
    writer->PutDouble(element.area.min_x);
    writer->PutDouble(element.area.min_y);
    writer->PutDouble(element.area.max_x);
    writer->PutDouble(element.area.max_y);
    writer->PutI64(element.time.begin_second_of_day());
    writer->PutI64(element.time.end_second_of_day());
  }
  // Granularities travel by NAME and are resolved against the decoder's
  // registry; custom granularities must be re-registered before recovery.
  writer->PutU64(lbqid.recurrence().terms().size());
  for (const tgran::RecurrenceTerm& term : lbqid.recurrence().terms()) {
    writer->PutI64(term.count);
    writer->PutString(term.granularity->name());
  }
}

common::Result<lbqid::Lbqid> ReadLbqid(
    dur::ByteReader* reader, const tgran::GranularityRegistry& registry) {
  std::string name;
  HISTKANON_RETURN_NOT_OK(reader->ReadString(&name));
  uint64_t element_count = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&element_count));
  std::vector<lbqid::LbqidElement> elements;
  for (uint64_t i = 0; i < element_count; ++i) {
    geo::Rect area;
    HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&area.min_x));
    HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&area.min_y));
    HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&area.max_x));
    HISTKANON_RETURN_NOT_OK(reader->ReadDouble(&area.max_y));
    int64_t begin = 0;
    int64_t end = 0;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&begin));
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&end));
    HISTKANON_ASSIGN_OR_RETURN(tgran::UTimeInterval time,
                               tgran::UTimeInterval::Create(begin, end));
    elements.push_back(lbqid::LbqidElement{area, time});
  }
  uint64_t term_count = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&term_count));
  std::vector<tgran::RecurrenceTerm> terms;
  for (uint64_t i = 0; i < term_count; ++i) {
    int64_t count = 0;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&count));
    std::string granularity_name;
    HISTKANON_RETURN_NOT_OK(reader->ReadString(&granularity_name));
    HISTKANON_ASSIGN_OR_RETURN(tgran::GranularityPtr granularity,
                               registry.Find(granularity_name));
    terms.push_back(
        tgran::RecurrenceTerm{static_cast<int>(count), granularity});
  }
  HISTKANON_ASSIGN_OR_RETURN(tgran::Recurrence recurrence,
                             tgran::Recurrence::Create(std::move(terms)));
  return lbqid::Lbqid::Create(std::move(name), std::move(elements),
                              std::move(recurrence));
}

void PutMatcherState(dur::ByteWriter* writer,
                     const lbqid::LbqidMatcher::DurableState& state) {
  writer->PutU64(state.partial_times.size());
  for (const geo::Instant t : state.partial_times) writer->PutI64(t);
  writer->PutBool(state.partial_granule.has_value());
  if (state.partial_granule.has_value()) writer->PutI64(*state.partial_granule);
  writer->PutU64(state.completions.size());
  for (const geo::Instant t : state.completions) writer->PutI64(t);
  writer->PutBool(state.complete);
}

common::Status ReadMatcherState(dur::ByteReader* reader,
                                lbqid::LbqidMatcher::DurableState* state) {
  uint64_t count = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    geo::Instant t = 0;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&t));
    state->partial_times.push_back(t);
  }
  bool has_granule = false;
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&has_granule));
  if (has_granule) {
    int64_t granule = 0;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&granule));
    state->partial_granule = granule;
  }
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    geo::Instant t = 0;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&t));
    state->completions.push_back(t);
  }
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&state->complete));
  return common::Status::OK();
}

void PutPseudonymState(dur::ByteWriter* writer,
                       const anon::PseudonymManager::DurableState& state) {
  PutRngState(writer, state.rng);
  writer->PutU64(state.current.size());
  for (const auto& [user, pseudonym] : state.current) {
    writer->PutI64(user);
    writer->PutString(pseudonym);
  }
  writer->PutU64(state.generation.size());
  for (const auto& [user, generation] : state.generation) {
    writer->PutI64(user);
    writer->PutU64(generation);
  }
  writer->PutU64(state.reverse.size());
  for (const auto& [pseudonym, user] : state.reverse) {
    writer->PutString(pseudonym);
    writer->PutI64(user);
  }
}

common::Status ReadPseudonymState(
    dur::ByteReader* reader, anon::PseudonymManager::DurableState* state) {
  HISTKANON_RETURN_NOT_OK(ReadRngState(reader, &state->rng));
  uint64_t count = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    mod::UserId user = mod::kInvalidUser;
    std::string pseudonym;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&user));
    HISTKANON_RETURN_NOT_OK(reader->ReadString(&pseudonym));
    state->current[user] = std::move(pseudonym);
  }
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    mod::UserId user = mod::kInvalidUser;
    uint64_t generation = 0;
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&user));
    HISTKANON_RETURN_NOT_OK(reader->ReadU64(&generation));
    state->generation[user] = static_cast<size_t>(generation);
  }
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string pseudonym;
    mod::UserId user = mod::kInvalidUser;
    HISTKANON_RETURN_NOT_OK(reader->ReadString(&pseudonym));
    HISTKANON_RETURN_NOT_OK(reader->ReadI64(&user));
    state->reverse[std::move(pseudonym)] = user;
  }
  return common::Status::OK();
}

void PutOutcome(dur::ByteWriter* writer, const ProcessOutcome& outcome) {
  writer->PutU8(static_cast<uint8_t>(outcome.disposition));
  writer->PutBool(outcome.forwarded);
  PutPoint(writer, outcome.exact);
  writer->PutI64(outcome.forwarded_request.msgid);
  writer->PutString(outcome.forwarded_request.pseudonym);
  PutBox(writer, outcome.forwarded_request.context);
  writer->PutI32(outcome.forwarded_request.service);
  writer->PutString(outcome.forwarded_request.data);
  writer->PutBool(outcome.hk_anonymity);
  writer->PutBool(outcome.matched_lbqid);
  writer->PutU64(outcome.lbqid_index);
  writer->PutU64(outcome.element_index);
  writer->PutBool(outcome.lbqid_completed);
}

common::Status ReadOutcome(dur::ByteReader* reader, ProcessOutcome* outcome) {
  uint8_t disposition = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU8(&disposition));
  if (disposition > static_cast<uint8_t>(Disposition::kRejected)) {
    return common::Status::InvalidArgument("bad disposition byte");
  }
  outcome->disposition = static_cast<Disposition>(disposition);
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&outcome->forwarded));
  HISTKANON_RETURN_NOT_OK(ReadPoint(reader, &outcome->exact));
  HISTKANON_RETURN_NOT_OK(reader->ReadI64(&outcome->forwarded_request.msgid));
  HISTKANON_RETURN_NOT_OK(
      reader->ReadString(&outcome->forwarded_request.pseudonym));
  HISTKANON_RETURN_NOT_OK(ReadBox(reader, &outcome->forwarded_request.context));
  HISTKANON_RETURN_NOT_OK(
      reader->ReadI32(&outcome->forwarded_request.service));
  HISTKANON_RETURN_NOT_OK(reader->ReadString(&outcome->forwarded_request.data));
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&outcome->hk_anonymity));
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&outcome->matched_lbqid));
  uint64_t index = 0;
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&index));
  outcome->lbqid_index = static_cast<size_t>(index);
  HISTKANON_RETURN_NOT_OK(reader->ReadU64(&index));
  outcome->element_index = static_cast<size_t>(index);
  HISTKANON_RETURN_NOT_OK(reader->ReadBool(&outcome->lbqid_completed));
  return common::Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// Journal event codec.

std::string EncodeJournalEvent(const JournalEvent& event) {
  dur::ByteWriter writer;
  writer.PutU8(kJournalEventRecord);
  writer.PutU8(static_cast<uint8_t>(event.kind));
  writer.PutI64(event.user);
  PutPoint(&writer, event.point);
  writer.PutI32(event.service_id);
  writer.PutString(event.data);
  switch (event.kind) {
    case JournalEvent::Kind::kRegisterService:
      PutService(&writer, event.service);
      break;
    case JournalEvent::Kind::kRegisterUser:
      PutPolicy(&writer, event.policy);
      break;
    case JournalEvent::Kind::kRegisterLbqid:
      PutLbqid(&writer, *event.lbqid);
      break;
    case JournalEvent::Kind::kSetRules:
      PutRuleSet(&writer, *event.rules);
      break;
    case JournalEvent::Kind::kBatch: {
      static const std::vector<BatchRequest> kEmptyBatch;
      const std::vector<BatchRequest>& batch =
          event.batch == nullptr ? kEmptyBatch : *event.batch;
      writer.PutU64(batch.size());
      for (const BatchRequest& request : batch) {
        writer.PutI64(request.user);
        PutPoint(&writer, request.exact);
        writer.PutI32(request.service);
        writer.PutString(request.data);
      }
      break;
    }
    case JournalEvent::Kind::kUpdate:
    case JournalEvent::Kind::kRequest:
    case JournalEvent::Kind::kEpochEnd:
      break;
  }
  return writer.TakeBytes();
}

common::Result<JournalEvent> DecodeJournalEvent(
    std::string_view payload, const tgran::GranularityRegistry& registry) {
  dur::ByteReader reader(payload);
  uint8_t record_type = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU8(&record_type));
  if (record_type != kJournalEventRecord) {
    return common::Status::InvalidArgument("not an event record");
  }
  uint8_t kind = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU8(&kind));
  if (kind < static_cast<uint8_t>(JournalEvent::Kind::kRegisterService) ||
      kind > static_cast<uint8_t>(JournalEvent::Kind::kBatch)) {
    return common::Status::InvalidArgument("bad journal event kind");
  }
  JournalEvent event;
  event.kind = static_cast<JournalEvent::Kind>(kind);
  HISTKANON_RETURN_NOT_OK(reader.ReadI64(&event.user));
  HISTKANON_RETURN_NOT_OK(ReadPoint(&reader, &event.point));
  HISTKANON_RETURN_NOT_OK(reader.ReadI32(&event.service_id));
  HISTKANON_RETURN_NOT_OK(reader.ReadString(&event.data));
  switch (event.kind) {
    case JournalEvent::Kind::kRegisterService:
      HISTKANON_RETURN_NOT_OK(ReadService(&reader, &event.service));
      break;
    case JournalEvent::Kind::kRegisterUser:
      HISTKANON_RETURN_NOT_OK(ReadPolicy(&reader, &event.policy));
      break;
    case JournalEvent::Kind::kRegisterLbqid: {
      HISTKANON_ASSIGN_OR_RETURN(lbqid::Lbqid lbqid,
                                 ReadLbqid(&reader, registry));
      event.lbqid = std::make_shared<const lbqid::Lbqid>(std::move(lbqid));
      break;
    }
    case JournalEvent::Kind::kSetRules: {
      HISTKANON_ASSIGN_OR_RETURN(PolicyRuleSet rules, ReadRuleSet(&reader));
      event.rules = std::make_shared<const PolicyRuleSet>(std::move(rules));
      break;
    }
    case JournalEvent::Kind::kBatch: {
      uint64_t count = 0;
      HISTKANON_RETURN_NOT_OK(reader.ReadU64(&count));
      std::vector<BatchRequest> batch;
      for (uint64_t i = 0; i < count; ++i) {
        BatchRequest request;
        HISTKANON_RETURN_NOT_OK(reader.ReadI64(&request.user));
        HISTKANON_RETURN_NOT_OK(ReadPoint(&reader, &request.exact));
        HISTKANON_RETURN_NOT_OK(reader.ReadI32(&request.service));
        HISTKANON_RETURN_NOT_OK(reader.ReadString(&request.data));
        batch.push_back(std::move(request));
      }
      event.batch = std::make_shared<const std::vector<BatchRequest>>(
          std::move(batch));
      break;
    }
    case JournalEvent::Kind::kUpdate:
    case JournalEvent::Kind::kRequest:
    case JournalEvent::Kind::kEpochEnd:
      break;
  }
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument(
        "trailing bytes after journal event");
  }
  return event;
}

// ---------------------------------------------------------------------
// TsJournal.

TsJournal::TsJournal() { bytes_.Append(dur::JournalMagic()); }

common::Status TsJournal::AppendEvent(const JournalEvent& event) {
  HISTKANON_FAILPOINT_RETURN(fail::kDurJournalAppend);
  const size_t old_size = bytes_.size();
  dur::AppendRecord(&bytes_, EncodeJournalEvent(event));
  HISTKANON_RETURN_NOT_OK(CommitAppend(old_size));
  ++event_count_;
  return common::Status::OK();
}

common::Status TsJournal::AppendSnapshot(std::string_view snapshot) {
  HISTKANON_FAILPOINT_RETURN(fail::kDurJournalSnapshot);
  dur::ByteWriter writer;
  writer.PutU8(kJournalSnapshotRecord);
  writer.PutU64(event_count_);
  writer.PutString(snapshot);
  const size_t old_size = bytes_.size();
  dur::AppendRecord(&bytes_, writer.bytes());
  HISTKANON_RETURN_NOT_OK(CommitAppend(old_size));
  // The prefix before this record is subsumed: recovery scans forward to
  // the LAST intact snapshot, so everything earlier is dead weight that
  // Compact() may reclaim.
  last_snapshot_offset_ = old_size;
  if (auto_compact_) {
    // Best-effort: a failed compaction leaves the uncompacted journal
    // fully valid (a failed reopen poisons the sink fail-closed instead);
    // either way THIS snapshot append succeeded.
    (void)Compact();
  }
  return common::Status::OK();
}

common::Status TsJournal::AppendAnnotation(uint64_t next_trace_id) {
  dur::ByteWriter writer;
  writer.PutU8(kJournalAnnotationRecord);
  writer.PutU64(next_trace_id);
  const size_t old_size = bytes_.size();
  dur::AppendRecord(&bytes_, writer.bytes());
  return CommitAppend(old_size);
}

common::Status TsJournal::CommitAppend(size_t old_size) {
  if (sink_broken_) {
    // A compaction renamed the file but could not reopen it: appending
    // in memory only would diverge from the durable artifact, so the
    // journal fails closed and the caller suppresses the event.
    bytes_.Truncate(old_size);
    return common::Status::Internal(
        "journal sink lost by a failed compaction reopen");
  }
  if (sink_ == nullptr) return common::Status::OK();
  common::Status status = sink_->Append(bytes_.view().substr(old_size));
  if (!status.ok()) {
    // The record never happened: the in-memory journal stays the intact
    // prefix; whatever torn bytes reached the sink's medium are discarded
    // by the recovery scan's CRC check.
    bytes_.Truncate(old_size);
    return status;
  }
  return common::Status::OK();
}

common::Status TsJournal::AttachSink(dur::JournalSink* sink) {
  sink_ = sink;
  if (sink_ == nullptr) return common::Status::OK();
  // Catch up: the sink must hold everything journaled so far.
  common::Status status = sink_->Append(bytes_.view());
  if (!status.ok()) sink_ = nullptr;
  return status;
}

common::Status TsJournal::Sync() {
  if (sink_ == nullptr) return common::Status::OK();
  return sink_->Sync();
}

common::Status TsJournal::WriteToFile(const std::string& path) const {
  HISTKANON_ASSIGN_OR_RETURN(std::unique_ptr<dur::FileSink> sink,
                             dur::FileSink::Open(path));
  HISTKANON_RETURN_NOT_OK(sink->Append(bytes_.view()));
  return sink->Close();
}

common::Status TsJournal::OpenFileSink(std::string path) {
  HISTKANON_ASSIGN_OR_RETURN(std::unique_ptr<dur::FileSink> sink,
                             dur::FileSink::Open(path));
  HISTKANON_RETURN_NOT_OK(AttachSink(sink.get()));
  owned_sink_ = std::move(sink);
  path_ = std::move(path);
  sink_broken_ = false;
  return common::Status::OK();
}

common::Status TsJournal::Compact() {
  if (sink_broken_) {
    return common::Status::Internal(
        "journal sink lost by a failed compaction reopen");
  }
  if (sink_ != nullptr && owned_sink_ == nullptr) {
    return common::Status::FailedPrecondition(
        "compaction requires an owned file sink (or none): an externally "
        "attached sink's contents cannot be rewritten");
  }
  const size_t magic_size = dur::JournalMagic().size();
  if (last_snapshot_offset_ <= magic_size) {
    return common::Status::OK();  // no snapshot yet, or nothing before it
  }
  std::string compacted;
  compacted.reserve(magic_size + bytes_.size() - last_snapshot_offset_);
  dur::AppendMagic(&compacted);
  compacted.append(bytes_.view().substr(last_snapshot_offset_));
  if (owned_sink_ != nullptr) {
    // Copy-forward + atomic rename.  The tmp file is synced before the
    // rename, so the snapshot record is durable in the NEW file before
    // the old one (and the prefix it subsumed) disappears; a crash at
    // any byte leaves either the full or the compacted journal, both of
    // which recover to the same state.
    const std::string tmp = path_ + ".compact";
    {
      HISTKANON_FAILPOINT_RETURN(fail::kDurCompactWrite);
      HISTKANON_ASSIGN_OR_RETURN(std::unique_ptr<dur::FileSink> sink,
                                 dur::FileSink::Open(tmp));
      common::Status written = sink->Append(compacted);
      if (written.ok()) written = sink->Close();
      if (!written.ok()) {
        std::remove(tmp.c_str());
        return written;  // original journal untouched
      }
    }
    HISTKANON_FAILPOINT_RETURN(fail::kDurCompactRename);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      return common::Status::Internal(
          common::Format("rename(%s, %s) failed compacting the journal",
                         tmp.c_str(), path_.c_str()));
    }
    // Point of no return: the visible file IS the compacted journal, and
    // the old handle points at the unlinked inode.  Failing to reopen
    // leaves no sink, and CommitAppend refuses to diverge (fail-closed).
    sink_ = nullptr;
    owned_sink_.reset();
    const fail::Action reopen_gate =
        HISTKANON_FAILPOINT(fail::kDurCompactReopen);
    if (reopen_gate.kind == fail::ActionKind::kError) {
      sink_broken_ = true;
      return reopen_gate.ToStatus();
    }
    common::Result<std::unique_ptr<dur::FileSink>> reopened =
        dur::FileSink::OpenAppend(path_);
    if (!reopened.ok()) {
      sink_broken_ = true;
      return reopened.status();
    }
    owned_sink_ = std::move(*reopened);
    sink_ = owned_sink_.get();
  }
  bytes_.Assign(compacted);
  last_snapshot_offset_ = magic_size;
  ++compactions_;
  return common::Status::OK();
}

// ---------------------------------------------------------------------
// Journal scan.

common::Result<RecoveredJournal> ScanJournal(
    std::string_view bytes, const tgran::GranularityRegistry& registry) {
  HISTKANON_ASSIGN_OR_RETURN(dur::ScanResult scan, dur::ScanRecords(bytes));
  RecoveredJournal out;
  out.valid_bytes = scan.valid_bytes;
  out.clean = scan.clean;
  out.tail_error = scan.tail_error;
  // Every record decodes to at most one event: one exact allocation
  // instead of doubling (a long wire run journals an epoch marker per
  // window, so events can be most of a journal's records).
  out.events.reserve(scan.records.size());
  for (const std::string_view payload : scan.records) {
    dur::ByteReader reader(payload);
    uint8_t record_type = 0;
    common::Status status = reader.ReadU8(&record_type);
    if (status.ok() && record_type == kJournalEventRecord) {
      common::Result<JournalEvent> event =
          DecodeJournalEvent(payload, registry);
      if (event.ok()) {
        out.events.push_back(std::move(*event));
      } else {
        status = event.status();
      }
    } else if (status.ok() && record_type == kJournalSnapshotRecord) {
      uint64_t events_before = 0;
      std::string snapshot;
      status = reader.ReadU64(&events_before);
      if (status.ok()) status = reader.ReadString(&snapshot);
      if (status.ok() && !reader.AtEnd()) {
        status = common::Status::InvalidArgument(
            "trailing bytes after snapshot record");
      }
      if (status.ok()) {
        // An intact snapshot supersedes everything before it: recovery
        // restores it and replays only the events after.  An annotation
        // preceding this snapshot is stale (its replay suffix is gone), so
        // it is dropped too; the writer re-annotates right after every
        // snapshot append.
        out.snapshot = std::move(snapshot);
        out.events_before_snapshot = static_cast<size_t>(events_before);
        out.events.clear();
        out.has_trace_annotation = false;
        out.next_trace_id = 0;
        out.events_before_annotation = 0;
      }
    } else if (status.ok() && record_type == kJournalAnnotationRecord) {
      uint64_t next_trace_id = 0;
      status = reader.ReadU64(&next_trace_id);
      if (status.ok() && !reader.AtEnd()) {
        status = common::Status::InvalidArgument(
            "trailing bytes after annotation record");
      }
      if (status.ok()) {
        out.has_trace_annotation = true;
        out.next_trace_id = next_trace_id;
        out.events_before_annotation = out.events.size();
      }
    } else if (status.ok()) {
      status = common::Status::InvalidArgument("unknown record type byte");
    }
    if (!status.ok()) {
      // A CRC-valid but semantically undecodable record: treat it and
      // everything after as damage, exactly like a torn tail.
      out.clean = false;
      out.tail_error = status.message();
      // The record starts at its header, just before the payload view
      // into `bytes`.
      out.valid_bytes = static_cast<size_t>(payload.data() - bytes.data()) -
                        dur::kRecordHeaderBytes;
      break;
    }
  }
  out.total_events = out.events_before_snapshot + out.events.size();
  return out;
}

common::Result<std::vector<JournalEvent>> DecodeAllEvents(
    std::string_view bytes, const tgran::GranularityRegistry& registry) {
  HISTKANON_ASSIGN_OR_RETURN(dur::ScanResult scan, dur::ScanRecords(bytes));
  std::vector<JournalEvent> events;
  for (const std::string_view payload : scan.records) {
    if (payload.empty()) break;
    const uint8_t record_type = static_cast<uint8_t>(payload[0]);
    if (record_type == kJournalSnapshotRecord ||
        record_type == kJournalAnnotationRecord) {
      continue;
    }
    common::Result<JournalEvent> event = DecodeJournalEvent(payload, registry);
    if (!event.ok()) break;
    events.push_back(std::move(*event));
  }
  return events;
}

// ---------------------------------------------------------------------
// Replay.

void ApplyJournalEvent(TrustedServer* server, const JournalEvent& event) {
  switch (event.kind) {
    case JournalEvent::Kind::kRegisterService:
      (void)server->RegisterService(event.service);
      break;
    case JournalEvent::Kind::kRegisterUser:
      (void)server->RegisterUser(event.user, event.policy);
      break;
    case JournalEvent::Kind::kRegisterLbqid:
      if (event.lbqid != nullptr) {
        (void)server->RegisterLbqid(event.user, *event.lbqid);
      }
      break;
    case JournalEvent::Kind::kSetRules:
      if (event.rules != nullptr) {
        (void)server->SetUserRules(event.user, *event.rules);
      }
      break;
    case JournalEvent::Kind::kUpdate:
      server->OnLocationUpdate(event.user, event.point);
      break;
    case JournalEvent::Kind::kRequest:
      server->ProcessRequest(event.user, event.point, event.service_id,
                             event.data);
      break;
    case JournalEvent::Kind::kBatch:
      // Replay with batch semantics: up-front ingest + prewarm, serve in
      // submission order.  The recovered server has no journal attached,
      // so the internal JournalBatch admission is a breaker-only check.
      if (event.batch != nullptr) server->ProcessBatch(*event.batch);
      break;
    case JournalEvent::Kind::kEpochEnd:
      break;
  }
}

void ApplyConcurrentJournalEvent(ConcurrentServer* server,
                                 const JournalEvent& event) {
  switch (event.kind) {
    case JournalEvent::Kind::kRegisterService:
      (void)server->RegisterService(event.service);
      break;
    case JournalEvent::Kind::kRegisterUser:
      server->SubmitRegisterUser(event.user, event.policy);
      break;
    case JournalEvent::Kind::kRegisterLbqid:
      if (event.lbqid != nullptr) {
        server->SubmitRegisterLbqid(event.user, *event.lbqid);
      }
      break;
    case JournalEvent::Kind::kSetRules:
      if (event.rules != nullptr) {
        server->SubmitSetUserRules(event.user, *event.rules);
      }
      break;
    case JournalEvent::Kind::kUpdate:
      server->SubmitLocationUpdate(event.user, event.point);
      break;
    case JournalEvent::Kind::kRequest:
      server->SubmitRequest(event.user, event.point, event.service_id,
                            event.data);
      break;
    case JournalEvent::Kind::kBatch:
      // A concurrent stream has no composite batch submit; the window's
      // requests enter the epoch individually (the shard serve phase
      // already batches: frozen epoch + cell-sorted prewarm).
      if (event.batch != nullptr) {
        for (const BatchRequest& request : *event.batch) {
          server->SubmitRequest(request.user, request.exact, request.service,
                                request.data);
        }
      }
      break;
    case JournalEvent::Kind::kEpochEnd:
      server->EndEpoch();
      break;
  }
}

// ---------------------------------------------------------------------
// Workload flattening.

namespace {

JournalEvent FromWorkloadEvent(const WorkloadEvent& event) {
  JournalEvent out;
  out.user = event.user;
  out.point = event.point;
  out.service_id = event.service;
  out.data = event.data;
  switch (event.kind) {
    case WorkloadEvent::Kind::kUpdate:
      out.kind = JournalEvent::Kind::kUpdate;
      break;
    case WorkloadEvent::Kind::kRequest:
      out.kind = JournalEvent::Kind::kRequest;
      break;
    case WorkloadEvent::Kind::kRegisterUser:
      out.kind = JournalEvent::Kind::kRegisterUser;
      out.policy = event.policy;
      break;
    case WorkloadEvent::Kind::kRegisterLbqid:
      out.kind = JournalEvent::Kind::kRegisterLbqid;
      out.lbqid = event.lbqid;
      break;
    case WorkloadEvent::Kind::kSetRules:
      out.kind = JournalEvent::Kind::kSetRules;
      out.rules = event.rules;
      break;
  }
  return out;
}

std::vector<JournalEvent> ServiceEvents(const EpochedWorkload& workload) {
  std::vector<JournalEvent> events;
  for (const anon::ServiceProfile& service : workload.services) {
    JournalEvent event;
    event.kind = JournalEvent::Kind::kRegisterService;
    event.service = service;
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

std::vector<JournalEvent> FlattenSerialWorkload(
    const EpochedWorkload& workload) {
  std::vector<JournalEvent> events = ServiceEvents(workload);
  for (const std::vector<WorkloadEvent>& epoch : workload.epochs) {
    // Ingest pass: every event, a request contributing its exact point as
    // a location update (mirrors ReplayEpochsSerial).
    for (const WorkloadEvent& event : epoch) {
      JournalEvent flattened = FromWorkloadEvent(event);
      if (event.kind == WorkloadEvent::Kind::kRequest) {
        flattened.kind = JournalEvent::Kind::kUpdate;
        flattened.service_id = 0;
        flattened.data.clear();
      }
      events.push_back(std::move(flattened));
    }
    // Serve pass: the requests, in submission order.
    for (const WorkloadEvent& event : epoch) {
      if (event.kind != WorkloadEvent::Kind::kRequest) continue;
      events.push_back(FromWorkloadEvent(event));
    }
  }
  return events;
}

std::vector<JournalEvent> FlattenConcurrentWorkload(
    const EpochedWorkload& workload) {
  std::vector<JournalEvent> events = ServiceEvents(workload);
  for (const std::vector<WorkloadEvent>& epoch : workload.epochs) {
    for (const WorkloadEvent& event : epoch) {
      events.push_back(FromWorkloadEvent(event));
    }
    JournalEvent epoch_end;
    epoch_end.kind = JournalEvent::Kind::kEpochEnd;
    events.push_back(std::move(epoch_end));
  }
  return events;
}

// ---------------------------------------------------------------------
// TrustedServer admission hooks (write-ahead: called at the top of each
// entry point, before any state changes; a non-OK return means the entry
// point suppresses the mutation fail-closed).

common::Status TrustedServer::AdmitEvent(const JournalEvent& event) {
  const bool traced = options_.causal != nullptr;
  const bool is_request = event.kind == JournalEvent::Kind::kRequest;
  // A refused batch sheds ONE event but batch-size requests: its fail
  // path rejects every request in the window.
  const uint64_t shed_request_count =
      event.kind == JournalEvent::Kind::kBatch
          ? (event.batch == nullptr ? 0 : event.batch->size())
          : (is_request ? 1 : 0);
  const auto count_shed = [&] {
    ++shed_events_;
    if (obs_.shed_events != nullptr) obs_.shed_events->Increment();
    if (shed_request_count > 0) {
      shed_requests_ += shed_request_count;
      if (obs_.shed_requests != nullptr) {
        obs_.shed_requests->Increment(shed_request_count);
      }
    }
  };
  if (!breaker_.Admit()) {
    if (traced) admit_shed_reason_ = "degraded";
    count_shed();
    return common::Status::Unavailable(
        "trusted server degraded: event suppressed fail-closed");
  }
  if (journal_ != nullptr) {
    const int64_t append_start = traced ? obs::MonotonicNanos() : 0;
    common::Status status = journal_->AppendEvent(event);
    if (traced) {
      admit_journal_start_ns_ = append_start;
      admit_journal_dur_ns_ = obs::MonotonicNanos() - append_start;
      admit_journal_ran_ = true;
    }
    if (!status.ok()) {
      if (traced) admit_shed_reason_ = "journal_error";
      ++journal_failures_;
      if (obs_.journal_failures != nullptr) obs_.journal_failures->Increment();
      breaker_.RecordFailure();
      count_shed();
      return status;
    }
  }
  breaker_.RecordSuccess();
  ++admitted_events_;
  return common::Status::OK();
}

common::Status TrustedServer::JournalRegisterService(
    const anon::ServiceProfile& service) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterService;
  event.service = service;
  return AdmitEvent(event);
}

common::Status TrustedServer::JournalRegisterUser(mod::UserId user,
                                                  const PrivacyPolicy& policy) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterUser;
  event.user = user;
  event.policy = policy;
  return AdmitEvent(event);
}

common::Status TrustedServer::JournalRegisterLbqid(mod::UserId user,
                                                   const lbqid::Lbqid& lbqid) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterLbqid;
  event.user = user;
  event.lbqid = std::make_shared<const lbqid::Lbqid>(lbqid);
  return AdmitEvent(event);
}

common::Status TrustedServer::JournalSetUserRules(mod::UserId user,
                                                  const PolicyRuleSet& rules) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kSetRules;
  event.user = user;
  event.rules = std::make_shared<const PolicyRuleSet>(rules);
  return AdmitEvent(event);
}

common::Status TrustedServer::JournalUpdate(mod::UserId user,
                                            const geo::STPoint& sample) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kUpdate;
  event.user = user;
  event.point = sample;
  return AdmitEvent(event);
}

common::Status TrustedServer::JournalRequest(mod::UserId user,
                                             const geo::STPoint& exact,
                                             mod::ServiceId service,
                                             const std::string& data) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kRequest;
  event.user = user;
  event.point = exact;
  event.service_id = service;
  event.data = data;
  return AdmitEvent(event);
}

common::Status TrustedServer::JournalBatch(
    const std::vector<BatchRequest>& requests) {
  JournalEvent event;
  event.kind = JournalEvent::Kind::kBatch;
  event.batch = std::make_shared<const std::vector<BatchRequest>>(requests);
  return AdmitEvent(event);
}

// ---------------------------------------------------------------------
// Resource accounting.

void TrustedServer::RegisterResourceProbes(obs::ResourceAccountant* accountant,
                                           const std::string& prefix) const {
  if (accountant == nullptr) return;
  // Probes run on the accountant's Collect() caller, which the contract
  // requires not to race this server's writer thread; `this` is captured
  // raw and must outlive the accountant's probe set.
  accountant->RegisterProbe(prefix + "phl_samples", [this] {
    return static_cast<uint64_t>(db_.total_samples() * sizeof(geo::STPoint));
  });
  accountant->RegisterProbe(prefix + "journal", [this] {
    return static_cast<uint64_t>(journal_ == nullptr ? 0 : journal_->size());
  });
  accountant->RegisterProbe(
      prefix + "snapshot", [this] { return last_checkpoint_bytes_; });
  // Nominal per-entry cost: a cached vector of ~k user ids plus map
  // overhead.  An estimate — the gauge tracks growth, not exact heap use.
  constexpr uint64_t kAnchorCacheEntryBytes = 128;
  accountant->RegisterProbe(prefix + "anchor_cache", [this] {
    return static_cast<uint64_t>(generalizer_->cache_entries()) *
           kAnchorCacheEntryBytes;
  });
  accountant->RegisterProbe(prefix + "event_log", [this] {
    return options_.event_sink == nullptr
               ? uint64_t{0}
               : options_.event_sink->bytes_written();
  });
  accountant->RegisterProbe(prefix + "outcomes", [this] {
    return static_cast<uint64_t>(outcomes_.size() * sizeof(ProcessOutcome));
  });
  if (cold_ != nullptr) {
    // Tiered storage: what is actually RESIDENT — the flat-RSS soak
    // watches these stay bounded while phl_samples (hot + archived)
    // grows without limit.
    accountant->RegisterProbe(prefix + "phl_hot", [this] {
      return static_cast<uint64_t>(db_.hot_samples() * sizeof(geo::STPoint));
    });
    accountant->RegisterProbe(prefix + "cold_resident",
                              [this] { return cold_->resident_bytes(); });
  }
}

// ---------------------------------------------------------------------
// TrustedServer snapshot / restore.

common::Result<std::string> TrustedServer::Checkpoint() const {
  HISTKANON_FAILPOINT_RETURN(fail::kTsCheckpoint);
  dur::ByteWriter writer;
  writer.PutString(kSnapshotMagic);
  // Determinism fingerprint: the option fields recovery must match for a
  // restored server to continue the crashed server's exact streams.
  writer.PutU64(options_.pseudonym_seed);
  writer.PutU64(options_.randomizer_seed);
  writer.PutBool(options_.enable_unlinking);
  writer.PutBool(options_.enable_randomization);
  writer.PutBool(options_.forward_when_at_risk);
  writer.PutBool(options_.per_request_randomization);
  writer.PutDouble(options_.randomizer.max_expand_fraction);
  // Retention is part of the fingerprint (DESIGN.md §16): it decides
  // which samples are evictable, when seals fire on the event timeline,
  // and how much outcome history survives — a twin with different
  // retention diverges, so RestoreFrom must refuse its blobs.
  writer.PutBool(options_.retention.enabled);
  writer.PutI64(options_.retention.hot_window_seconds);
  writer.PutI64(options_.retention.seal_period_seconds);
  writer.PutU64(options_.retention.min_hot_samples_per_user);
  writer.PutU64(options_.retention.min_seal_samples);
  writer.PutU64(options_.retention.max_outcomes);
  // Moving-object db (the index is rebuilt from it on restore).  Per
  // user: the constant-size archived summary, then the HOT samples —
  // archived contents stay in their cold segments, referenced by the
  // manifest below.
  const std::vector<mod::UserId> db_users = db_.Users();
  writer.PutU64(db_users.size());
  for (const mod::UserId user : db_users) {
    writer.PutI64(user);
    HISTKANON_ASSIGN_OR_RETURN(const mod::Phl* phl, db_.GetPhl(user));
    writer.PutU64(phl->archived_count());
    writer.PutI64(phl->archived_lo());
    writer.PutI64(phl->archived_hi());
    writer.PutU64(phl->hot_size());
    for (size_t i = 0; i < phl->hot_size(); ++i) {
      PutPoint(&writer, phl->HotSample(i));
    }
  }
  // LBQID monitor: definitions + automaton states.
  const std::vector<mod::UserId> monitor_users = monitor_.Users();
  writer.PutU64(monitor_users.size());
  for (const mod::UserId user : monitor_users) {
    writer.PutI64(user);
    const std::vector<const lbqid::Lbqid*> lbqids = monitor_.LbqidsOf(user);
    writer.PutU64(lbqids.size());
    for (size_t i = 0; i < lbqids.size(); ++i) {
      PutLbqid(&writer, *lbqids[i]);
      const lbqid::LbqidMatcher* matcher = monitor_.MatcherOf(user, i);
      if (matcher == nullptr) {
        return common::Status::Internal("monitor lists an unknown matcher");
      }
      PutMatcherState(&writer, matcher->SaveDurable());
    }
  }
  PutPseudonymState(&writer, pseudonyms_.SaveDurable());
  PutRngState(&writer, randomizer_.SaveRngState());
  // Services.
  writer.PutU64(services_.size());
  for (const auto& [id, service] : services_) PutService(&writer, service);
  // Per-user pipeline state.
  writer.PutU64(users_.size());
  for (const auto& [user, state] : users_) {
    writer.PutI64(user);
    PutPolicy(&writer, state.policy);
    writer.PutBool(state.rules.has_value());
    if (state.rules.has_value()) PutRuleSet(&writer, *state.rules);
    writer.PutI64(state.quiet_until);
    writer.PutU64(state.requests_seen);
    writer.PutU64(state.traces.size());
    for (const auto& [index, trace] : state.traces) {
      writer.PutU64(index);
      writer.PutU64(trace.anchors.size());
      for (const mod::UserId anchor : trace.anchors) writer.PutI64(anchor);
      writer.PutU64(trace.steps);
      writer.PutU64(trace.contexts.size());
      for (const geo::STBox& context : trace.contexts) {
        PutBox(&writer, context);
      }
      writer.PutBool(trace.tainted);
    }
  }
  writer.PutI64(next_msgid_);
  writer.PutU64(stats_.requests);
  writer.PutU64(stats_.forwarded_default);
  writer.PutU64(stats_.forwarded_generalized);
  writer.PutU64(stats_.suppressed_mixzone);
  writer.PutU64(stats_.unlink_attempts);
  writer.PutU64(stats_.unlink_successes);
  writer.PutU64(stats_.at_risk_notifications);
  writer.PutU64(stats_.lbqid_completions);
  writer.PutDouble(stats_.generalized_area_sum);
  writer.PutDouble(stats_.generalized_window_sum);
  writer.PutU64(outcomes_.size());
  for (const ProcessOutcome& outcome : outcomes_) {
    PutOutcome(&writer, outcome);
  }
  // Seal schedule + cold manifest: recovery resumes sealing at exactly
  // the same event-stream points (the schedule advances on attempt, a
  // pure function of the admitted stream), so post-snapshot seals are
  // re-executed byte-identically during replay.
  writer.PutBool(seal_initialized_);
  writer.PutI64(next_seal_at_);
  writer.PutU64(next_segment_seq_);
  if (cold_ != nullptr) {
    const std::vector<mod::ColdSegmentInfo>& manifest = cold_->manifest();
    writer.PutU64(manifest.size());
    for (const mod::ColdSegmentInfo& info : manifest) {
      writer.PutU64(info.seq);
      writer.PutI64(info.t_lo);
      writer.PutI64(info.t_hi);
      writer.PutU64(info.samples);
    }
  } else {
    writer.PutU64(0);
  }
  std::string blob = writer.TakeBytes();
  // Resource-accounting bookkeeping only; the blob itself is unaffected
  // (and deliberately excludes the trace-id counter, so snapshot bytes are
  // identical with and without a tracer attached).
  last_checkpoint_bytes_ = blob.size();
  return blob;
}

common::Status TrustedServer::RestoreFrom(
    std::string_view snapshot, const tgran::GranularityRegistry& registry) {
  const bool fresh = users_.empty() && services_.empty() &&
                     db_.Users().empty() && monitor_.Users().empty() &&
                     outcomes_.empty() && stats_.requests == 0 &&
                     next_msgid_ == 1 && !seal_initialized_ &&
                     (cold_ == nullptr || cold_->manifest().empty());
  if (!fresh) {
    return common::Status::FailedPrecondition(
        "restore requires a freshly constructed server");
  }
  dur::ByteReader reader(snapshot);
  std::string magic;
  HISTKANON_RETURN_NOT_OK(reader.ReadString(&magic));
  if (magic != kSnapshotMagic) {
    return common::Status::InvalidArgument("not a snapshot: bad magic");
  }
  uint64_t pseudonym_seed = 0;
  uint64_t randomizer_seed = 0;
  bool enable_unlinking = false;
  bool enable_randomization = false;
  bool forward_when_at_risk = false;
  bool per_request_randomization = false;
  double max_expand_fraction = 0.0;
  bool retention_enabled = false;
  geo::Instant hot_window_seconds = 0;
  geo::Instant seal_period_seconds = 0;
  uint64_t min_hot_samples_per_user = 0;
  uint64_t min_seal_samples = 0;
  uint64_t max_outcomes = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&pseudonym_seed));
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&randomizer_seed));
  HISTKANON_RETURN_NOT_OK(reader.ReadBool(&enable_unlinking));
  HISTKANON_RETURN_NOT_OK(reader.ReadBool(&enable_randomization));
  HISTKANON_RETURN_NOT_OK(reader.ReadBool(&forward_when_at_risk));
  HISTKANON_RETURN_NOT_OK(reader.ReadBool(&per_request_randomization));
  HISTKANON_RETURN_NOT_OK(reader.ReadDouble(&max_expand_fraction));
  HISTKANON_RETURN_NOT_OK(reader.ReadBool(&retention_enabled));
  HISTKANON_RETURN_NOT_OK(reader.ReadI64(&hot_window_seconds));
  HISTKANON_RETURN_NOT_OK(reader.ReadI64(&seal_period_seconds));
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&min_hot_samples_per_user));
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&min_seal_samples));
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&max_outcomes));
  if (pseudonym_seed != options_.pseudonym_seed ||
      randomizer_seed != options_.randomizer_seed ||
      enable_unlinking != options_.enable_unlinking ||
      enable_randomization != options_.enable_randomization ||
      forward_when_at_risk != options_.forward_when_at_risk ||
      per_request_randomization != options_.per_request_randomization ||
      max_expand_fraction != options_.randomizer.max_expand_fraction ||
      retention_enabled != options_.retention.enabled ||
      hot_window_seconds != options_.retention.hot_window_seconds ||
      seal_period_seconds != options_.retention.seal_period_seconds ||
      min_hot_samples_per_user != options_.retention.min_hot_samples_per_user ||
      min_seal_samples != options_.retention.min_seal_samples ||
      max_outcomes != options_.retention.max_outcomes) {
    return common::Status::FailedPrecondition(
        "snapshot fingerprint mismatch: the server was constructed with "
        "different determinism-relevant options than the checkpointed one");
  }
  uint64_t user_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&user_count));
  for (uint64_t i = 0; i < user_count; ++i) {
    mod::UserId user = mod::kInvalidUser;
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&user));
    uint64_t archived_count = 0;
    geo::Instant archived_lo = 0;
    geo::Instant archived_hi = 0;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&archived_count));
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&archived_lo));
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&archived_hi));
    if (archived_count > 0) {
      db_.SetArchivedSummary(user, static_cast<size_t>(archived_count),
                             archived_lo, archived_hi);
    }
    uint64_t sample_count = 0;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&sample_count));
    for (uint64_t j = 0; j < sample_count; ++j) {
      geo::STPoint sample;
      HISTKANON_RETURN_NOT_OK(ReadPoint(&reader, &sample));
      HISTKANON_RETURN_NOT_OK(db_.Append(user, sample));
      index_.Insert(user, sample);
    }
  }
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&user_count));
  for (uint64_t i = 0; i < user_count; ++i) {
    mod::UserId user = mod::kInvalidUser;
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&user));
    uint64_t lbqid_count = 0;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&lbqid_count));
    for (uint64_t j = 0; j < lbqid_count; ++j) {
      HISTKANON_ASSIGN_OR_RETURN(lbqid::Lbqid lbqid,
                                 ReadLbqid(&reader, registry));
      lbqid::LbqidMatcher::DurableState state;
      HISTKANON_RETURN_NOT_OK(ReadMatcherState(&reader, &state));
      const size_t index = monitor_.Register(user, std::move(lbqid));
      lbqid::LbqidMatcher* matcher = monitor_.MutableMatcherOf(user, index);
      if (matcher == nullptr) {
        return common::Status::Internal("freshly registered matcher missing");
      }
      matcher->RestoreDurable(std::move(state));
    }
  }
  anon::PseudonymManager::DurableState pseudonym_state;
  HISTKANON_RETURN_NOT_OK(ReadPseudonymState(&reader, &pseudonym_state));
  pseudonyms_.RestoreDurable(std::move(pseudonym_state));
  common::Rng::State randomizer_state;
  HISTKANON_RETURN_NOT_OK(ReadRngState(&reader, &randomizer_state));
  randomizer_.RestoreRngState(randomizer_state);
  uint64_t service_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&service_count));
  for (uint64_t i = 0; i < service_count; ++i) {
    anon::ServiceProfile service;
    HISTKANON_RETURN_NOT_OK(ReadService(&reader, &service));
    services_[service.id] = std::move(service);
  }
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&user_count));
  for (uint64_t i = 0; i < user_count; ++i) {
    mod::UserId user = mod::kInvalidUser;
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&user));
    UserState state;
    HISTKANON_RETURN_NOT_OK(ReadPolicy(&reader, &state.policy));
    bool has_rules = false;
    HISTKANON_RETURN_NOT_OK(reader.ReadBool(&has_rules));
    if (has_rules) {
      HISTKANON_ASSIGN_OR_RETURN(PolicyRuleSet rules, ReadRuleSet(&reader));
      state.rules = std::move(rules);
    }
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&state.quiet_until));
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&state.requests_seen));
    uint64_t trace_count = 0;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&trace_count));
    for (uint64_t j = 0; j < trace_count; ++j) {
      uint64_t index = 0;
      HISTKANON_RETURN_NOT_OK(reader.ReadU64(&index));
      TraceState trace;
      uint64_t anchor_count = 0;
      HISTKANON_RETURN_NOT_OK(reader.ReadU64(&anchor_count));
      for (uint64_t a = 0; a < anchor_count; ++a) {
        mod::UserId anchor = mod::kInvalidUser;
        HISTKANON_RETURN_NOT_OK(reader.ReadI64(&anchor));
        trace.anchors.push_back(anchor);
      }
      uint64_t steps = 0;
      HISTKANON_RETURN_NOT_OK(reader.ReadU64(&steps));
      trace.steps = static_cast<size_t>(steps);
      uint64_t context_count = 0;
      HISTKANON_RETURN_NOT_OK(reader.ReadU64(&context_count));
      for (uint64_t c = 0; c < context_count; ++c) {
        geo::STBox context;
        HISTKANON_RETURN_NOT_OK(ReadBox(&reader, &context));
        trace.contexts.push_back(context);
      }
      HISTKANON_RETURN_NOT_OK(reader.ReadBool(&trace.tainted));
      state.traces[static_cast<size_t>(index)] = std::move(trace);
    }
    users_[user] = std::move(state);
  }
  HISTKANON_RETURN_NOT_OK(reader.ReadI64(&next_msgid_));
  uint64_t counter = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.requests = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.forwarded_default = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.forwarded_generalized = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.suppressed_mixzone = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.unlink_attempts = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.unlink_successes = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.at_risk_notifications = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter));
  stats_.lbqid_completions = static_cast<size_t>(counter);
  HISTKANON_RETURN_NOT_OK(reader.ReadDouble(&stats_.generalized_area_sum));
  HISTKANON_RETURN_NOT_OK(reader.ReadDouble(&stats_.generalized_window_sum));
  uint64_t outcome_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&outcome_count));
  for (uint64_t i = 0; i < outcome_count; ++i) {
    ProcessOutcome outcome;
    HISTKANON_RETURN_NOT_OK(ReadOutcome(&reader, &outcome));
    outcomes_.push_back(std::move(outcome));
  }
  HISTKANON_RETURN_NOT_OK(reader.ReadBool(&seal_initialized_));
  HISTKANON_RETURN_NOT_OK(reader.ReadI64(&next_seal_at_));
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&next_segment_seq_));
  uint64_t segment_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&segment_count));
  if (segment_count > 0 && cold_ == nullptr) {
    return common::Status::FailedPrecondition(
        "snapshot references cold segments but this server has no cold "
        "tier configured");
  }
  for (uint64_t i = 0; i < segment_count; ++i) {
    mod::ColdSegmentInfo info;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&info.seq));
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&info.t_lo));
    HISTKANON_RETURN_NOT_OK(reader.ReadI64(&info.t_hi));
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&info.samples));
    // Verifies the file is present and its header matches — a snapshot
    // that references a missing/corrupt segment fails restore outright.
    HISTKANON_RETURN_NOT_OK(cold_->RegisterExisting(info));
  }
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument("trailing bytes after snapshot");
  }
  return common::Status::OK();
}

common::Status TrustedServer::WriteCheckpoint() {
  if (journal_ == nullptr) {
    return common::Status::FailedPrecondition("no journal attached");
  }
  HISTKANON_ASSIGN_OR_RETURN(const std::string snapshot, Checkpoint());
  // A failed snapshot append leaves the journal exactly as before (the
  // event suffix just replays from the previous snapshot) — checkpointing
  // is an optimization, not an admission, so it does not trip the breaker.
  HISTKANON_RETURN_NOT_OK(journal_->AppendSnapshot(snapshot));
  if (options_.causal != nullptr) {
    // Pin the trace-id allocator next to the snapshot so a recovered
    // server resumes the exact id sequence.  Best-effort: a torn or
    // failed annotation only costs trace-id continuity, never state.
    (void)journal_->AppendAnnotation(next_trace_id_).ok();
  }
  return common::Status::OK();
}

// ---------------------------------------------------------------------
// ConcurrentServer checkpoint / restore.  (The front-end admission hooks
// live in concurrent_server.cc; this file keeps the codec and recovery.)

common::Result<std::string> ConcurrentServer::Checkpoint() {
  if (finished_) {
    return common::Status::FailedPrecondition(
        "cannot checkpoint a finished server");
  }
  // Close the current epoch first: after EndEpoch every worker has
  // ingested and served its buffered events, so once the checkpoint
  // events drain, each shard's state is epoch-consistent.  (The extra
  // boundary is journaled too, so replay crosses it identically.)
  EndEpoch();
  auto collector = std::make_shared<CheckpointCollector>();
  collector->remaining = shards_.size();
  collector->blobs.resize(shards_.size());
  collector->errors.resize(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardEvent event;
    event.kind = ShardEvent::Kind::kCheckpoint;
    event.checkpoint = collector;
    shard->Enqueue(std::move(event));
  }
  // Block the (single) producer until every shard has serialized itself:
  // no new events can race the workers' reads of their own state.
  {
    std::unique_lock<std::mutex> lock(collector->mu);
    collector->cv.wait(lock, [&collector] { return collector->remaining == 0; });
  }
  for (size_t shard = 0; shard < collector->errors.size(); ++shard) {
    if (!collector->errors[shard].empty()) {
      return common::Status::Internal(
          common::Format("shard %zu checkpoint failed: %s", shard,
                         collector->errors[shard].c_str()));
    }
  }
  dur::ByteWriter writer;
  writer.PutString(kConcurrentSnapshotMagic);
  writer.PutU64(shards_.size());
  for (const std::string& blob : collector->blobs) writer.PutString(blob);
  // Front-end realignment state: which shard each submitted request went
  // to, and the per-shard request counters.
  writer.PutU64(submissions_.size());
  for (const auto& [shard, ordinal] : submissions_) {
    writer.PutU64(shard);
    writer.PutU64(ordinal);
  }
  writer.PutU64(per_shard_requests_.size());
  for (const size_t count : per_shard_requests_) writer.PutU64(count);
  std::string blob = writer.TakeBytes();
  if (options_.journal != nullptr) {
    // Like the serial WriteCheckpoint: a failed snapshot append leaves
    // the journal as before (replay just starts from the previous
    // snapshot), so it neither fails the checkpoint nor trips the
    // breaker.
    if (options_.journal->AppendSnapshot(blob).ok() &&
        options_.server.causal != nullptr) {
      // Pin the front-end trace-id allocator next to the snapshot
      // (best-effort, same contract as the serial WriteCheckpoint).
      (void)options_.journal->AppendAnnotation(next_trace_id_).ok();
    }
  }
  return blob;
}

common::Status ConcurrentServer::RestoreFrom(
    std::string_view snapshot, const tgran::GranularityRegistry& registry) {
  if (streaming_started_ || finished_) {
    return common::Status::FailedPrecondition(
        "restore requires a fresh server (nothing submitted yet)");
  }
  dur::ByteReader reader(snapshot);
  std::string magic;
  HISTKANON_RETURN_NOT_OK(reader.ReadString(&magic));
  if (magic != kConcurrentSnapshotMagic) {
    return common::Status::InvalidArgument(
        "not a concurrent snapshot: bad magic");
  }
  uint64_t shard_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&shard_count));
  if (shard_count != shards_.size()) {
    return common::Status::FailedPrecondition(common::Format(
        "snapshot has %llu shards, server has %zu",
        static_cast<unsigned long long>(shard_count), shards_.size()));
  }
  // The workers are idle (blocked in Pop); writing their servers from the
  // producer here is published by the queue-mutex handoff on the first
  // Submit, the same argument that covers the synchronous Register* path.
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    std::string blob;
    HISTKANON_RETURN_NOT_OK(reader.ReadString(&blob));
    HISTKANON_RETURN_NOT_OK(
        shards_[shard]->server().RestoreFrom(blob, registry));
  }
  uint64_t submission_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&submission_count));
  submissions_.clear();
  for (uint64_t i = 0; i < submission_count; ++i) {
    uint64_t shard = 0;
    uint64_t ordinal = 0;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&shard));
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&ordinal));
    if (shard >= shards_.size()) {
      return common::Status::InvalidArgument("submission shard out of range");
    }
    submissions_.emplace_back(static_cast<size_t>(shard),
                              static_cast<size_t>(ordinal));
  }
  uint64_t counter_count = 0;
  HISTKANON_RETURN_NOT_OK(reader.ReadU64(&counter_count));
  if (counter_count != per_shard_requests_.size()) {
    return common::Status::InvalidArgument(
        "per-shard request counter count mismatch");
  }
  for (size_t shard = 0; shard < per_shard_requests_.size(); ++shard) {
    uint64_t count = 0;
    HISTKANON_RETURN_NOT_OK(reader.ReadU64(&count));
    per_shard_requests_[shard] = static_cast<size_t>(count);
  }
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument("trailing bytes after snapshot");
  }
  // The restored submissions were answered by the pre-crash server; a
  // recovered front-end drains only traffic submitted after the restore.
  drained_through_ = submissions_.size();
  return common::Status::OK();
}

// ---------------------------------------------------------------------
// Recovery.

common::Result<RecoveredServer> RecoverTrustedServer(
    std::string_view journal_bytes, const TrustedServerOptions& options,
    const tgran::GranularityRegistry& registry) {
  HISTKANON_ASSIGN_OR_RETURN(RecoveredJournal journal,
                             ScanJournal(journal_bytes, registry));
  RecoveredServer recovered;
  recovered.server = std::make_unique<TrustedServer>(options);
  if (!journal.snapshot.empty()) {
    HISTKANON_RETURN_NOT_OK(
        recovered.server->RestoreFrom(journal.snapshot, registry));
  }
  if (journal.has_trace_annotation) {
    // Seed the trace-id allocator from the journaled annotation BEFORE
    // replay: replayed admitted requests advance it exactly as the
    // crashed server's did (when `options` attaches the same tracer
    // configuration), so post-recovery ids continue the pre-crash
    // sequence.
    recovered.server->SetNextTraceId(journal.next_trace_id);
  }
  for (const JournalEvent& event : journal.events) {
    ApplyJournalEvent(recovered.server.get(), event);
  }
  recovered.events_applied = journal.total_events;
  recovered.clean_tail = journal.clean;
  recovered.tail_error = journal.tail_error;
  return recovered;
}

common::Result<RecoveredConcurrentServer> RecoverConcurrentServer(
    std::string_view journal_bytes, ConcurrentServerOptions options,
    const tgran::GranularityRegistry& registry) {
  HISTKANON_ASSIGN_OR_RETURN(RecoveredJournal journal,
                             ScanJournal(journal_bytes, registry));
  // The recovered server gets no journal: re-journaling the replayed
  // suffix without the restored snapshot would leave a journal that does
  // not stand alone.  Attach a fresh journal by checkpointing after
  // recovery instead.
  options.journal = nullptr;
  RecoveredConcurrentServer recovered;
  recovered.server = std::make_unique<ConcurrentServer>(std::move(options));
  if (!journal.snapshot.empty()) {
    HISTKANON_RETURN_NOT_OK(
        recovered.server->RestoreFrom(journal.snapshot, registry));
  }
  if (journal.has_trace_annotation) {
    // Same contract as the serial recovery: seed before re-submitting the
    // suffix so front-end admissions advance from the annotated position.
    recovered.server->SetNextTraceId(journal.next_trace_id);
  }
  for (const JournalEvent& event : journal.events) {
    ApplyConcurrentJournalEvent(recovered.server.get(), event);
  }
  recovered.events_applied = journal.total_events;
  recovered.clean_tail = journal.clean;
  recovered.tail_error = journal.tail_error;
  return recovered;
}

}  // namespace ts
}  // namespace histkanon
