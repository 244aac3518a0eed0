// The Trusted Server (paper Section 3, Figure 1): the privacy-enforcing
// middleware between users and service providers, implementing the full
// Section 6.1 strategy:
//
//   1. monitor every request against the user's LBQIDs; on an element
//      match, generalize the spatio-temporal context with Algorithm 1 so
//      that Historical k-anonymity is preserved;
//   2. if generalization fails, try to unlink future requests from
//      previous ones by rotating the pseudonym inside an on-demand
//      mix-zone; if that also fails, notify the user that identification
//      is at risk.

#ifndef HISTKANON_SRC_TS_TRUSTED_SERVER_H_
#define HISTKANON_SRC_TS_TRUSTED_SERVER_H_

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/anon/generalize.h"
#include "src/anon/hka.h"
#include "src/anon/mixzone.h"
#include "src/anon/pseudonym.h"
#include "src/anon/randomize.h"
#include "src/anon/request.h"
#include "src/anon/tolerance.h"
#include "src/lbqid/monitor.h"
#include "src/mod/cold_tier.h"
#include "src/mod/moving_object_db.h"
#include "src/obs/causal_trace.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/resource.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/stindex/grid_index.h"
#include "src/stindex/tiered_view.h"
#include "src/ts/overload.h"
#include "src/ts/policy.h"
#include "src/ts/policy_rules.h"
#include "src/ts/service_provider.h"

namespace histkanon {
namespace ts {

class TsJournal;
struct JournalEvent;

/// \brief Bounded-state operation (DESIGN.md §16): tiered PHL storage and
/// retention limits that keep resident memory flat under indefinite load.
///
/// Fields marked [fingerprint] change what the server ANSWERS (which
/// samples are evictable, when seals fire, how much outcome history
/// survives) and are folded into the snapshot determinism fingerprint —
/// RestoreFrom refuses a blob whose retention differs.  The unmarked
/// fields are environment tuning (paths, residency budgets) that never
/// changes an answer and may differ between a writer and its restore twin.
struct RetentionOptions {
  /// Master switch.  [fingerprint]
  bool enabled = false;
  /// Directory for sealed cold segments.  Must be set when enabled.
  std::string cold_dir;
  /// Samples younger than (now - hot_window_seconds) stay hot; requests
  /// answerable from the hot window never touch disk.  [fingerprint]
  geo::Instant hot_window_seconds = 3600;
  /// A seal is attempted at most once per period (measured on the event
  /// timeline, so the schedule is a pure function of the admitted
  /// stream).  [fingerprint]
  geo::Instant seal_period_seconds = 600;
  /// Sealing never digs a user below this many resident samples (keeps
  /// every Phl's last-position queries hot).  [fingerprint]
  size_t min_hot_samples_per_user = 1;
  /// A seal attempt collecting fewer total samples is skipped (avoids a
  /// long tail of tiny segments).  [fingerprint]
  size_t min_seal_samples = 1024;
  /// Retained outcome-log bound; 0 keeps every outcome (the historical
  /// behavior).  Trimming drops the OLDEST entries.  [fingerprint]
  size_t max_outcomes = 0;
  /// Cold segments kept decoded in memory (LRU).
  size_t max_resident_segments = 8;
  /// Hard ceiling on resident hot samples; location updates arriving at
  /// the ceiling are shed BEFORE journaling (never applied, so replay
  /// stays consistent).  0 disables the check.
  size_t max_hot_samples = 0;
  /// Breaker over seal (cold-write) failures: a tripped breaker skips
  /// seal attempts until probes succeed, degrading to unbounded-memory
  /// operation rather than wrong answers.
  CircuitBreakerOptions seal_breaker;
};

/// \brief TS construction parameters.
struct TrustedServerOptions {
  anon::GeneralizerOptions generalizer;
  anon::MixZoneOptions mixzone;
  stindex::GridIndexOptions index;
  uint64_t pseudonym_seed = 0x6b616e6f6eULL;
  /// Section 6.1 step 2 on/off (ablated in experiment E6).
  bool enable_unlinking = true;
  /// Section 7's randomization against inference attacks (ablated in
  /// experiment E9): default contexts are uniformly re-placed around the
  /// true point; Algorithm 1 boxes are randomly expanded (supersets keep
  /// the anchors' LT-consistency intact).
  bool enable_randomization = true;
  anon::RandomizerOptions randomizer;
  uint64_t randomizer_seed = 0x72616e64ULL;
  /// When true, a request whose generalization failed AND whose unlinking
  /// failed is still forwarded (clipped to tolerance) after notifying the
  /// user; when false it is dropped.
  bool forward_when_at_risk = true;
  /// Randomization draw streams.  False (default): one sequential stream,
  /// byte-compatible with historical behavior but dependent on global
  /// request order.  True: each request draws from a generator derived
  /// via common::MixSeed(randomizer_seed, user, per-user ordinal), so the
  /// boxes depend only on the per-user request sequence — the property
  /// that lets the sharded server reproduce serial output exactly.
  bool per_request_randomization = false;
  /// External read views (not owned, must outlive the server).  When set,
  /// the anonymity layers (anchor selection, HkA, mix-zones) read THROUGH
  /// these instead of the server's own db/index — the sharded server
  /// passes fan-out views spanning every shard so cross-shard k-anonymity
  /// sees the global population.  The server's own db/index must be
  /// reachable from the views (they are one slice).  Unset: the server's
  /// own db/index (the classic single-node wiring).
  const mod::ObjectStore* read_store = nullptr;
  const stindex::SpatioTemporalIndex* read_index = nullptr;
  /// Observability (all optional, not owned, must outlive the server).
  /// When unset the pipeline takes the null-object path: no counters, no
  /// clock reads, behavior bit-identical to an uninstrumented server.
  /// The registry is shared with the index, generalizer, and monitor.
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::EventSink* event_sink = nullptr;
  /// Request-scoped causal tracing (optional, not owned).  Trace ids come
  /// from a deterministic counter seeded with `trace_id_seed` and are
  /// consumed ONLY on successful admission, so journal replay — which
  /// sees exactly the admitted events — re-derives the same ids.  Spans
  /// land on `trace_track` (the sharded server gives each shard its own).
  obs::CausalTracer* causal = nullptr;
  uint64_t trace_id_seed = 1;
  std::string trace_track = "ts";
  /// Rolling SLO view (optional, not owned): per-request latency and shed
  /// observations for the telemetry endpoint's windowed p50/p95/p99.
  obs::SloView* slo = nullptr;
  /// Overload protection: the journal-failure circuit breaker (fail-closed
  /// degraded mode, see src/ts/overload.h) and the per-request deadline
  /// budget.  The defaults keep behavior identical to a server without
  /// this layer until a journal append actually fails.
  OverloadOptions overload;
  /// Bounded-state operation (tiered PHL storage + retention; DESIGN.md
  /// §16).  Only honored by the classic single-node wiring: when external
  /// read views are configured (the sharded server), tiering stays off
  /// regardless of `retention.enabled`.
  RetentionOptions retention;
};

/// \brief How the TS disposed of one request.
enum class Disposition {
  /// No LBQID element matched: forwarded with the default minimal context.
  kForwardedDefault,
  /// LBQID element matched; Algorithm 1 succeeded; forwarded generalized.
  kForwardedGeneralized,
  /// Suppressed: the user is inside a mix-zone quiet period.
  kSuppressedMixZone,
  /// Generalization failed; unlinking succeeded; this request suppressed
  /// and the pseudonym rotated.
  kUnlinked,
  /// Generalization AND unlinking failed: user notified of identification
  /// risk (request forwarded clipped, or dropped, per options).
  kAtRisk,
  /// Suppressed fail-closed BEFORE entering the pipeline: the degraded-
  /// mode breaker or an overload shed refused it.  Zero state effect — no
  /// stats, no PHL append, no pseudonym, no RNG draw (tests/
  /// degraded_mode_test.cc) — and, except for shard-level deadline sheds,
  /// no outcomes() entry.
  kRejected,
};

inline constexpr size_t kDispositionCount = 6;

std::string_view DispositionToString(Disposition disposition);

/// \brief The instrumented stages of the Section 6.1 pipeline, in
/// execution order.  Each stage gets a trace span, a latency histogram
/// (`ts_stage_<name>_seconds`), and a per-request latency field in the
/// structured event log.
enum class Stage : size_t {
  kLbqidMatch = 0,  ///< Automata advance over the user's LBQIDs.
  kGeneralize,      ///< Algorithm 1 over each matched LBQID's trace.
  kHkaEval,         ///< HkA verdict: union tolerance check / Definition 8.
  kRandomize,       ///< Section 7 context randomization.
  kUnlink,          ///< Mix-zone formation attempt (Section 6.3).
  kForward,         ///< Hand-off to the service provider.
};

inline constexpr size_t kStageCount = 6;

std::string_view StageToString(Stage stage);

/// \brief Per-request stage bookkeeping, filled only when observability is
/// attached (zero clock reads otherwise).  `causal`/`ctx`/`track` carry
/// the request's causal coordinates so stage scopes can open child spans
/// even when the metric side (`enabled`) is off.
struct RequestTelemetry {
  bool enabled = false;
  bool ran[kStageCount] = {};
  double seconds[kStageCount] = {};
  obs::CausalTracer* causal = nullptr;
  obs::TraceContext ctx;
  const std::string* track = nullptr;
};

/// \brief One request of a ProcessBatch window.
struct BatchRequest {
  mod::UserId user = mod::kInvalidUser;
  geo::STPoint exact;
  mod::ServiceId service = 0;
  std::string data;
};

/// \brief Outcome record for one request (also the unit of the metrics).
/// TS-side bookkeeping: `exact` never leaves the trusted server.
struct ProcessOutcome {
  Disposition disposition = Disposition::kForwardedDefault;
  bool forwarded = false;
  /// The request's true position/time (TS-side only).
  geo::STPoint exact;
  /// Valid when forwarded.
  anon::ForwardedRequest forwarded_request;
  /// Algorithm 1's flag (true when no generalization was needed).
  bool hk_anonymity = true;
  /// LBQID bookkeeping (set when an element matched).
  bool matched_lbqid = false;
  size_t lbqid_index = 0;
  size_t element_index = 0;
  bool lbqid_completed = false;
};

/// \brief Aggregate counters.
struct TsStats {
  size_t requests = 0;
  size_t forwarded_default = 0;
  size_t forwarded_generalized = 0;
  size_t suppressed_mixzone = 0;
  size_t unlink_attempts = 0;
  size_t unlink_successes = 0;
  size_t at_risk_notifications = 0;
  size_t lbqid_completions = 0;
  /// Sum of generalized-context area (m^2) and window (s) over
  /// forwarded_generalized, for QoS metrics.
  double generalized_area_sum = 0.0;
  double generalized_window_sum = 0.0;
};

/// \brief The trusted server.
class TrustedServer : public sim::EventSink {
 public:
  explicit TrustedServer(TrustedServerOptions options = TrustedServerOptions());

  /// Registers a service (tolerance constraints).  Fails on duplicate id.
  common::Status RegisterService(const anon::ServiceProfile& service);

  /// Registers a user with a privacy policy.  Fails on duplicate user.
  common::Status RegisterUser(mod::UserId user, PrivacyPolicy policy);

  /// Attaches an expert rule set to a registered user (paper Section 3's
  /// "rule-based policy specifications"); per-request policies are then
  /// resolved by the rule set (its fallback replaces the flat policy).
  common::Status SetUserRules(mod::UserId user, PolicyRuleSet rules);

  /// Attaches an LBQID to a registered user; returns its per-user index.
  common::Result<size_t> RegisterLbqid(mod::UserId user, lbqid::Lbqid lbqid);

  /// Wires the (single, per the experiments) downstream service provider.
  void ConnectServiceProvider(ServiceProvider* provider) {
    provider_ = provider;
  }

  // sim::EventSink:
  void OnLocationUpdate(mod::UserId user, const geo::STPoint& sample) override;
  void OnServiceRequest(mod::UserId user, const geo::STPoint& exact,
                        const sim::RequestIntent& intent) override;

  /// The Status-returning location-update path (OnLocationUpdate
  /// delegates here): Unavailable when the degraded-mode breaker
  /// suppressed it, the journal error when the write-ahead append failed.
  /// In both cases the update was NOT applied (fail-closed).
  common::Status ApplyLocationUpdate(mod::UserId user,
                                     const geo::STPoint& sample);

  /// The full Section 6.1 pipeline for one request; the EventSink entry
  /// point delegates here.  Unregistered users get an implicit kMedium
  /// policy; unregistered services get default tolerance.
  ProcessOutcome ProcessRequest(mod::UserId user, const geo::STPoint& exact,
                                mod::ServiceId service,
                                const std::string& data);

  /// Batched request engine (DESIGN.md §13): admits the whole window as
  /// ONE composite journal event, ingests every request point up front,
  /// prewarms the generalizer's shared nearest-users entries in grid-cell
  /// order (co-located requests then answer from one index query), and
  /// serves the requests in their original submission order — so every
  /// per-request stream (msgids, pseudonyms, RNG draws, ordinals) is
  /// byte-identical to the serial per-request path under the PR-2
  /// epoch-normalized order.  A failed batch admission rejects the whole
  /// window with zero state effect (no outcomes() entries).
  std::vector<ProcessOutcome> ProcessBatch(
      const std::vector<BatchRequest>& requests);

  /// Precomputes the shared anchor-selection entry one request would
  /// need, without serving it (the cache layer of ProcessBatch; also
  /// called by the sharded server's serve phase over cell-sorted
  /// windows).  Never changes any answer — only pre-pays index work.
  void PrewarmRequest(mod::UserId user, const geo::STPoint& exact,
                      mod::ServiceId service);

  /// Records a request shed OUTSIDE the pipeline (a shard's queue-wait
  /// deadline fired): appends a kRejected outcome so per-shard outcome
  /// logs stay dense for realignment.  No other state is touched.
  ProcessOutcome RecordShedRequest(const geo::STPoint& exact);

  // -- Degraded-mode introspection (src/ts/overload.h).

  /// The journal-failure breaker's current state.
  HealthState health() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  /// Events (of any kind) suppressed fail-closed; requests among them.
  uint64_t shed_events() const { return shed_events_; }
  uint64_t shed_requests() const { return shed_requests_; }
  /// Write-ahead journal appends that failed.
  uint64_t journal_failures() const { return journal_failures_; }
  /// Requests whose pipeline run exceeded the deadline budget.
  uint64_t deadline_overruns() const { return deadline_overruns_; }
  /// Events admitted (journaled when a journal is attached) — the
  /// admission ledger the chaos differential keys accepted events off.
  uint64_t admitted_events() const { return admitted_events_; }

  // -- Tiered-storage introspection (nullptr / zero when retention is
  // off; DESIGN.md §16).

  /// The cold tier, when tiering is active.
  const mod::ColdTier* cold_tier() const { return cold_.get(); }
  /// Seal attempts that wrote a segment / that failed fail-closed (the
  /// samples stayed hot).
  uint64_t seals() const { return seals_; }
  uint64_t seal_failures() const { return seal_failures_; }
  /// Requests shed because a cold-tier read faulted mid-pipeline (the
  /// fault would otherwise have shrunk an anonymity set silently).
  uint64_t cold_fault_sheds() const { return cold_fault_sheds_; }
  /// Location updates shed at the max_hot_samples ceiling (pre-journal).
  uint64_t hot_cap_sheds() const { return hot_cap_sheds_; }
  /// The seal breaker (HEALTHY unless cold writes are failing).
  const CircuitBreaker& seal_breaker() const { return seal_breaker_; }

  // -- Causal tracing (no-ops without options.causal).

  /// Hands the server the causal coordinates of the NEXT ProcessRequest
  /// call, when admission happened elsewhere (the sharded front-end
  /// admits and journals before enqueueing; the shard worker then serves
  /// under the front-end's trace id instead of allocating one).
  void SetNextTraceContext(const obs::TraceContext& ctx) {
    pending_ctx_ = ctx;
    has_pending_ctx_ = true;
  }
  /// Seeds the trace-id counter (recovery: the journaled annotation
  /// record restores the pre-crash counter before replay).
  void SetNextTraceId(uint64_t id) { next_trace_id_ = id; }
  /// The next trace id the server would allocate.
  uint64_t next_trace_id() const { return next_trace_id_; }

  /// Registers this server's resource probes (PHL samples, journal size,
  /// last snapshot blob, anchor-cache entries, event-log bytes, outcome
  /// log) under `<prefix>` names.  The accountant polls the probes from
  /// its Collect() caller, which must not race this server's writer
  /// thread; `this` must outlive the accountant's probes.
  void RegisterResourceProbes(obs::ResourceAccountant* accountant,
                              const std::string& prefix) const;

  const mod::MovingObjectDb& db() const { return db_; }
  const stindex::GridIndex& index() const { return index_; }
  const TsStats& stats() const { return stats_; }
  const anon::PseudonymManager& pseudonyms() const { return pseudonyms_; }
  anon::PseudonymManager& pseudonyms() { return pseudonyms_; }
  const lbqid::LbqidMonitor& monitor() const { return monitor_; }

  /// Every outcome, in processing order (drives the experiment metrics).
  /// A deque: the log grows by one request at a time for as long as the
  /// server runs, and a vector's doubling would stall the request that
  /// crosses each power of two while it moves the whole log.
  const std::deque<ProcessOutcome>& outcomes() const { return outcomes_; }

  /// The forwarded spatio-temporal contexts of `user`'s LBQID-matching
  /// requests under their CURRENT pseudonym (the set Definition 8
  /// quantifies over), across all of the user's LBQIDs.
  std::vector<geo::STBox> CurrentTraceContexts(mod::UserId user) const;

  /// Same, restricted to one LBQID (Definition 8 is stated per
  /// LBQID-matching request set).
  std::vector<geo::STBox> TraceContextsOf(mod::UserId user,
                                          size_t lbqid_index) const;

  /// Evaluates Historical k-anonymity of the user's current trace (all
  /// LBQIDs combined — a conservative check).
  anon::HkaResult EvaluateUserHka(mod::UserId user) const;

  /// Evaluates Historical k-anonymity of one LBQID's current trace.
  anon::HkaResult EvaluateTraceHka(mod::UserId user,
                                   size_t lbqid_index) const;

  /// \brief One row of the Theorem-1 self-audit.
  struct TraceAudit {
    mod::UserId user = mod::kInvalidUser;
    size_t lbqid_index = 0;
    size_t steps = 0;
    /// True when some request of this trace was forwarded AT RISK (i.e.
    /// clipped below the k-covering box) — Theorem 1's precondition
    /// ("we can always perform Unlinking") was violated for it.
    bool tainted = false;
    /// Definition 8 verdict on the trace as forwarded.
    bool hka_satisfied = false;
    size_t witnesses = 0;
  };

  /// Audits every live trace against Theorem 1: a non-tainted trace (all
  /// requests forwarded through successful Algorithm-1 generalizations)
  /// must satisfy Historical k-anonymity.  Violations indicate a bug.
  std::vector<TraceAudit> AuditTraces() const;

  // -- Durability (implemented in src/ts/durability.cc).

  /// Attaches a write-ahead journal (not owned, must outlive the server).
  /// Every subsequent registration, location update, and request is
  /// journaled BEFORE it is applied.  nullptr detaches.
  void AttachJournal(TsJournal* journal) { journal_ = journal; }
  TsJournal* journal() const { return journal_; }

  /// Serializes the COMPLETE server state — db + index contents, LBQID
  /// automata, pseudonym/unlink state, RNG streams, per-user traces,
  /// stats, and the outcome log — into a versioned snapshot blob.
  common::Result<std::string> Checkpoint() const;

  /// Restores a Checkpoint() blob into this server.  The server must be
  /// freshly constructed (FailedPrecondition otherwise) with options whose
  /// determinism-relevant fields (seeds, flags) match the checkpointed
  /// server's — the blob carries a fingerprint that is verified.  Custom
  /// time granularities must be resolvable through `registry`.
  common::Status RestoreFrom(std::string_view snapshot,
                             const tgran::GranularityRegistry& registry);

  /// Checkpoint() + append the snapshot to the attached journal (recovery
  /// then replays only the events after it).  FailedPrecondition without
  /// an attached journal.
  common::Status WriteCheckpoint();

 private:
  struct TraceState {
    std::vector<mod::UserId> anchors;
    size_t steps = 0;
    /// Contexts forwarded for this LBQID under the current pseudonym.
    std::vector<geo::STBox> contexts;
    /// True when an at-risk (tolerance-clipped) context was forwarded.
    bool tainted = false;
  };
  struct UserState {
    PrivacyPolicy policy;
    /// Expert rule set; when set, per-request policies come from here
    /// (and `policy` is its fallback, used for trace-level evaluations).
    std::optional<PolicyRuleSet> rules;
    geo::Instant quiet_until = std::numeric_limits<geo::Instant>::min();
    std::map<size_t, TraceState> traces;  // keyed by lbqid index
    /// Requests processed for this user (the per-request randomization
    /// stream ordinal — a per-user count, so it is identical whether the
    /// workload ran serially or sharded).
    uint64_t requests_seen = 0;
  };

  /// Pre-resolved metric handles (all nullptr without a registry).
  struct ObsHandles {
    bool enabled = false;
    obs::Counter* requests = nullptr;
    obs::Counter* disposition[kDispositionCount] = {};  // by Disposition
    obs::Counter* lbqid_completions = nullptr;
    obs::Counter* unlink_attempts = nullptr;
    obs::Counter* unlink_successes = nullptr;
    obs::Counter* shed_requests = nullptr;
    obs::Counter* shed_events = nullptr;
    obs::Counter* journal_failures = nullptr;
    obs::Counter* deadline_overruns = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batch_requests = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* stage[kStageCount] = {};
    obs::Histogram* request_seconds = nullptr;
    obs::Histogram* generalized_area = nullptr;
    obs::Histogram* generalized_window = nullptr;
  };

  UserState& StateOf(mod::UserId user);
  // ProcessRequest minus the write-ahead admission: the telemetry wrapper
  // and pipeline for one ALREADY-JOURNALED request (ProcessBatch serves
  // its window through this after the composite batch event is admitted).
  ProcessOutcome ProcessAdmitted(mod::UserId user, const geo::STPoint& exact,
                                 mod::ServiceId service,
                                 const std::string& data);
  // ProcessRequest under causal tracing: allocates (or adopts) the trace
  // id, records the retroactive admission/journal spans, then funnels
  // into ProcessAdmitted.
  ProcessOutcome ProcessRequestTraced(mod::UserId user,
                                      const geo::STPoint& exact,
                                      mod::ServiceId service,
                                      const std::string& data);
  // The pipeline body; `telemetry` collects per-stage timings when
  // observability is attached.
  ProcessOutcome ProcessRequestImpl(mod::UserId user,
                                    const geo::STPoint& exact,
                                    mod::ServiceId service,
                                    const std::string& data,
                                    RequestTelemetry* telemetry);
  // Folds one finished request into counters/histograms and the event log.
  void RecordRequest(const ProcessOutcome& outcome,
                     const RequestTelemetry& telemetry, mod::UserId user,
                     mod::ServiceId service, double total_seconds);
  // The anchor count a prewarm probe for this request would query with,
  // or nullopt when serving it cannot reach anchor selection (no LBQID
  // element matches, or the trace is already anchored).
  std::optional<size_t> PrewarmProbeK(mod::UserId user,
                                      const geo::STPoint& exact,
                                      mod::ServiceId service);
  // Per-request policy: the rule set when present, else the flat policy.
  const PrivacyPolicy& ResolvePolicy(const UserState& state,
                                     mod::ServiceId service,
                                     geo::Instant t) const;
  const anon::ToleranceConstraints& ToleranceOf(mod::ServiceId service) const;
  // Keeps the `target` anchors whose PHLs stay closest to `exact`.
  void TrimAnchors(std::vector<mod::UserId>* anchors, size_t target,
                   const geo::STPoint& exact) const;
  // Randomization entry points: sequential stream, or a per-(user,
  // ordinal) derived stream under per_request_randomization.
  geo::STBox RandomizeTranslate(const geo::STBox& box,
                                const geo::STPoint& exact, mod::UserId user,
                                uint64_t ordinal);
  geo::STBox RandomizeExpand(const geo::STBox& box,
                             const anon::ToleranceConstraints& tolerance,
                             mod::UserId user, uint64_t ordinal);
  void Forward(ProcessOutcome* outcome, mod::UserId user,
               const geo::STPoint& exact, mod::ServiceId service,
               const std::string& data, const geo::STBox& context);

  // Write-ahead admission hooks, defined in durability.cc next to the
  // record codec.  Each builds the journal record for one entry point and
  // funnels it through AdmitEvent; a non-OK return means the entry point
  // must suppress the mutation with zero state effect (fail-closed).
  common::Status JournalRegisterService(const anon::ServiceProfile& service);
  common::Status JournalRegisterUser(mod::UserId user,
                                     const PrivacyPolicy& policy);
  common::Status JournalRegisterLbqid(mod::UserId user,
                                      const lbqid::Lbqid& lbqid);
  common::Status JournalSetUserRules(mod::UserId user,
                                     const PolicyRuleSet& rules);
  common::Status JournalUpdate(mod::UserId user, const geo::STPoint& sample);
  common::Status JournalRequest(mod::UserId user, const geo::STPoint& exact,
                                mod::ServiceId service,
                                const std::string& data);
  common::Status JournalBatch(const std::vector<BatchRequest>& requests);
  /// Breaker admission + write-ahead append of one event.  Counts sheds
  /// and journal failures; drives the breaker state machine.
  common::Status AdmitEvent(const JournalEvent& event);
  void CountShed(bool is_request);

  // -- Tiered-storage internals (DESIGN.md §16).

  /// Seal protocol driver, called after every ingested location point
  /// with the point's event time.  At most one attempt per
  /// seal_period_seconds; the schedule advances on ATTEMPT (a pure
  /// function of the admitted stream), segment numbering advances on
  /// SUCCESS — so a re-run over the same admitted events re-writes the
  /// same segments byte-for-byte regardless of earlier I/O faults.
  void MaybeSeal(geo::Instant t);
  /// Pre-journal admission check for location points: Unavailable when
  /// the hot tier is at max_hot_samples (the event is never journaled,
  /// so replay is consistent).
  common::Status AdmitHotCapacity();
  /// Applies the max_outcomes retention bound (amortized O(1): trims
  /// half the excess window at once).
  void TrimOutcomes();

  TrustedServerOptions options_;
  mod::MovingObjectDb db_;
  stindex::GridIndex index_;
  /// What the anonymity layers read: the external views when configured,
  /// else &db_ / &index_.
  const mod::ObjectStore* read_store_;
  const stindex::SpatioTemporalIndex* read_index_;
  std::unique_ptr<anon::Generalizer> generalizer_;
  anon::HkaEvaluator hka_;
  anon::PseudonymManager pseudonyms_;
  anon::ContextRandomizer randomizer_;
  lbqid::LbqidMonitor monitor_;
  std::map<mod::ServiceId, anon::ServiceProfile> services_;
  std::map<mod::UserId, UserState> users_;
  ServiceProvider* provider_ = nullptr;
  TsJournal* journal_ = nullptr;
  mod::MessageId next_msgid_ = 1;
  ObsHandles obs_;
  // Causal-tracing state.  next_trace_id_ is deliberately NOT part of
  // Checkpoint() (like the breaker counters) so snapshot blobs stay
  // byte-identical with tracing on or off; recovery restores it from the
  // journaled annotation record instead.
  uint64_t next_trace_id_ = 1;
  obs::TraceContext pending_ctx_;
  bool has_pending_ctx_ = false;
  // The admitted request's causal coordinates, handed from the admission
  // code to ProcessAdmitted (which opens the request root span under it).
  obs::TraceContext request_ctx_;
  bool has_request_ctx_ = false;
  // Journal-append timing scratch for the retroactive admission spans
  // (filled by AdmitEvent only when tracing is attached).
  int64_t admit_journal_start_ns_ = 0;
  int64_t admit_journal_dur_ns_ = 0;
  bool admit_journal_ran_ = false;
  const char* admit_shed_reason_ = "journal_error";
  // Size of the last Checkpoint() blob (resource accounting).
  mutable uint64_t last_checkpoint_bytes_ = 0;
  // Degraded-mode state.  Deliberately NOT part of Checkpoint(): a
  // recovered (or twin) server starts HEALTHY with zero shed counts, so
  // snapshot blobs stay byte-comparable across fault histories.
  CircuitBreaker breaker_;
  uint64_t shed_events_ = 0;
  uint64_t shed_requests_ = 0;
  uint64_t journal_failures_ = 0;
  uint64_t deadline_overruns_ = 0;
  uint64_t admitted_events_ = 0;
  TsStats stats_;
  std::deque<ProcessOutcome> outcomes_;
  anon::ToleranceConstraints default_tolerance_;
  // Tiered-storage state (all inert when cold_ is null).  The seal
  // schedule and segment counter ARE part of Checkpoint() — recovery must
  // resume sealing exactly where the snapshot left off for re-seals to be
  // byte-identical.  The breaker and shed counters are NOT (same policy
  // as the journal breaker above).  Declared after db_/index_ so the
  // view and archive are destroyed before the storage they reference.
  std::unique_ptr<mod::ColdTier> cold_;
  std::unique_ptr<stindex::TieredIndexView> tiered_;
  CircuitBreaker seal_breaker_;
  bool seal_initialized_ = false;
  geo::Instant next_seal_at_ = 0;
  uint64_t next_segment_seq_ = 0;
  uint64_t seals_ = 0;
  uint64_t seal_failures_ = 0;
  uint64_t cold_fault_sheds_ = 0;
  uint64_t hot_cap_sheds_ = 0;
};

}  // namespace ts
}  // namespace histkanon

#endif  // HISTKANON_SRC_TS_TRUSTED_SERVER_H_
