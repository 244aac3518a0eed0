// Overload protection: the circuit-breaker state machine, the bounded
// queue's slot-reservation protocol, the full-queue policies, and the
// regression the ISSUE pins down — a stalled shard must not stall the
// front-end once a non-blocking policy is selected.

#include "src/ts/overload.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/shard.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace ts {
namespace {

geo::STPoint PointAt(double x, double y, int64_t t) {
  return geo::STPoint{geo::Point{x, y}, t};
}

class OverloadTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Registry::Instance().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// CircuitBreaker state machine.

TEST_F(OverloadTest, BreakerStartsHealthyAndAdmits) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  EXPECT_TRUE(breaker.Admit());
  EXPECT_EQ(breaker.trips(), 0u);
  EXPECT_EQ(breaker.suppressed(), 0u);
}

TEST_F(OverloadTest, BreakerTripsOnFirstFailureByDefault) {
  CircuitBreaker breaker;  // trip_threshold = 1
  ASSERT_TRUE(breaker.Admit());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.Admit());
  EXPECT_EQ(breaker.suppressed(), 1u);
}

TEST_F(OverloadTest, BreakerTripThresholdCountsConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.trip_threshold = 3;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  breaker.RecordSuccess();  // resets the consecutive count
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST_F(OverloadTest, BreakerHalfOpensAfterProbeAfterSuppressions) {
  CircuitBreakerOptions options;
  options.probe_after = 3;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_FALSE(breaker.Admit());
  EXPECT_FALSE(breaker.Admit());
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_FALSE(breaker.Admit());  // third suppression half-opens
  EXPECT_EQ(breaker.state(), HealthState::kProbing);
  EXPECT_TRUE(breaker.Admit());  // the probe
  EXPECT_EQ(breaker.probes(), 1u);
  EXPECT_EQ(breaker.suppressed(), 3u);
}

TEST_F(OverloadTest, BreakerClosesAfterCloseAfterProbeSuccesses) {
  CircuitBreakerOptions options;
  options.probe_after = 1;
  options.close_after = 2;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.Admit());  // suppression -> PROBING
  ASSERT_TRUE(breaker.Admit());   // probe 1
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), HealthState::kProbing);  // one of two
  ASSERT_TRUE(breaker.Admit());  // probe 2
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
  EXPECT_EQ(breaker.recoveries(), 1u);
  EXPECT_EQ(breaker.probes(), 2u);
}

TEST_F(OverloadTest, BreakerProbeFailureRetripsAndResetsTheWindow) {
  CircuitBreakerOptions options;
  options.probe_after = 2;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.Admit());
  EXPECT_FALSE(breaker.Admit());  // -> PROBING
  ASSERT_TRUE(breaker.Admit());   // probe
  breaker.RecordFailure();        // fault still present
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_EQ(breaker.trips(), 2u);
  // The suppression window starts over before the next probe.
  EXPECT_FALSE(breaker.Admit());
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_FALSE(breaker.Admit());
  EXPECT_EQ(breaker.state(), HealthState::kProbing);
}

TEST_F(OverloadTest, BreakerClampsZeroOptionsToOne) {
  CircuitBreakerOptions options;
  options.trip_threshold = 0;
  options.probe_after = 0;
  options.close_after = 0;
  CircuitBreaker breaker(options);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), HealthState::kDegraded);
  EXPECT_FALSE(breaker.Admit());  // one suppression -> PROBING
  ASSERT_TRUE(breaker.Admit());
  breaker.RecordSuccess();  // one probe success -> HEALTHY
  EXPECT_EQ(breaker.state(), HealthState::kHealthy);
}

TEST_F(OverloadTest, BreakerExportsStateThroughTheRegistry) {
  obs::Registry registry;
  CircuitBreaker breaker;
  breaker.AttachRegistry(&registry, "ts");
  EXPECT_EQ(registry.GetGauge("ts_health_state")->value(), 0.0);
  breaker.RecordFailure();
  EXPECT_EQ(registry.GetGauge("ts_health_state")->value(), 1.0);
  EXPECT_EQ(registry.GetCounter("ts_breaker_trips_total")->value(), 1u);
  for (int i = 0; i < 8; ++i) (void)breaker.Admit();
  EXPECT_EQ(registry.GetGauge("ts_health_state")->value(), 2.0);
  EXPECT_EQ(registry.GetCounter("ts_suppressed_total")->value(), 8u);
  ASSERT_TRUE(breaker.Admit());
  breaker.RecordSuccess();
  EXPECT_EQ(registry.GetGauge("ts_health_state")->value(), 0.0);
  EXPECT_EQ(registry.GetCounter("ts_breaker_probes_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("ts_breaker_recoveries_total")->value(), 1u);
}

TEST_F(OverloadTest, StateAndPolicyNames) {
  EXPECT_EQ(HealthStateToString(HealthState::kHealthy), "healthy");
  EXPECT_EQ(HealthStateToString(HealthState::kDegraded), "degraded");
  EXPECT_EQ(HealthStateToString(HealthState::kProbing), "probing");
  EXPECT_EQ(FullQueuePolicyToString(FullQueuePolicy::kBlock), "block");
  EXPECT_EQ(FullQueuePolicyToString(FullQueuePolicy::kShed), "shed");
  EXPECT_EQ(FullQueuePolicyToString(FullQueuePolicy::kFail), "fail");
}

// ---------------------------------------------------------------------------
// BoundedEventQueue slot reservation.

TEST_F(OverloadTest, TryAcquireSlotCountsReservedSlotsAgainstCapacity) {
  BoundedEventQueue queue(2);
  EXPECT_TRUE(queue.TryAcquireSlot());
  EXPECT_TRUE(queue.TryAcquireSlot());
  EXPECT_FALSE(queue.TryAcquireSlot());  // both slots reserved
  queue.CancelSlot();
  EXPECT_TRUE(queue.TryAcquireSlot());  // cancellation freed one
  queue.PushReserved(ShardEvent{});
  queue.PushReserved(ShardEvent{});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_FALSE(queue.TryAcquireSlot());  // now full of real items
}

TEST_F(OverloadTest, TryPushFailsImmediatelyWhenFull) {
  BoundedEventQueue queue(1);
  EXPECT_TRUE(queue.TryPush(ShardEvent{}));
  EXPECT_FALSE(queue.TryPush(ShardEvent{}));  // timeout 0: no wait
  EXPECT_EQ(queue.size(), 1u);
}

TEST_F(OverloadTest, TryPushBoundedWaitSucceedsWhenConsumerDrains) {
  BoundedEventQueue queue(1);
  ASSERT_TRUE(queue.TryPush(ShardEvent{}));
  std::thread consumer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)queue.Pop();
  });
  EXPECT_TRUE(queue.TryPush(ShardEvent{}, /*timeout_ms=*/2000));
  consumer.join();
  EXPECT_EQ(queue.size(), 1u);
}

TEST_F(OverloadTest, PopHandsBackEventsInOrder) {
  BoundedEventQueue queue(4);
  for (int i = 0; i < 3; ++i) {
    ShardEvent event;
    event.user = static_cast<mod::UserId>(i);
    queue.Push(std::move(event));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.Pop().user, static_cast<mod::UserId>(i));
  }
}

TEST_F(OverloadTest, BatchedIngestWakeupsStillDrainAFillingQueue) {
  // Ingest events wake a sleeping consumer only in batches (2 at a
  // capacity of 8).  A producer pushing four times the capacity must
  // never wait on a consumer that nobody woke.
  BoundedEventQueue queue(8);
  size_t popped = 0;
  std::thread consumer([&queue, &popped] {
    while (queue.Pop().kind != ShardEvent::Kind::kShutdown) ++popped;
  });
  size_t pushed = 0;
  while (pushed < 32 && queue.TryPush(ShardEvent{}, /*timeout_ms=*/2000)) {
    ++pushed;
  }
  EXPECT_EQ(pushed, 32u);
  ShardEvent shutdown;
  shutdown.kind = ShardEvent::Kind::kShutdown;
  queue.PushReserved(std::move(shutdown));  // never blocks; wakes at once
  consumer.join();
  EXPECT_EQ(popped, pushed);
}

// ---------------------------------------------------------------------------
// Full-queue policies on the concurrent front-end.

// The ISSUE regression: with the historical kBlock policy a wedged shard
// worker wedges the producer forever.  With kFail/kShed the producer keeps
// moving: the submission returns shed instead of blocking.
TEST_F(OverloadTest, StalledShardDoesNotStallTheFrontEnd) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  // Wedge the (only) worker: 20ms per popped event, far slower than the
  // tight submission loops below.
  fail::ScopedFailPoint stall(fail::kTsShardWorkerStall,
                              fail::DelayAction(/*delay_ms=*/20));
  ConcurrentServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 2;
  options.full_queue_policy = FullQueuePolicy::kFail;
  ConcurrentServer server(options);
  // Fill the queue past capacity while the worker crawls.  kFail means
  // every overflow submission returns immediately instead of blocking.
  size_t shed = 0;
  size_t accepted = 0;
  for (int i = 0; i < 32; ++i) {
    if (server.SubmitLocationUpdate(1, PointAt(10, 10, 100 + i))) {
      ++accepted;
    } else {
      ++shed;
      EXPECT_TRUE(server.last_submit_error().IsUnavailable());
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(server.shed_queue_full(), shed);
  EXPECT_EQ(server.shed_events(), shed);
  // A shed request reports the sentinel, not an ordinal.
  size_t shed_requests = 0;
  size_t accepted_requests = 0;
  for (int i = 0; i < 64 && shed_requests == 0; ++i) {
    if (server.SubmitRequest(1, PointAt(10, 10, 200 + i), 0, "x") ==
        ConcurrentServer::kShedSubmission) {
      ++shed_requests;
    } else {
      ++accepted_requests;
    }
  }
  EXPECT_GT(shed_requests, 0u);
  EXPECT_EQ(server.shed_requests(), shed_requests);
  server.Finish();
  // Shed requests truly had zero effect: only accepted ones ran the
  // pipeline and earned an outcome.
  EXPECT_EQ(server.stats().requests, accepted_requests);
  EXPECT_EQ(server.outcomes().size(), accepted_requests);
}

TEST_F(OverloadTest, ShedPolicyWaitsTheConfiguredTimeout) {
  BoundedEventQueue queue(1);
  ASSERT_TRUE(queue.TryAcquireSlot());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.TryAcquireSlot(/*timeout_ms=*/40));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(waited.count(), 35);
  queue.CancelSlot();
}

// ---------------------------------------------------------------------------
// Deadline budgets.

TEST_F(OverloadTest, SerialServerCountsDeadlineOverruns) {
  TrustedServerOptions options;
  options.overload.request_deadline_seconds = 1e-12;  // every request busts
  TrustedServer server(options);
  const ProcessOutcome outcome =
      server.ProcessRequest(0, PointAt(100, 100, 3600), 0, "x");
  // The budget is an SLO signal, not an abort: the outcome stands.
  EXPECT_NE(outcome.disposition, Disposition::kRejected);
  EXPECT_EQ(server.stats().requests, 1u);
  EXPECT_EQ(server.deadline_overruns(), 1u);
}

TEST_F(OverloadTest, SerialServerDeadlineOffByDefault) {
  TrustedServer server;
  (void)server.ProcessRequest(0, PointAt(100, 100, 3600), 0, "x");
  EXPECT_EQ(server.deadline_overruns(), 0u);
}

TEST_F(OverloadTest, QueueWaitDeadlineShedsAtServeTime) {
  ConcurrentServerOptions options;
  options.num_shards = 2;
  options.queue_deadline_seconds = 1e-9;  // any queue wait busts the budget
  ConcurrentServer server(options);
  std::vector<size_t> ordinals;
  for (int i = 0; i < 8; ++i) {
    const size_t ordinal = server.SubmitRequest(
        static_cast<mod::UserId>(i), PointAt(100, 100, 3600 + i), 0, "x");
    ASSERT_NE(ordinal, ConcurrentServer::kShedSubmission);
    ordinals.push_back(ordinal);
  }
  server.EndEpoch();
  server.Finish();
  EXPECT_EQ(server.deadline_sheds(), 8u);
  ASSERT_EQ(server.outcomes().size(), 8u);
  for (const size_t ordinal : ordinals) {
    // Shed at serve time: a dense kRejected outcome, nothing forwarded.
    EXPECT_EQ(server.outcomes()[ordinal].disposition, Disposition::kRejected);
    EXPECT_FALSE(server.outcomes()[ordinal].forwarded);
  }
  EXPECT_EQ(server.stats().requests, 0u);  // nothing entered the pipeline
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
