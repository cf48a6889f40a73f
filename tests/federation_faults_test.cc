// Fault-tolerance tests for the federation stack: deterministic fault
// injection (seeded Rng + SimClock — no wall sleeps anywhere), retry with
// backoff and deadlines, circuit breaking, and graceful degradation of
// federated answers. The invariants under test:
//
//   - with faults off, the decorated stack is bit-identical to the plain one;
//   - a degraded result is a subset of the fault-free result, never
//     fabricated, and carries per-endpoint error detail;
//   - provenance on surviving rows still refers only to real links;
//   - the breaker opens under sustained failure and re-closes after the
//     endpoint recovers and the cooldown elapses;
//   - healthy and fault-injected results match golden digests, with and
//     without a probe cache in front.
//
// Capture recipe for the goldens: each is the FNV-64 of ResultDigest()
// below. They were recorded at commit abaa800 by running these exact
// stacks, seeds and queries through the pre-compilation string executor
// (FederatedEngine's legacy execution mode), with the compiled path checked
// equal at capture time. That executor is gone, so the goldens cannot be
// regenerated from current sources, only re-verified.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/retry.h"
#include "federation/endpoint.h"
#include "federation/fault_injection.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "federation/resilient_endpoint.h"
#include "obs/metrics.h"

namespace alex::fed {
namespace {

using rdf::Term;

// A query whose healthy answer spans both endpoints: one left fact plus two
// right facts reachable only through the sameAs link.
constexpr char kSpanningQuery[] =
    "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }";

class FederationFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_.AddIriTriple("http://l/alice", "http://l/worksFor", "http://l/acme");
    left_.AddLiteralTriple("http://l/acme", "http://l/name",
                           Term::Literal("Acme"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                            Term::Literal("Belcaster"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("Acme Corporation"));
    links_.Add("http://l/acme", "http://r/acme-corp");
    left_ep_ = std::make_unique<Endpoint>(&left_);
    right_ep_ = std::make_unique<Endpoint>(&right_);
  }

  /// Builds the full decorated stack with the given right-side profile and
  /// returns an engine over it. The left side stays healthy.
  void BuildStack(const FaultProfile& right_profile,
                  RetryPolicy retry = RetryPolicy(),
                  CircuitBreakerConfig breaker = CircuitBreakerConfig()) {
    faulty_left_ = std::make_unique<FaultInjectedEndpoint>(
        left_ep_.get(), FaultProfile::Healthy(), /*seed=*/11, &clock_);
    faulty_right_ = std::make_unique<FaultInjectedEndpoint>(
        right_ep_.get(), right_profile, /*seed=*/12, &clock_);
    resilient_left_ = std::make_unique<ResilientEndpoint>(
        faulty_left_.get(), retry, breaker, /*seed=*/13, &clock_);
    resilient_right_ = std::make_unique<ResilientEndpoint>(
        faulty_right_.get(), retry, breaker, /*seed=*/14, &clock_);
    engine_ = std::make_unique<FederatedEngine>(
        resilient_left_.get(), resilient_right_.get(), &links_);
  }

  /// Fault-free reference result from undecorated endpoints.
  FederatedResult HealthyResult(const std::string& query) {
    FederatedEngine plain(left_ep_.get(), right_ep_.get(), &links_);
    auto r = plain.ExecuteText(query);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }

  static bool SameRow(const ProvenancedRow& a, const ProvenancedRow& b) {
    return a.values == b.values;
  }

  static bool IsSubset(const std::vector<ProvenancedRow>& small,
                       const std::vector<ProvenancedRow>& big) {
    return std::all_of(small.begin(), small.end(), [&](const auto& row) {
      return std::any_of(big.begin(), big.end(), [&](const auto& candidate) {
        return SameRow(row, candidate);
      });
    });
  }

  rdf::Dataset left_{"hr"};
  rdf::Dataset right_{"companies"};
  LinkIndex links_;
  SimClock clock_;
  std::unique_ptr<Endpoint> left_ep_;
  std::unique_ptr<Endpoint> right_ep_;
  std::unique_ptr<FaultInjectedEndpoint> faulty_left_;
  std::unique_ptr<FaultInjectedEndpoint> faulty_right_;
  std::unique_ptr<ResilientEndpoint> resilient_left_;
  std::unique_ptr<ResilientEndpoint> resilient_right_;
  std::unique_ptr<FederatedEngine> engine_;
};

TEST_F(FederationFaultsTest, HealthyStackBitIdenticalToPlainEngine) {
  BuildStack(FaultProfile::Healthy());
  const FederatedResult healthy = HealthyResult(kSpanningQuery);
  auto r = engine_->ExecuteText(kSpanningQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->degraded);
  EXPECT_TRUE(r->errors.empty());
  ASSERT_EQ(r->NumRows(), healthy.NumRows());
  for (size_t i = 0; i < r->rows.size(); ++i) {
    EXPECT_EQ(r->rows[i].values, healthy.rows[i].values) << "row " << i;
    ASSERT_EQ(r->rows[i].links_used.size(),
              healthy.rows[i].links_used.size());
    for (size_t j = 0; j < r->rows[i].links_used.size(); ++j) {
      EXPECT_EQ(r->rows[i].links_used[j].left_iri,
                healthy.rows[i].links_used[j].left_iri);
      EXPECT_EQ(r->rows[i].links_used[j].right_iri,
                healthy.rows[i].links_used[j].right_iri);
    }
  }
  EXPECT_DOUBLE_EQ(clock_.NowSeconds(), 0.0);  // Healthy adds no latency.
}

TEST_F(FederationFaultsTest, FailedProbeLeaksNoRows) {
  // Failures are drawn before the inner endpoint is consulted, so a failed
  // probe streams nothing — the guarantee that makes retries idempotent.
  FaultProfile always_fail;
  always_fail.error_rate = 1.0;
  FaultInjectedEndpoint faulty(right_ep_.get(), always_fail, 5, &clock_);
  PatternProbe probe;  // All wildcards: would match every right triple.
  size_t rows = 0;
  const Status st = faulty.Probe(probe, CallOptions(),
                                 [&](const Term*, const Term*, const Term*) {
                                   ++rows;
                                   return true;
                                 });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rows, 0u);
}

TEST_F(FederationFaultsTest, RetryRecoversFromTransientOutage) {
  // First injector call fails, the retry succeeds: the query must come back
  // complete and NOT degraded, with fed.retries ticking up.
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.jitter_fraction = 0.0;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  BuildStack(FaultProfile::DownFor(1), retry);
  const FederatedResult healthy = HealthyResult(kSpanningQuery);
  auto r = engine_->ExecuteText(kSpanningQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->degraded);
  EXPECT_EQ(r->NumRows(), healthy.NumRows());
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at("fed.retries"), 1u);
  // Backoff between the attempts advanced the virtual clock.
  EXPECT_GT(clock_.NowSeconds(), 0.0);
}

TEST_F(FederationFaultsTest, OneEndpointDownYieldsDegradedPartialResult) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.jitter_fraction = 0.0;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  BuildStack(FaultProfile::Down(), retry);
  const FederatedResult healthy = HealthyResult(kSpanningQuery);
  auto r = engine_->ExecuteText(kSpanningQuery);
  // Never a whole-query failure: the surviving endpoint's rows come back.
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->degraded);
  EXPECT_GT(r->NumRows(), 0u);                      // Left fact survives.
  EXPECT_LT(r->NumRows(), healthy.NumRows());       // Right facts lost.
  EXPECT_TRUE(IsSubset(r->rows, healthy.rows));     // Nothing fabricated.
  ASSERT_FALSE(r->errors.empty());
  const EndpointError& err = r->errors.front();
  EXPECT_EQ(err.endpoint, "companies");
  EXPECT_EQ(err.code, StatusCode::kUnavailable);
  EXPECT_FALSE(err.message.empty());
  EXPECT_GT(err.failed_probes, 0u);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at("fed.degraded_queries"), 1u);
  EXPECT_GE(delta.counters.at("fed.endpoint_errors"), 1u);
}

TEST_F(FederationFaultsTest, ProvenanceOnDegradedRowsIsNeverFabricated) {
  BuildStack(FaultProfile::Flaky(), RetryPolicy());
  for (int i = 0; i < 10; ++i) {
    auto r = engine_->ExecuteText(kSpanningQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    for (const ProvenancedRow& row : r->rows) {
      for (const SameAsLink& link : row.links_used) {
        EXPECT_TRUE(links_.Contains(link.left_iri, link.right_iri))
            << link.left_iri << " -> " << link.right_iri;
      }
    }
  }
}

TEST_F(FederationFaultsTest, DegradedRowsAreSubsetOfHealthyAcrossSeeds) {
  const FederatedResult healthy = HealthyResult(kSpanningQuery);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SimClock clock;
    FaultProfile flaky = FaultProfile::Flaky();
    FaultInjectedEndpoint faulty_left(left_ep_.get(), FaultProfile::Healthy(),
                                      seed * 100 + 1, &clock);
    FaultInjectedEndpoint faulty_right(right_ep_.get(), flaky, seed * 100 + 2,
                                       &clock);
    RetryPolicy retry;
    retry.max_attempts = 1;  // No retries: maximize observable degradation.
    ResilientEndpoint rl(&faulty_left, retry, CircuitBreakerConfig(),
                         seed * 100 + 3, &clock);
    ResilientEndpoint rr(&faulty_right, retry, CircuitBreakerConfig(),
                         seed * 100 + 4, &clock);
    FederatedEngine engine(&rl, &rr, &links_);
    auto r = engine.ExecuteText(kSpanningQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(IsSubset(r->rows, healthy.rows)) << "seed " << seed;
  }
}

TEST_F(FederationFaultsTest, DeterministicForFixedSeed) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  auto run_once = [&] {
    // Same datasets, fresh clock and fresh (same-seeded) decorator stack.
    clock_ = SimClock();
    BuildStack(FaultProfile::Flaky(), retry);
    std::vector<std::string> out;
    for (int i = 0; i < 5; ++i) {
      auto r = engine_->ExecuteText(kSpanningQuery);
      EXPECT_TRUE(r.ok());
      std::string digest = r->degraded ? "degraded:" : "full:";
      for (const auto& row : r->rows) {
        for (const Term& t : row.values) digest += t.value + "|";
      }
      out.push_back(digest);
    }
    out.push_back("t=" + std::to_string(clock_.NowSeconds()));
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(FederationFaultsTest, BreakerOpensUnderSustainedFailureThenRecloses) {
  // The right endpoint is hard-down for its first 12 calls, then recovers.
  // Sustained failure must trip the breaker (fast local rejections); after
  // recovery plus cooldown, the half-open probe must re-close it.
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.jitter_fraction = 0.0;
  CircuitBreakerConfig breaker;
  breaker.window = 4;
  breaker.min_calls = 2;
  breaker.failure_rate_threshold = 0.5;
  breaker.cooldown_seconds = 2.0;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  BuildStack(FaultProfile::DownFor(12), retry, breaker);
  const FederatedResult healthy = HealthyResult(kSpanningQuery);

  bool recovered = false;
  for (int i = 0; i < 30 && !recovered; ++i) {
    auto r = engine_->ExecuteText(kSpanningQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    recovered = !r->degraded;
    if (recovered) {
      EXPECT_EQ(r->NumRows(), healthy.NumRows());  // Full answer is back.
    }
    clock_.AdvanceSeconds(1.0);  // Let the cooldown elapse between queries.
  }
  EXPECT_TRUE(recovered) << "endpoint never recovered through the breaker";
  EXPECT_GE(resilient_right_->breaker().times_opened(), 1u);
  EXPECT_EQ(resilient_right_->breaker().state(),
            CircuitBreaker::State::kClosed);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at("fed.breaker_trips"), 1u);
  EXPECT_GE(delta.counters.at("fed.breaker_open"), 1u);
}

TEST_F(FederationFaultsTest, QueryDeadlineExpiryDegradesInsteadOfFailing) {
  // The slow profile's injected latency counts against the query deadline
  // because engine and injector share the SimClock.
  RetryPolicy retry;
  retry.max_attempts = 1;
  BuildStack(FaultProfile::Slow(), retry);
  engine_->SetQueryDeadline(&clock_, /*deadline_seconds=*/0.05);
  auto r = engine_->ExecuteText(kSpanningQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->degraded);
  const auto deadline_error =
      std::find_if(r->errors.begin(), r->errors.end(), [](const auto& e) {
        return e.code == StatusCode::kDeadlineExceeded;
      });
  ASSERT_NE(deadline_error, r->errors.end());
}

/// Full observable state of a result, for golden and cross-stack checks:
/// row values, link provenance, degraded flag, per-endpoint error detail.
std::string ResultDigest(const Result<FederatedResult>& r) {
  if (!r.ok()) {
    return "error:" + std::to_string(static_cast<int>(r.status().code())) +
           ":" + std::string(r.status().message());
  }
  std::string d = r->degraded ? "degraded|" : "ok|";
  for (const EndpointError& e : r->errors) {
    d += e.endpoint + ":" + std::to_string(static_cast<int>(e.code)) + ":" +
         std::to_string(e.failed_probes) + ";";
  }
  for (const ProvenancedRow& row : r->rows) {
    d += "row:";
    for (const Term& t : row.values) d += t.ToNTriples() + "\x1e";
    for (const SameAsLink& l : row.links_used) {
      d += l.left_iri + "->" + l.right_iri + "\x1f";
    }
  }
  return d;
}

uint64_t Fnv64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_F(FederationFaultsTest, HealthyStackCacheStatesMatchGoldens) {
  // On a healthy stack, the uncached engine, a cold probe cache and a warm
  // probe cache must be bit-identical, and match the golden.
  BuildStack(FaultProfile::Healthy());
  CachingEndpoint cached_left(resilient_left_.get(), ProbeCacheConfig(),
                              [this] { return links_.epoch(); });
  CachingEndpoint cached_right(resilient_right_.get(), ProbeCacheConfig(),
                               [this] { return links_.epoch(); });
  FederatedEngine caching_engine(&cached_left, &cached_right, &links_);

  const struct {
    const char* query;
    uint64_t golden;
  } cases[] = {
      {kSpanningQuery, 0x3145369e6b42c7b9ull},
      {"SELECT ?who ?o WHERE { ?who <http://l/worksFor> ?org . "
       "?org ?p ?o . }",
       0xe988e0a1aeab4433ull},
      {"SELECT DISTINCT ?o WHERE { <http://l/acme> ?p ?o . }",
       0x7517e9f6bf7aef94ull},
  };
  for (const auto& c : cases) {
    const std::string uncached = ResultDigest(engine_->ExecuteText(c.query));
    const std::string cache_cold =
        ResultDigest(caching_engine.ExecuteText(c.query));
    const std::string cache_warm =
        ResultDigest(caching_engine.ExecuteText(c.query));
    EXPECT_EQ(Fnv64(uncached), c.golden) << c.query << "\n  " << uncached;
    EXPECT_EQ(uncached, cache_cold) << c.query;
    EXPECT_EQ(uncached, cache_warm) << c.query;
  }
  EXPECT_GT(cached_left.hits() + cached_right.hits(), 0u);
}

TEST_F(FederationFaultsTest, FaultInjectedStacksMatchGoldens) {
  // Under fault injection, a fresh same-seeded stack must reproduce the
  // golden, with or without a cold cache in front: the probe sequence is a
  // function of the query, data and links alone, so the injected fault
  // draws line up one-for-one. Degradation detail included.
  RetryPolicy retry;
  retry.max_attempts = 1;  // No retries: maximize observable degradation.
  const std::string queries[] = {
      kSpanningQuery,
      "SELECT ?who ?o WHERE { ?who <http://l/worksFor> ?org . "
      "?org ?p ?o . }",
  };
  // kGoldens[seed - 1][query index].
  constexpr uint64_t kGoldens[5][2] = {
      {0x4d5602b924c078b8ull, 0xb2ad7b6d2f4f09a5ull},
      {0x88496eb4611c334dull, 0x4d598ab924c395a7ull},
      {0x88496eb4611c334dull, 0x5a8504f4a4a8ce9cull},
      {0x3145369e6b42c7b9ull, 0x575670392ca9491eull},
      {0x401ca13da1d21782ull, 0x229f0d74c2064380ull},
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t qi = 0; qi < 2; ++qi) {
      const std::string& query = queries[qi];
      auto run = [&](bool with_cache) {
        SimClock clock;
        FaultInjectedEndpoint fl(left_ep_.get(), FaultProfile::Flaky(),
                                 seed * 10 + 1, &clock);
        FaultInjectedEndpoint fr(right_ep_.get(), FaultProfile::Flaky(),
                                 seed * 10 + 2, &clock);
        ResilientEndpoint rl(&fl, retry, CircuitBreakerConfig(),
                             seed * 10 + 3, &clock);
        ResilientEndpoint rr(&fr, retry, CircuitBreakerConfig(),
                             seed * 10 + 4, &clock);
        CachingEndpoint cl(&rl);
        CachingEndpoint cr(&rr);
        FederatedEngine engine(
            with_cache ? static_cast<const QueryEndpoint*>(&cl) : &rl,
            with_cache ? static_cast<const QueryEndpoint*>(&cr) : &rr,
            &links_);
        return ResultDigest(engine.ExecuteText(query));
      };
      const std::string uncached = run(false);
      const std::string cache_cold = run(true);
      EXPECT_EQ(Fnv64(uncached), kGoldens[seed - 1][qi])
          << "seed " << seed << ": " << query << "\n  " << uncached;
      EXPECT_EQ(uncached, cache_cold) << "seed " << seed << ": " << query;
    }
  }
}

TEST_F(FederationFaultsTest, LinkMutationAfterEpisodeIsVisibleThroughCache) {
  // An episode loop mutates the LinkIndex between queries (EndEpisode
  // applying feedback). The probe cache must not serve answers computed
  // against the old link set: epoch invalidation makes the mutation
  // visible to the very next query.
  BuildStack(FaultProfile::Healthy());
  CachingEndpoint cached_left(resilient_left_.get(), ProbeCacheConfig(),
                              [this] { return links_.epoch(); });
  CachingEndpoint cached_right(resilient_right_.get(), ProbeCacheConfig(),
                               [this] { return links_.epoch(); });
  FederatedEngine engine(&cached_left, &cached_right, &links_);

  auto before = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  auto warm = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->NumRows(), before->NumRows());

  // New link discovered by ALEX: the spanning query must widen immediately.
  right_.AddLiteralTriple("http://r/acme-two", "http://r/hq",
                          Term::Literal("Miami"));
  links_.Add("http://l/acme", "http://r/acme-two");
  auto after = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(after->NumRows(), before->NumRows());

  // Link retracted (negative feedback): the extra rows disappear again.
  links_.Remove("http://l/acme", "http://r/acme-two");
  auto reverted = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(reverted.ok());
  EXPECT_EQ(ResultDigest(reverted), ResultDigest(before));
}

TEST_F(FederationFaultsTest, AttemptTimeoutConvertsStallsToFastFailures) {
  // A stalled call costs at most the per-attempt timeout of virtual time,
  // not the stall's 30 virtual seconds.
  FaultProfile stall;
  stall.stall_rate = 1.0;
  stall.stall_seconds = 30.0;
  FaultInjectedEndpoint faulty(right_ep_.get(), stall, 5, &clock_);
  CallOptions opts;
  opts.timeout_seconds = 0.5;
  const PatternProbe probe;  // All wildcards.
  const Status st = faulty.Probe(
      probe, opts,
      [](const Term*, const Term*, const Term*) { return true; });
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(clock_.NowSeconds(), 0.5);
}

}  // namespace
}  // namespace alex::fed
