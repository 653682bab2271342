// Tests of the benchmark's own machinery: input determinism, cache
// honesty of the workload shapes, payload checks, the span self-time /
// coverage arithmetic and the host-speed calibration.

#include <chrono>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "calibrate.h"
#include "inputs.h"
#include "spans.h"
#include "src/ibe/attribute.h"
#include "src/ibe/hybrid.h"
#include "src/math/params.h"
#include "src/pkg/pkg_service.h"
#include "src/util/clock.h"
#include "src/util/random.h"

namespace e2e {
namespace {

template <typename Plan>
std::string DigestOf(const Plan& plan) {
  InputDigest digest;
  AddToDigest(plan, &digest);
  return digest.Hex();
}

TEST(InputsTest, SameSeedGivesIdenticalDigest) {
  EXPECT_EQ(DigestOf(MakeIngestPlan(7, 20'000)),
            DigestOf(MakeIngestPlan(7, 20'000)));
  EXPECT_EQ(DigestOf(MakeDrainPlan(7, 10)), DigestOf(MakeDrainPlan(7, 10)));
  EXPECT_EQ(DigestOf(MakeMixedPlan(7, 10)), DigestOf(MakeMixedPlan(7, 10)));
}

TEST(InputsTest, OtherSeedGivesOtherDigest) {
  EXPECT_NE(DigestOf(MakeIngestPlan(7, 20'000)),
            DigestOf(MakeIngestPlan(8, 20'000)));
  EXPECT_NE(DigestOf(MakeDrainPlan(7, 10)), DigestOf(MakeDrainPlan(8, 10)));
  EXPECT_NE(DigestOf(MakeMixedPlan(7, 10)), DigestOf(MakeMixedPlan(8, 10)));
  EXPECT_NE(MakeCanary(7), MakeCanary(8));
}

TEST(InputsTest, IngestDepositsAreDistinctAndSpanAttributes) {
  const IngestPlan plan = MakeIngestPlan(3, 50'000);
  std::set<std::pair<uint32_t, uint32_t>> seen(plan.items.begin(),
                                               plan.items.end());
  EXPECT_EQ(seen.size(), plan.items.size());
  // Every batch carries several attributes, so the router splits it.
  std::set<std::string> attributes;
  for (size_t k = 0; k < plan.batch; ++k) {
    attributes.insert(plan.pool[plan.items[k].first].attribute);
  }
  EXPECT_GE(attributes.size(), 8u);
}

TEST(InputsTest, SealedReadingsAreReproducibleAndDecrypt) {
  const mws::math::TypeAParams& group =
      mws::math::GetParams(mws::math::ParamPreset::kSmall);
  mws::util::DeterministicRandom pkg_rng(11);
  mws::util::SimulatedClock clock(kEpochMicros);
  mws::pkg::PkgService pkg(group, mws::util::Bytes(32, 1), &clock, &pkg_rng);
  const DeviceSpec device{"DEV-1", mws::util::Bytes(32, 2)};
  const mws::util::Bytes canary = MakeCanary(5);
  const mws::util::Bytes payload = MakePayload(canary, 42, 5);

  auto a = SealReading(pkg.PublicParams(), device, "ATTR-1", payload, 99,
                       kEpochMicros);
  auto b = SealReading(pkg.PublicParams(), device, "ATTR-1", payload, 99,
                       kEpochMicros);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Encode(), b->Encode());

  // Re-stamping under another device changes the MAC, not the reading.
  const DeviceSpec other{"DEV-2", mws::util::Bytes(32, 3)};
  const auto restamped = Restamp(a.value(), other, kEpochMicros + 5);
  EXPECT_EQ(restamped.device_id, "DEV-2");
  EXPECT_NE(restamped.mac, a->mac);
  EXPECT_EQ(restamped.ciphertext, a->ciphertext);

  mws::ibe::HybridSealer sealer(group, mws::crypto::CipherKind::kDes);
  auto key = pkg.ExtractForIdentity(mws::ibe::DeriveIdentity(
      restamped.attribute, mws::ibe::MessageNonce{restamped.nonce}));
  auto u = group.curve().Deserialize(restamped.u);
  ASSERT_TRUE(u.ok());
  auto plain = sealer.Open(key, {u.value(), restamped.ciphertext});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(CheckPayload(canary, plain.value()), 42u);
}

TEST(InputsTest, CacheHonesty) {
  // ingest hashes and extracts nothing while timed.
  EXPECT_EQ(Footprint(MakeIngestPlan(1, 10'000)).timed_identities, 0u);
  // drain fits the AID cache but cycles far more identities than the
  // HashToPoint LRU holds, so repeated passes cost the same.
  const CacheFootprint drain = Footprint(MakeDrainPlan(1, 10));
  EXPECT_LT(drain.grants, kAidCacheCapacity);
  EXPECT_GT(drain.timed_identities, 8 * kHashToPointLruCapacity);
  // mixed exceeds the AID cache and every reading is a new identity.
  const CacheFootprint mixed = Footprint(MakeMixedPlan(1, 10));
  EXPECT_GT(mixed.grants, kAidCacheCapacity);
  EXPECT_GT(mixed.timed_identities, kHashToPointLruCapacity);
}

TEST(InputsTest, PayloadCheckRejectsTampering) {
  const mws::util::Bytes canary = MakeCanary(9);
  mws::util::Bytes payload = MakePayload(canary, 7, 9);
  EXPECT_EQ(payload.size(), kPayloadBytes);
  EXPECT_EQ(CheckPayload(canary, payload), 7u);
  EXPECT_FALSE(CheckPayload(MakeCanary(10), payload).has_value());
  payload[30] ^= 1;
  EXPECT_FALSE(CheckPayload(canary, payload).has_value());
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(CalibrationTest, SlowdownIsMeanBurstOverReference) {
  const double ref = ReferenceBurstMs();
  EXPECT_DOUBLE_EQ(Slowdown({ref, ref, ref}), 1.0);
  EXPECT_DOUBLE_EQ(Slowdown({ref, 3 * ref}), 2.0);
  EXPECT_DOUBLE_EQ(Slowdown({}), 1.0);
}

TEST(CalibrationTest, SamplerTakesBurstsWhileRunning) {
  const int64_t from = SteadyNs();
  std::vector<double> bursts;
  double cpu_s = 0;
  {
    SpeedSampler sampler(5'000'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const int64_t to = SteadyNs();
    bursts = sampler.BurstsBetween(from, to);
    cpu_s = sampler.CpuSecondsBetween(from, to);
    EXPECT_TRUE(sampler.BurstsBetween(to + 1'000'000'000, to + 2'000'000'000)
                    .empty());
  }
  ASSERT_GE(bursts.size(), 2u);
  double sum_ms = 0;
  for (double ms : bursts) {
    EXPECT_GT(ms, 0);
    sum_ms += ms;
  }
  EXPECT_NEAR(cpu_s * 1e3, sum_ms, 1e-9);
  EXPECT_GT(Slowdown(bursts), 0);
}

TEST(SpanTimesTest, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100); children overlap each other and one overruns the root;
  // a grandchild must not count against the root; an orphan is ignored.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),    MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50),    MakeSpan(4, 1, 90, 120),
      MakeSpan(5, 2, 12, 28),    MakeSpan(6, 77, 0, 1000),
  };
  const SpanTimes t = ComputeSpanTimes(spans);
  EXPECT_EQ(t.covered_ns[0], 40 + 10);
  EXPECT_EQ(t.self_ns[0], 50);
  EXPECT_EQ(t.child_count[0], 3u);
  EXPECT_EQ(t.child_sum_ns[0], 20 + 30 + 30);
  EXPECT_EQ(t.child_max_ns[0], 30);
  EXPECT_EQ(t.self_ns[1], 20 - 16);
  EXPECT_EQ(t.self_ns[4], 16);  // leaf: all self
  EXPECT_EQ(t.self_ns[5], 1000);
  EXPECT_EQ(t.child_count[5], 0u);
}

TEST(SpanTimesTest, ScopesNestPerThread) {
  SpanRecorder recorder;
  const uint32_t outer = recorder.Intern("outer");
  const uint32_t inner = recorder.Intern("inner");
  {
    SpanScope a(&recorder, outer);
    { SpanScope b(&recorder, inner); }
    std::thread other([&] { SpanScope c(&recorder, inner); });
    other.join();
  }
  const std::vector<Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 3u);
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.name == outer) root = &s;
  }
  ASSERT_NE(root, nullptr);
  int children = 0;
  int roots = 0;
  for (const Span& s : spans) {
    if (s.parent == root->id) {
      ++children;
      EXPECT_EQ(s.request, root->id);
    }
    if (s.parent == 0) ++roots;
  }
  // The span opened on another thread starts its own tree.
  EXPECT_EQ(children, 1);
  EXPECT_EQ(roots, 2);
  const SpanTimes t = ComputeSpanTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) EXPECT_GE(t.self_ns[i], 0);
}

}  // namespace
}  // namespace e2e
