#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/client/smart_device.h"
#include "src/crypto/hash.h"
#include "src/crypto/hmac.h"
#include "src/util/clock.h"
#include "src/util/hex.h"
#include "src/util/random.h"
#include "src/util/serde.h"

namespace e2e {

using mws::util::Bytes;

namespace {

constexpr int64_t kSecond = 1'000'000;

// Stream indices for Mix(): one per independent draw sequence.
enum Stream : uint64_t {
  kStreamCanary = 1,
  kStreamDeviceKeys = 2,
  kStreamIngestOrder = 3,
  kStreamDrainBacklog = 4,
  kStreamMixedSchedule = 5,
  kStreamBody = 1000,
};

std::string Numbered(const char* prefix, size_t i, int width) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%0*zu", prefix, width, i);
  return buf;
}

std::vector<DeviceSpec> MakeDevices(uint64_t seed, const char* prefix,
                                    size_t count) {
  // FNV-1a of the prefix keeps the device families' keys independent.
  uint64_t family = 0xcbf29ce484222325ULL;
  for (const char* c = prefix; *c != '\0'; ++c) {
    family = (family ^ static_cast<uint8_t>(*c)) * 0x100000001b3ULL;
  }
  mws::util::DeterministicRandom rng(Mix(seed, kStreamDeviceKeys ^ family));
  std::vector<DeviceSpec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back({Numbered(prefix, i, 4), rng.Generate(32)});
  }
  return out;
}

void AddDevices(const std::vector<DeviceSpec>& devices, InputDigest* digest) {
  mws::util::Writer w;
  for (const DeviceSpec& d : devices) {
    w.PutString(d.id);
    w.PutBytes(d.mac_key);
  }
  digest->Add(w.data());
}

void AddReadings(const std::vector<ReadingSpec>& readings,
                 InputDigest* digest) {
  mws::util::Writer w;
  for (const ReadingSpec& r : readings) {
    w.PutU64(r.id);
    w.PutString(r.attribute);
    w.PutU32(r.device);
    w.PutU64(static_cast<uint64_t>(r.timestamp_offset_us));
  }
  digest->Add(w.data());
}

void AddReceivers(const std::vector<ReceiverSpec>& receivers,
                  InputDigest* digest) {
  mws::util::Writer w;
  for (const ReceiverSpec& r : receivers) {
    w.PutString(r.name);
    for (const std::string& a : r.attributes) w.PutString(a);
  }
  digest->Add(w.data());
}

void AddPairs(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
              InputDigest* digest) {
  mws::util::Writer w;
  for (const auto& [a, b] : pairs) {
    w.PutU32(a);
    w.PutU32(b);
  }
  digest->Add(w.data());
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kIngest:
      return "ingest";
    case Workload::kDrain:
      return "drain";
    case Workload::kMixed:
      return "mixed";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kIngest, Workload::kDrain, Workload::kMixed}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the combined value.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Bytes MakeCanary(uint64_t seed) {
  mws::util::DeterministicRandom rng(Mix(seed, kStreamCanary));
  return rng.Generate(kCanaryBytes);
}

Bytes MakePayload(const Bytes& canary, uint64_t reading_id, uint64_t seed) {
  Bytes out = canary;
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<uint8_t>(reading_id >> shift));
  }
  mws::util::DeterministicRandom rng(
      Mix(seed, kStreamBody + reading_id));
  Bytes body = rng.Generate(kPayloadBytes - kCanaryBytes - 8 - 16);
  out.insert(out.end(), body.begin(), body.end());
  Bytes digest = mws::crypto::Sha256(out);
  out.insert(out.end(), digest.begin(), digest.begin() + 16);
  return out;
}

std::optional<uint64_t> CheckPayload(const Bytes& canary,
                                     const Bytes& plaintext) {
  if (plaintext.size() != kPayloadBytes) return std::nullopt;
  if (!std::equal(canary.begin(), canary.end(), plaintext.begin())) {
    return std::nullopt;
  }
  Bytes head(plaintext.begin(), plaintext.end() - 16);
  Bytes digest = mws::crypto::Sha256(head);
  if (!std::equal(digest.begin(), digest.begin() + 16, plaintext.end() - 16)) {
    return std::nullopt;
  }
  uint64_t id = 0;
  for (size_t i = 0; i < 8; ++i) id = (id << 8) | plaintext[kCanaryBytes + i];
  return id;
}

void InputDigest::Add(const Bytes& bytes) {
  Bytes chained = state_;
  chained.insert(chained.end(), bytes.begin(), bytes.end());
  state_ = mws::crypto::Sha256(chained);
}

void InputDigest::Add(const std::string& text) {
  Add(mws::util::BytesFromString(text));
}

void InputDigest::Add(uint64_t value) {
  mws::util::Writer w;
  w.PutU64(value);
  Add(w.data());
}

std::string InputDigest::Hex() const {
  return mws::util::HexEncode(state_);
}

IngestPlan MakeIngestPlan(uint64_t seed, size_t item_count) {
  constexpr size_t kAttributes = 16;
  constexpr size_t kPool = 96;
  constexpr size_t kDevices = 16384;
  IngestPlan plan;
  plan.devices = MakeDevices(seed, "ING-DEV-", kDevices);
  for (size_t k = 0; k < kPool; ++k) {
    plan.pool.push_back({2'000'000 + k, Numbered("ING-", k % kAttributes, 2),
                         static_cast<uint32_t>(k % kDevices), 0});
  }
  // Each (pool reading, device) pair is used at most once.
  item_count = std::min(item_count, kPool * kDevices);
  mws::util::DeterministicRandom rng(Mix(seed, kStreamIngestOrder));
  std::vector<uint32_t> order(kPool);
  for (size_t k = 0; k < kPool; ++k) order[k] = static_cast<uint32_t>(k);
  for (size_t k = kPool - 1; k > 0; --k) {
    std::swap(order[k], order[rng.NextU64() % (k + 1)]);
  }
  const size_t rotation = rng.NextU64() % kDevices;
  plan.items.reserve(item_count);
  for (size_t k = 0; k < item_count; ++k) {
    plan.items.emplace_back(
        order[k % kPool],
        static_cast<uint32_t>((k / kPool + rotation) % kDevices));
  }
  plan.probe = {"ING-PROBE-RC", {"ING-QUIET", "ING-00"}};
  plan.stamp_offset_us = 60 * kSecond;
  return plan;
}

DrainPlan MakeDrainPlan(uint64_t seed, double seconds) {
  constexpr size_t kAttributes = 12;
  constexpr size_t kPerAttribute = 128;
  constexpr size_t kDevices = 64;
  DrainPlan plan;
  plan.devices = MakeDevices(seed, "DRAIN-DEV-", kDevices);
  for (size_t r = 0; r < kAttributes / 2; ++r) {
    plan.receivers.push_back({Numbered("DRAIN-RC", r, 1),
                              {Numbered("BILL-", 2 * r, 2),
                               Numbered("BILL-", 2 * r + 1, 2)}});
  }
  plan.windows = 16;
  plan.window_us = 12'500'000;
  // All backlog timestamps lie within the MWS freshness window (5 min)
  // of the set-up instant, before the clock's epoch.
  plan.first_window_offset_us =
      -static_cast<int64_t>(plan.windows) * plan.window_us - 10 * kSecond;
  mws::util::DeterministicRandom rng(Mix(seed, kStreamDrainBacklog));
  for (size_t j = 0; j < kAttributes * kPerAttribute; ++j) {
    const size_t window = (j / kAttributes) % plan.windows;
    ReadingSpec r;
    r.id = j + 1;
    r.attribute = Numbered("BILL-", j % kAttributes, 2);
    r.device = static_cast<uint32_t>(rng.NextU64() % kDevices);
    r.timestamp_offset_us =
        plan.first_window_offset_us +
        static_cast<int64_t>(window) * plan.window_us +
        static_cast<int64_t>(rng.NextU64() %
                             static_cast<uint64_t>(plan.window_us));
    plan.backlog.push_back(std::move(r));
  }

  constexpr size_t kTricklePool = 16;
  constexpr size_t kTrickleDevices = 512;
  plan.trickle_devices = MakeDevices(seed, "TRICKLE-DEV-", kTrickleDevices);
  for (size_t k = 0; k < kTricklePool; ++k) {
    plan.trickle_pool.push_back({1'000'000 + k, Numbered("TRICKLE-", k % 4, 1),
                                 static_cast<uint32_t>(k), 0});
  }
  plan.trickle_per_s = 400;
  const size_t trickle_count = std::min(
      kTricklePool * kTrickleDevices,
      static_cast<size_t>(std::ceil(plan.trickle_per_s * seconds * 1.1)) + 16);
  for (size_t k = 0; k < trickle_count; ++k) {
    plan.trickle_items.emplace_back(static_cast<uint32_t>(k % kTricklePool),
                                    static_cast<uint32_t>(k / kTricklePool));
  }
  plan.trickle_stamp_offset_us = 60 * kSecond;
  return plan;
}

MixedPlan MakeMixedPlan(uint64_t seed, double seconds) {
  constexpr size_t kReceivers = 32;
  constexpr size_t kGrantsPerReceiver = 136;  // 32 * 136 > AID cache
  constexpr size_t kDevices = 128;
  // Readings are placed this far inside their window's edges, so a
  // deposit a little late still lands in the window it was meant for.
  constexpr int64_t kEdgeMarginUs = 50'000;
  MixedPlan plan;
  plan.devices = MakeDevices(seed, "MIX-DEV-", kDevices);
  plan.receivers.resize(kReceivers);
  for (size_t r = 0; r < kReceivers; ++r) {
    plan.receivers[r].name = Numbered("MIX-RC", r, 2);
    for (size_t g = 0; g < kGrantsPerReceiver; ++g) {
      plan.receivers[r].attributes.push_back(
          Numbered("MIX-", g * kReceivers + r, 4));
    }
  }
  plan.poll_period_us = kSecond;
  plan.settle_us = kSecond / 2;
  plan.readings_per_window = 3;

  // Receiver r polls at phase_r + j * period; poll j covers deposit
  // timestamps [due_{j-1} - settle, due_j - settle). The readings of
  // that window are spread evenly across it.
  mws::util::DeterministicRandom rng(Mix(seed, kStreamMixedSchedule));
  const int64_t horizon_us = static_cast<int64_t>(seconds * kSecond);
  const int64_t period = plan.poll_period_us;
  const size_t per_window = plan.readings_per_window;
  std::vector<std::pair<int64_t, uint32_t>> due_receiver;
  for (size_t r = 0; r < kReceivers; ++r) {
    const int64_t phase =
        period * static_cast<int64_t>(r) / static_cast<int64_t>(kReceivers);
    for (int64_t due = phase; due < horizon_us; due += period) {
      plan.polls.emplace_back(due, static_cast<uint32_t>(r));
      const int64_t from = due - period - plan.settle_us;
      if (from < 0) continue;
      const int64_t span = period - 2 * kEdgeMarginUs;
      for (size_t i = 0; i < per_window; ++i) {
        due_receiver.emplace_back(
            from + kEdgeMarginUs +
                span * static_cast<int64_t>(2 * i + 1) /
                    static_cast<int64_t>(2 * per_window),
            static_cast<uint32_t>(r));
      }
    }
  }
  std::sort(plan.polls.begin(), plan.polls.end());
  std::sort(due_receiver.begin(), due_receiver.end());
  for (size_t k = 0; k < due_receiver.size(); ++k) {
    const auto& [due, r] = due_receiver[k];
    ReadingSpec reading;
    reading.id = k + 1;
    reading.attribute =
        plan.receivers[r].attributes[rng.NextU64() % kGrantsPerReceiver];
    reading.device = static_cast<uint32_t>(rng.NextU64() % kDevices);
    reading.timestamp_offset_us = due;
    plan.readings.push_back(std::move(reading));
    plan.entitled.push_back(r);
  }
  return plan;
}

void AddToDigest(const IngestPlan& plan, InputDigest* digest) {
  digest->Add(std::string("ingest"));
  AddDevices(plan.devices, digest);
  AddReadings(plan.pool, digest);
  AddPairs(plan.items, digest);
  digest->Add(static_cast<uint64_t>(plan.batch));
  AddReceivers({plan.probe}, digest);
  digest->Add(static_cast<uint64_t>(plan.stamp_offset_us));
}

void AddToDigest(const DrainPlan& plan, InputDigest* digest) {
  digest->Add(std::string("drain"));
  AddDevices(plan.devices, digest);
  AddReceivers(plan.receivers, digest);
  AddReadings(plan.backlog, digest);
  digest->Add(static_cast<uint64_t>(plan.windows));
  digest->Add(static_cast<uint64_t>(plan.first_window_offset_us));
  digest->Add(static_cast<uint64_t>(plan.window_us));
  AddDevices(plan.trickle_devices, digest);
  AddReadings(plan.trickle_pool, digest);
  AddPairs(plan.trickle_items, digest);
  digest->Add(static_cast<uint64_t>(plan.trickle_per_s * 1000));
  digest->Add(static_cast<uint64_t>(plan.trickle_stamp_offset_us));
}

void AddToDigest(const MixedPlan& plan, InputDigest* digest) {
  digest->Add(std::string("mixed"));
  AddDevices(plan.devices, digest);
  AddReceivers(plan.receivers, digest);
  AddReadings(plan.readings, digest);
  mws::util::Writer w;
  for (const auto& [due, r] : plan.polls) {
    w.PutU64(static_cast<uint64_t>(due));
    w.PutU32(r);
  }
  digest->Add(w.data());
  digest->Add(static_cast<uint64_t>(plan.poll_period_us));
  digest->Add(static_cast<uint64_t>(plan.settle_us));
}

CacheFootprint Footprint(const IngestPlan& plan) {
  // The timed phase only ships pre-sealed readings: nothing is hashed to
  // the curve or extracted (the verification fetch runs after it).
  return {0, plan.probe.attributes.size()};
}

CacheFootprint Footprint(const DrainPlan& plan) {
  // Every backlog reading has its own nonce, hence its own identity.
  CacheFootprint f;
  f.timed_identities = plan.backlog.size();
  for (const ReceiverSpec& r : plan.receivers) f.grants += r.attributes.size();
  return f;
}

CacheFootprint Footprint(const MixedPlan& plan) {
  CacheFootprint f;
  f.timed_identities = plan.readings.size();
  for (const ReceiverSpec& r : plan.receivers) f.grants += r.attributes.size();
  return f;
}

mws::util::Result<mws::wire::DepositRequest> SealReading(
    const mws::ibe::SystemParams& params, const DeviceSpec& device,
    const std::string& attribute, const Bytes& payload, uint64_t stream_seed,
    int64_t timestamp_micros) {
  mws::util::DeterministicRandom rng(stream_seed);
  mws::util::SimulatedClock clock(timestamp_micros);
  mws::client::SmartDevice sealer(device.id, device.mac_key, params,
                                  mws::crypto::CipherKind::kDes,
                                  /*transport=*/nullptr, &clock, &rng);
  return sealer.BuildDeposit(attribute, payload);
}

mws::wire::DepositRequest Restamp(const mws::wire::DepositRequest& sealed,
                                  const DeviceSpec& device,
                                  int64_t timestamp_micros) {
  mws::wire::DepositRequest out = sealed;
  out.device_id = device.id;
  out.timestamp_micros = timestamp_micros;
  out.mac = mws::crypto::HmacSha256(device.mac_key, out.AuthenticatedBytes());
  return out;
}

}  // namespace e2e
