#ifndef MWSIBE_E2EBENCH_INPUTS_H_
#define MWSIBE_E2EBENCH_INPUTS_H_

// Deterministic workload inputs. Everything here is a pure function of
// the seed (and, for sealed readings, of the PKG's public parameters,
// which are themselves drawn from the seed), so the same seed gives the
// same inputs and the same input digest.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ibe/bf_ibe.h"
#include "src/util/bytes.h"
#include "src/wire/messages.h"

namespace e2e {

enum class Workload { kIngest, kDrain, kMixed };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// Capacities of the program's two caches an input can be served from
/// (BfIbe's HashToPoint LRU and PolicyDb's AID resolution cache); the
/// output compares each workload's footprint against them.
constexpr size_t kHashToPointLruCapacity = 64;
constexpr size_t kAidCacheCapacity = 4096;

/// Protocol timestamps come from a clock that starts at this instant
/// when a deployment is created (2010-03-01, the paper's year) and then
/// follows the steady clock.
constexpr int64_t kEpochMicros = 1'267'401'600'000'000;

/// Mixes a seed and a stream index into an independent 64-bit seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

// --- Payloads ---

/// payload = canary(16) | reading id (u64 BE) | body(40) | digest(16),
/// digest = SHA-256 over everything before it, truncated.
constexpr size_t kCanaryBytes = 16;
constexpr size_t kPayloadBytes = 16 + 8 + 40 + 16;

/// The per-run canary every payload starts with.
mws::util::Bytes MakeCanary(uint64_t seed);
mws::util::Bytes MakePayload(const mws::util::Bytes& canary,
                             uint64_t reading_id, uint64_t seed);
/// The reading id when `plaintext` is an intact payload under `canary`.
std::optional<uint64_t> CheckPayload(const mws::util::Bytes& canary,
                                     const mws::util::Bytes& plaintext);

/// Running SHA-256 chain over input fields.
class InputDigest {
 public:
  void Add(const mws::util::Bytes& bytes);
  void Add(const std::string& text);
  void Add(uint64_t value);
  std::string Hex() const;

 private:
  mws::util::Bytes state_;
};

// --- Plans ---

struct DeviceSpec {
  std::string id;
  mws::util::Bytes mac_key;
};

struct ReceiverSpec {
  std::string name;
  std::vector<std::string> attributes;  // granted, in grant order
};

/// One reading to be sealed: its id (carried in the payload), attribute,
/// depositing device and deposit timestamp (offset from kEpochMicros).
struct ReadingSpec {
  uint64_t id = 0;
  std::string attribute;
  uint32_t device = 0;
  int64_t timestamp_offset_us = 0;
};

/// `ingest`: pre-sealed readings re-stamped per device and shipped as
/// mws.deposit_batch batches that span every ingest attribute.
struct IngestPlan {
  std::vector<DeviceSpec> devices;
  std::vector<ReadingSpec> pool;  // sealed once during set-up
  /// (pool index, device index) per deposit, in send order; each pair
  /// occurs once, so every (ID_SD, nonce) is distinct.
  std::vector<std::pair<uint32_t, uint32_t>> items;
  size_t batch = 64;
  /// A receiver polls, during the measured phase, a window that holds no
  /// reading, so the fetch path is timed under write load without running
  /// a pairing. After the phase it fetches the readings of its second
  /// attribute through the warehouse and checks every one decrypts.
  ReceiverSpec probe;
  int64_t stamp_offset_us = 0;  // timestamp of every ingest deposit
};

/// `drain`: a sealed backlog spread over timestamp windows, fetched one
/// (receiver, window) at a time; plus a trickle of pre-sealed deposits
/// under attributes no drain receiver holds.
struct DrainPlan {
  std::vector<DeviceSpec> devices;
  std::vector<ReceiverSpec> receivers;
  std::vector<ReadingSpec> backlog;
  size_t windows = 0;
  int64_t first_window_offset_us = 0;
  int64_t window_us = 0;
  std::vector<DeviceSpec> trickle_devices;
  std::vector<ReadingSpec> trickle_pool;
  std::vector<std::pair<uint32_t, uint32_t>> trickle_items;
  double trickle_per_s = 0;
  int64_t trickle_stamp_offset_us = 0;
};

/// `mixed`: an open-loop schedule of live seals + single-shot deposits
/// and staggered incremental polls by many receivers. Every poll window
/// of every receiver is due the same number of readings.
struct MixedPlan {
  std::vector<DeviceSpec> devices;
  std::vector<ReceiverSpec> receivers;
  /// Readings in due order; ReadingSpec::timestamp_offset_us holds the
  /// due time relative to the start of the measured phase.
  std::vector<ReadingSpec> readings;
  std::vector<uint32_t> entitled;  // reading -> the receiver granted it
  /// (due offset us, receiver) of every poll, in due order.
  std::vector<std::pair<int64_t, uint32_t>> polls;
  int64_t poll_period_us = 0;
  /// A poll due at t covers deposit timestamps up to t - settle.
  int64_t settle_us = 0;
  size_t readings_per_window = 0;
};

IngestPlan MakeIngestPlan(uint64_t seed, size_t item_count);
DrainPlan MakeDrainPlan(uint64_t seed, double seconds);
MixedPlan MakeMixedPlan(uint64_t seed, double seconds);

void AddToDigest(const IngestPlan& plan, InputDigest* digest);
void AddToDigest(const DrainPlan& plan, InputDigest* digest);
void AddToDigest(const MixedPlan& plan, InputDigest* digest);

/// Cache honesty: distinct IBE identities the timed phase hashes or
/// extracts, and (RC, attribute) grants, per workload.
struct CacheFootprint {
  size_t timed_identities = 0;
  size_t grants = 0;
};
CacheFootprint Footprint(const IngestPlan& plan);
CacheFootprint Footprint(const DrainPlan& plan);
CacheFootprint Footprint(const MixedPlan& plan);

/// Genuinely seals a reading (SmartDevice::BuildDeposit: fresh nonce,
/// BF-IBE KEM + DES) with draws from DeterministicRandom(stream_seed),
/// stamped at `timestamp_micros` and MACed under the device's key.
mws::util::Result<mws::wire::DepositRequest> SealReading(
    const mws::ibe::SystemParams& params, const DeviceSpec& device,
    const std::string& attribute, const mws::util::Bytes& payload,
    uint64_t stream_seed, int64_t timestamp_micros);

/// Re-stamps a sealed deposit as coming from `device`: same reading,
/// new ID_SD and MAC (HmacSha256 over AuthenticatedBytes()).
mws::wire::DepositRequest Restamp(const mws::wire::DepositRequest& sealed,
                                  const DeviceSpec& device,
                                  int64_t timestamp_micros);

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_INPUTS_H_
