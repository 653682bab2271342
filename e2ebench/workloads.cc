#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "src/client/receiving_client.h"
#include "src/client/smart_device.h"
#include "src/crypto/rsa.h"
#include "src/ibe/attribute.h"
#include "src/ibe/hybrid.h"

namespace e2e {

using mws::util::Bytes;
using mws::util::Status;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0;
}

namespace {

constexpr int64_t kMsNs = 1'000'000;
constexpr int64_t kSecondNs = 1'000'000'000;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = SteadyNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Sets `*max` to `value` if that is larger.
void RaiseTo(std::atomic<int64_t>* max, int64_t value) {
  int64_t prev = max->load();
  while (value > prev && !max->compare_exchange_weak(prev, value)) {
  }
}

/// Runs fn(0..n-1) on up to GeneratorThreads() threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < GeneratorThreads(); ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
}

/// Names of the client-step spans; all zero (unused) when untraced.
struct ClientSpans {
  explicit ClientSpans(SpanRecorder* r) {
    if (r == nullptr) return;
    deposit = r->Intern("client.deposit");
    deposit_batch = r->Intern("client.deposit_batch");
    fetch = r->Intern("client.fetch");
    rc_auth = r->Intern("client.rc_auth");
    retrieve = r->Intern("client.retrieve");
    pkg_auth = r->Intern("client.pkg_auth");
    decrypt_all = r->Intern("client.decrypt_all");
    extract = r->Intern("client.extract");
    decrypt = r->Intern("client.decrypt");
  }
  uint32_t deposit = 0, deposit_batch = 0, fetch = 0, rc_auth = 0,
           retrieve = 0, pkg_auth = 0, decrypt_all = 0, extract = 0,
           decrypt = 0;
};

/// Per-thread tallies merged into RunResult after the threads join.
struct Tally {
  uint64_t msgs = 0, attempted = 0, op_errors = 0, mismatched = 0,
           retrieved = 0, keys = 0, payload_bytes = 0;
  TimedSamples completions, deposit_ms, fetch_ms;
  std::vector<double> lag_ms, prune_us;
  std::string first_error;

  void Error(const std::string& what) {
    ++op_errors;
    if (first_error.empty()) first_error = what;
  }
  void Complete(int64_t at, uint64_t count) {
    msgs += count;
    completions.Add(at, static_cast<double>(count));
  }
  void MergeInto(RunResult* r) const {
    r->msgs += msgs;
    r->completions.Append(completions);
    r->attempted += attempted;
    r->op_errors += op_errors;
    r->mismatched += mismatched;
    r->retrieved += retrieved;
    r->keys_extracted += keys;
    r->payload_bytes_acked += payload_bytes;
    r->deposit_ms.Append(deposit_ms);
    r->fetch_ms.Append(fetch_ms);
    r->lag_ms.insert(r->lag_ms.end(), lag_ms.begin(), lag_ms.end());
    r->prune_us.insert(r->prune_us.end(), prune_us.begin(), prune_us.end());
    if (r->first_error.empty()) r->first_error = first_error;
  }
};

/// A receiving client and its spec.
struct Receiver {
  ReceiverSpec spec;
  std::unique_ptr<mws::client::ReceivingClient> client;
};

std::string Password(const std::string& name) { return "pw-" + name; }

/// Generates key pairs (in parallel), registers every receiver on both
/// shards and grants its attributes in order.
Status SetUpReceivers(Deployment* d, uint64_t stream,
                      const std::vector<ReceiverSpec>& specs,
                      const std::vector<mws::util::RandomSource*>& rngs,
                      std::vector<Receiver>* out) {
  std::vector<mws::crypto::RsaKeyPair> keys(specs.size());
  std::vector<Status> status(specs.size(), Status::Ok());
  ParallelFor(specs.size(), [&](size_t i) {
    // Key pairs do not depend on the seed: the time to find the primes
    // does, and set-up time should not vary with the seed.
    mws::util::DeterministicRandom rng(Mix(0, stream + i));
    auto pair = mws::crypto::RsaGenerateKeyPair(kRsaBits, rng);
    if (!pair.ok()) {
      status[i] = pair.status();
      return;
    }
    keys[i] = std::move(pair).value();
  });
  for (size_t i = 0; i < specs.size(); ++i) {
    MWS_RETURN_IF_ERROR(status[i]);
    const ReceiverSpec& spec = specs[i];
    MWS_RETURN_IF_ERROR(d->RegisterReceiver(
        spec.name, Password(spec.name),
        mws::crypto::SerializeRsaPublicKey(keys[i].public_key)));
    for (const std::string& attribute : spec.attributes) {
      MWS_RETURN_IF_ERROR(d->Grant(spec.name, attribute));
    }
    Receiver r;
    r.spec = spec;
    r.client = std::make_unique<mws::client::ReceivingClient>(
        spec.name, Password(spec.name), std::move(keys[i]), d->params(),
        mws::crypto::CipherKind::kDes, mws::crypto::CipherKind::kDes,
        d->client_transport(), &d->clock(), rngs[i % rngs.size()]);
    out->push_back(std::move(r));
  }
  return Status::Ok();
}

/// Seals `readings` in parallel; each reading's draws come from its own
/// stream, so the bytes do not depend on thread scheduling.
Status SealAll(Deployment* d, uint64_t seed, uint64_t stream,
               const Bytes& canary, const std::vector<ReadingSpec>& readings,
               const std::vector<DeviceSpec>& devices, int64_t extra_offset,
               std::vector<mws::wire::DepositRequest>* out) {
  out->assign(readings.size(), {});
  std::vector<Status> status(readings.size(), Status::Ok());
  const mws::ibe::SystemParams& params = d->params();
  SpanRecorder* recorder = d->recorder();
  const uint32_t seal_span =
      recorder != nullptr ? recorder->Intern("client.seal") : 0;
  ParallelFor(readings.size(), [&](size_t k) {
    const ReadingSpec& r = readings[k];
    SpanScope span(recorder, seal_span);
    auto sealed = SealReading(
        params, devices[r.device], r.attribute, MakePayload(canary, r.id, seed),
        Mix(seed, stream + r.id),
        kEpochMicros + r.timestamp_offset_us + extra_offset);
    if (!sealed.ok()) {
      status[k] = sealed.status();
      return;
    }
    (*out)[k] = std::move(sealed).value();
  });
  for (const Status& s : status) MWS_RETURN_IF_ERROR(s);
  return Status::Ok();
}

Status RegisterDevices(Deployment* d, const std::vector<DeviceSpec>& devices) {
  for (const DeviceSpec& device : devices) {
    MWS_RETURN_IF_ERROR(d->RegisterDevice(device.id, device.mac_key));
  }
  return Status::Ok();
}

/// One receiver poll through the chunked path: Authenticate ->
/// RetrieveChunked -> AuthenticateWithPkg -> DecryptAll. Returns the
/// verified reading ids (sorted), or an error.
mws::util::Result<std::vector<uint64_t>> FetchChunked(
    mws::client::ReceivingClient* rc, int64_t from_micros, int64_t to_micros,
    const Bytes& canary, SpanRecorder* recorder, const ClientSpans& names,
    Tally* tally, std::set<Bytes>* nonces) {
  SpanScope fetch(recorder, names.fetch);
  {
    SpanScope span(recorder, names.rc_auth);
    MWS_RETURN_IF_ERROR(rc->Authenticate());
  }
  mws::wire::RetrieveResponse retrieved;
  {
    SpanScope span(recorder, names.retrieve);
    MWS_ASSIGN_OR_RETURN(retrieved,
                         rc->RetrieveChunked(0, from_micros, to_micros, 256));
  }
  {
    SpanScope span(recorder, names.pkg_auth);
    MWS_RETURN_IF_ERROR(rc->AuthenticateWithPkg(retrieved.token));
  }
  tally->retrieved += retrieved.messages.size();
  std::vector<mws::client::ReceivedMessage> plain;
  {
    SpanScope span(recorder, names.decrypt_all);
    MWS_ASSIGN_OR_RETURN(plain, rc->DecryptAll(retrieved.messages));
  }
  tally->keys += retrieved.messages.size();
  if (nonces != nullptr) {
    for (const auto& m : retrieved.messages) nonces->insert(m.nonce);
  }
  std::vector<uint64_t> ids;
  for (const auto& m : plain) {
    auto id = CheckPayload(canary, m.plaintext);
    if (!id) {
      ++tally->mismatched;
      continue;
    }
    ids.push_back(*id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::array<uint64_t, kShards> LastIds(Deployment* d) {
  std::array<uint64_t, kShards> out{};
  for (size_t i = 0; i < kShards; ++i) {
    out[i] = d->shard_mws(i).message_db().last_assigned_id();
  }
  return out;
}

void FinishRun(Deployment* d, const std::array<uint64_t, kShards>& ids_before,
               double cpu_before, RunResult* r) {
  const auto ids_after = LastIds(d);
  for (size_t i = 0; i < kShards; ++i) {
    r->shard_items[i] = ids_after[i] - ids_before[i];
  }
  r->cpu_s = CpuSeconds() - cpu_before;
  r->cpu_to_ns = SteadyNs();
}

// ---------------------------------------------------------------------
// ingest

class IngestRunner : public WorkloadRunner {
 public:
  // Inputs are generated for this many acked readings per second (more
  // than the seed commit sustains on a busy host, less than on an idle
  // one; more would cost hundreds of MB). A run that exhausts them ends
  // its measured phase early and says so (inputs_exhausted); the figures
  // stay correct because they are taken over the phase that ran.
  static constexpr double kMaxReadingsPerS = 56'000;
  // The program's memory grows with the readings it has taken in, and a
  // fast host takes in several times more in a run than a slow one; so
  // the peak RSS is read once this many readings per second of the run
  // are acked, which the slowest host seen (15 500/s) still reaches.
  static constexpr double kMemoryMarkPerS = 15'000;
  // Live set the retention job keeps per shard. It prunes a shard back
  // to that whenever the shard has taken kPruneStep more readings, which
  // it checks every kSweepCheckNs: pruning by count, not on a timer,
  // keeps the live set and the pruning work per reading the same at
  // any deposit rate (a prune scans the whole live set).
  static constexpr uint64_t kRetainPerShard = 4096;
  static constexpr uint64_t kPruneStep = 1024;
  static constexpr int64_t kSweepCheckNs = 2 * kMsNs;
  static constexpr int64_t kProbePeriodNs = 40 * kMsNs;

  IngestRunner(uint64_t seed, double seconds)
      : seed_(seed),
        canary_(MakeCanary(seed)),
        plan_(MakeIngestPlan(
            seed, static_cast<size_t>(kMaxReadingsPerS * seconds))),
        probe_rng_(Mix(seed, 8000)) {}

  Status Setup(Deployment* d) override {
    MWS_RETURN_IF_ERROR(RegisterDevices(d, plan_.devices));
    MWS_RETURN_IF_ERROR(SetUpReceivers(d, 9000, {plan_.probe},
                                       {&probe_rng_}, &probe_));
    MWS_RETURN_IF_ERROR(SealAll(d, seed_, 50'000, canary_, plan_.pool,
                                plan_.devices, plan_.stamp_offset_us, &pool_));
    InputDigest digest;
    AddToDigest(plan_, &digest);
    for (const auto& sealed : pool_) digest.Add(sealed.Encode());
    digest_ = digest.Hex();
    return Status::Ok();
  }

  // Pre-stamps and pre-encodes every batch of the measured phase.
  void GenerateInputs(Deployment*) override {
    const int64_t stamp = kEpochMicros + plan_.stamp_offset_us;
    const size_t batches =
        (plan_.items.size() + plan_.batch - 1) / plan_.batch;
    encoded_.assign(batches, {});
    batch_sizes_.assign(batches, 0);
    ParallelFor(batches, [&](size_t b) {
      mws::wire::DepositBatchRequest request;
      const size_t begin = b * plan_.batch;
      const size_t end = std::min(begin + plan_.batch, plan_.items.size());
      for (size_t k = begin; k < end; ++k) {
        const auto& [pool, device] = plan_.items[k];
        request.items.push_back(
            Restamp(pool_[pool], plan_.devices[device], stamp));
      }
      batch_sizes_[b] = end - begin;
      encoded_[b] = request.Encode();
    });
  }

  size_t InputBytes() const override {
    size_t bytes = plan_.items.capacity() * sizeof(plan_.items[0]) +
                   batch_sizes_.capacity() * sizeof(size_t) +
                   encoded_.capacity() * sizeof(Bytes);
    for (const Bytes& batch : encoded_) bytes += batch.capacity();
    return bytes;
  }

  RunResult Run(Deployment* d, double seconds, SpanRecorder* recorder) override {
    const ClientSpans names(recorder);
    RunResult result;
    const auto ids_before = LastIds(d);
    const double cpu_before = CpuSeconds();
    result.cpu_from_ns = SteadyNs();
    const int64_t start = SteadyNs();
    const int64_t end = start + static_cast<int64_t>(seconds * kSecondNs);
    std::atomic<size_t> next_batch{0};
    std::atomic<bool> exhausted{false};
    std::atomic<int64_t> last_finish{start};
    std::atomic<uint64_t> acked_total{0};
    const uint64_t memory_mark =
        static_cast<uint64_t>(kMemoryMarkPerS * seconds);
    const size_t depositors = DepositThreads();
    std::vector<Tally> tallies(depositors + 1);
    Tally sweep_tally;
    mws::wire::Transport* transport = d->client_transport();

    auto depositor = [&](size_t t) {
      Tally& tally = tallies[t];
      while (SteadyNs() < end) {
        const size_t b = next_batch.fetch_add(1);
        if (b >= encoded_.size()) {
          exhausted = true;
          break;
        }
        const size_t count = batch_sizes_[b];
        tally.attempted += count;
        const int64_t t0 = SteadyNs();
        mws::util::Result<Bytes> raw = Status::Internal("unset");
        {
          SpanScope span(recorder, names.deposit_batch);
          raw = transport->Call("mws.deposit_batch", encoded_[b]);
        }
        const int64_t t1 = SteadyNs();
        tally.deposit_ms.Add(t1, Ms(t1 - t0));
        if (!raw.ok()) {
          tally.op_errors += count - 1;
          tally.Error("deposit_batch: " + raw.status().ToString());
          continue;
        }
        auto response = mws::wire::DepositBatchResponse::Decode(raw.value());
        if (!response.ok() || response->items.size() != count) {
          tally.op_errors += count - 1;
          tally.Error("deposit_batch: bad response");
          continue;
        }
        uint64_t acked = 0;
        for (const auto& item : response->items) {
          if (!item.ok) {
            tally.Error("deposit item: " + mws::util::StringFromBytes(
                                               item.error));
          } else if (item.deduplicated) {
            // Every (ID_SD, nonce) is fresh, so a dedup hit is a bug.
            tally.Error("deposit item unexpectedly deduplicated");
          } else {
            ++acked;
          }
        }
        tally.Complete(t1, acked);
        tally.payload_bytes += acked * kPayloadBytes;
        RaiseTo(&last_finish, t1);
        const uint64_t total = acked_total.fetch_add(acked) + acked;
        if (total >= memory_mark && total - acked < memory_mark) {
          result.peak_rss_mb = PeakRssMb();  // one thread crosses the mark
        }
      }
    };

    // The last generator thread is a receiver that polls, on a fixed
    // schedule, the minute before the one stamp every ingest reading
    // carries: a window that holds no reading however long the run.
    auto prober = [&] {
      Tally& tally = tallies[depositors];
      Receiver& probe = probe_[0];
      const int64_t stamp = kEpochMicros + plan_.stamp_offset_us;
      for (int64_t due = start; due < end; due += kProbePeriodNs) {
        SleepUntilNs(due);
        tally.lag_ms.push_back(Ms(SteadyNs() - due));
        ++tally.attempted;
        auto ids = FetchChunked(probe.client.get(), stamp - 60'000'000, stamp,
                                canary_, recorder, names, &tally, nullptr);
        const int64_t t1 = SteadyNs();
        tally.fetch_ms.Add(t1, Ms(t1 - due));
        if (!ids.ok()) {
          tally.Error("probe fetch: " + ids.status().ToString());
        } else if (!ids->empty()) {
          tally.Error("probe fetch returned readings it is not entitled to");
        }
      }
    };

    // The operator's retention job (not load: it runs in the MWS
    // process): keeps the live set bounded, so compaction checkpoints
    // stay small and several run per measured phase.
    auto sweeper = [&] {
      Tally& tally = sweep_tally;
      const uint32_t prune_span =
          recorder != nullptr ? recorder->Intern("admin.prune") : 0;
      std::array<uint64_t, kShards> pruned_through = ids_before;
      for (int64_t due = start + kSweepCheckNs; due < end;
           due += kSweepCheckNs) {
        SleepUntilNs(due);
        for (size_t i = 0; i < kShards; ++i) {
          const uint64_t last = d->shard_mws(i).message_db().last_assigned_id();
          if (last < pruned_through[i] + kRetainPerShard + kPruneStep) {
            continue;
          }
          pruned_through[i] = last - kRetainPerShard;
          const int64_t p0 = SteadyNs();
          SpanScope span(recorder, prune_span);
          auto pruned = d->Prune(i, pruned_through[i]);
          tally.prune_us.push_back(static_cast<double>(SteadyNs() - p0) / 1e3);
          if (!pruned.ok()) tally.Error("prune: " + pruned.status().ToString());
        }
      }
    };

    std::vector<std::thread> threads;
    for (size_t t = 0; t < depositors; ++t) threads.emplace_back(depositor, t);
    threads.emplace_back(prober);
    threads.emplace_back(sweeper);
    for (std::thread& t : threads) t.join();

    result.start_ns = start;
    result.wall_s = static_cast<double>(last_finish.load() - start) / 1e9;
    result.inputs_exhausted = exhausted.load();
    for (const Tally& t : tallies) t.MergeInto(&result);
    sweep_tally.MergeInto(&result);
    FinishRun(d, ids_before, cpu_before, &result);

    // The warehouse must hand back the re-stamped readings intact: the
    // probe fetches every live reading of its second attribute (all
    // ingest readings carry the one stamp) and each must decrypt to a
    // pool payload of that attribute.
    {
      Tally verify;
      ++verify.attempted;
      const int64_t stamp = kEpochMicros + plan_.stamp_offset_us;
      const std::string& attribute = plan_.probe.attributes[1];
      auto ids = FetchChunked(probe_[0].client.get(), stamp, stamp + 1,
                              canary_, recorder, names, &verify, nullptr);
      if (!ids.ok()) {
        verify.Error("verification fetch: " + ids.status().ToString());
      } else {
        for (uint64_t id : *ids) {
          ++verify.attempted;
          const bool known = std::any_of(
              plan_.pool.begin(), plan_.pool.end(), [&](const ReadingSpec& r) {
                return r.id == id && r.attribute == attribute;
              });
          if (!known) ++verify.mismatched;
        }
      }
      verify.MergeInto(&result);
    }

    // Every reading in the pool must still decrypt to its payload under
    // the key the PKG extracts for its identity.
    mws::ibe::HybridSealer sealer(*d->params().group,
                                  mws::crypto::CipherKind::kDes);
    for (size_t k = 0; k < pool_.size(); ++k) {
      ++result.attempted;
      const auto& sealed = pool_[k];
      auto key = d->pkg().ExtractForIdentity(mws::ibe::DeriveIdentity(
          sealed.attribute, mws::ibe::MessageNonce{sealed.nonce}));
      auto u = d->params().group->curve().Deserialize(sealed.u);
      auto plain =
          u.ok() ? sealer.Open(key, {u.value(), sealed.ciphertext})
                 : mws::util::Result<Bytes>(u.status());
      auto id = plain.ok() ? CheckPayload(canary_, plain.value())
                           : std::nullopt;
      if (!id || *id != plan_.pool[k].id) ++result.mismatched;
    }
    return result;
  }

  const std::string& InputDigestHex() const override { return digest_; }
  CacheFootprint Footprint() const override { return e2e::Footprint(plan_); }
  std::string Describe() const override {
    std::ostringstream out;
    out << "closed loop: " << DepositThreads()
        << " threads send pre-stamped mws.deposit_batch batches of "
        << plan_.batch << " (" << plan_.items.size() << " readings from "
        << plan_.pool.size() << " sealed over " << plan_.devices.size()
        << " devices); 1 thread polls an empty window every "
        << kProbePeriodNs / kMsNs << " ms; a retention job prunes a shard "
        << "back to " << kRetainPerShard << " ids whenever it has taken "
        << kPruneStep << " more";
    return out.str();
  }

 private:
  // One generator thread is the probe; the rest deposit.
  static size_t DepositThreads() {
    return std::max<size_t>(1, GeneratorThreads() - 1);
  }

  uint64_t seed_;
  Bytes canary_;
  IngestPlan plan_;
  mws::util::DeterministicRandom probe_rng_;
  std::vector<Receiver> probe_;
  std::vector<mws::wire::DepositRequest> pool_;
  std::vector<Bytes> encoded_;
  std::vector<size_t> batch_sizes_;
  std::string digest_;
};

// ---------------------------------------------------------------------
// drain

class DrainRunner : public WorkloadRunner {
 public:
  static constexpr size_t kPreloadBatch = 64;

  DrainRunner(uint64_t seed, double seconds)
      : seed_(seed),
        canary_(MakeCanary(seed)),
        plan_(MakeDrainPlan(seed, seconds)),
        fetch_threads_(std::max<size_t>(1, GeneratorThreads() - 1)) {
    for (size_t t = 0; t < fetch_threads_; ++t) {
      rngs_.push_back(
          std::make_unique<mws::util::DeterministicRandom>(Mix(seed, 8100 + t)));
    }
  }

  Status Setup(Deployment* d) override {
    MWS_RETURN_IF_ERROR(RegisterDevices(d, plan_.devices));
    MWS_RETURN_IF_ERROR(RegisterDevices(d, plan_.trickle_devices));
    // Receiver r is driven by fetch thread r % fetch_threads_.
    std::vector<mws::util::RandomSource*> rngs;
    for (auto& rng : rngs_) rngs.push_back(rng.get());
    MWS_RETURN_IF_ERROR(
        SetUpReceivers(d, 9100, plan_.receivers, rngs, &receivers_));

    std::vector<mws::wire::DepositRequest> backlog;
    MWS_RETURN_IF_ERROR(SealAll(d, seed_, 60'000, canary_, plan_.backlog,
                                plan_.devices, 0, &backlog));
    std::vector<mws::wire::DepositRequest> trickle_pool;
    MWS_RETURN_IF_ERROR(SealAll(d, seed_, 70'000, canary_, plan_.trickle_pool,
                                plan_.trickle_devices,
                                plan_.trickle_stamp_offset_us, &trickle_pool));
    InputDigest digest;
    AddToDigest(plan_, &digest);
    for (const auto& sealed : backlog) digest.Add(sealed.Encode());
    for (const auto& sealed : trickle_pool) digest.Add(sealed.Encode());
    digest_ = digest.Hex();

    // Preload the backlog through the router.
    for (size_t begin = 0; begin < backlog.size(); begin += kPreloadBatch) {
      mws::wire::DepositBatchRequest request;
      const size_t end = std::min(begin + kPreloadBatch, backlog.size());
      request.items.assign(backlog.begin() + begin, backlog.begin() + end);
      MWS_ASSIGN_OR_RETURN(Bytes raw, d->client_transport()->Call(
                                          "mws.deposit_batch",
                                          request.Encode()));
      MWS_ASSIGN_OR_RETURN(auto response,
                           mws::wire::DepositBatchResponse::Decode(raw));
      for (const auto& item : response.items) {
        if (!item.ok || item.deduplicated) {
          return Status::Internal("backlog preload item failed");
        }
      }
    }

    trickle_pool_ = std::move(trickle_pool);

    // The exact reading set each (receiver, window) fetch must return.
    expected_.assign(plan_.receivers.size(),
                     std::vector<std::vector<uint64_t>>(plan_.windows));
    for (const ReadingSpec& r : plan_.backlog) {
      const size_t window = static_cast<size_t>(
          (r.timestamp_offset_us - plan_.first_window_offset_us) /
          plan_.window_us);
      for (size_t i = 0; i < plan_.receivers.size(); ++i) {
        const auto& attrs = plan_.receivers[i].attributes;
        if (std::find(attrs.begin(), attrs.end(), r.attribute) !=
            attrs.end()) {
          expected_[i][window].push_back(r.id);
        }
      }
    }
    for (auto& per_receiver : expected_) {
      for (auto& ids : per_receiver) std::sort(ids.begin(), ids.end());
    }
    return Status::Ok();
  }

  // Re-stamps the trickle's deposits.
  void GenerateInputs(Deployment*) override {
    const int64_t stamp = kEpochMicros + plan_.trickle_stamp_offset_us;
    trickle_.clear();
    for (const auto& [pool, device] : plan_.trickle_items) {
      trickle_.push_back(
          Restamp(trickle_pool_[pool], plan_.trickle_devices[device], stamp)
              .Encode());
    }
  }

  size_t InputBytes() const override {
    size_t bytes = trickle_.capacity() * sizeof(Bytes);
    for (const Bytes& deposit : trickle_) bytes += deposit.capacity();
    return bytes;
  }

  RunResult Run(Deployment* d, double seconds, SpanRecorder* recorder) override {
    const ClientSpans names(recorder);
    RunResult result;
    const auto ids_before = LastIds(d);
    const double cpu_before = CpuSeconds();
    result.cpu_from_ns = SteadyNs();
    const int64_t start = SteadyNs();
    const int64_t end = start + static_cast<int64_t>(seconds * kSecondNs);
    std::vector<Tally> tallies(fetch_threads_ + 1);
    std::vector<std::set<Bytes>> nonces(fetch_threads_);
    std::atomic<int64_t> last_finish{start};

    auto fetcher = [&](size_t t) {
      Tally& tally = tallies[t];
      std::vector<size_t> mine;
      for (size_t r = t; r < receivers_.size(); r += fetch_threads_) {
        mine.push_back(r);
      }
      for (size_t i = 0; SteadyNs() < end; ++i) {
        const size_t r = mine[i % mine.size()];
        const size_t window = (i / mine.size() + 3 * t) % plan_.windows;
        const int64_t from = kEpochMicros + plan_.first_window_offset_us +
                             static_cast<int64_t>(window) * plan_.window_us;
        ++tally.attempted;
        const int64_t t0 = SteadyNs();
        auto ids = FetchChunked(receivers_[r].client.get(), from,
                                from + plan_.window_us, canary_, recorder,
                                names, &tally, &nonces[t]);
        const int64_t t1 = SteadyNs();
        tally.fetch_ms.Add(t1, Ms(t1 - t0));
        if (!ids.ok()) {
          tally.Error("fetch: " + ids.status().ToString());
          continue;
        }
        tally.Complete(t1, ids->size());
        if (*ids != expected_[r][window]) {
          tally.Error("fetch returned a different reading set");
        }
        RaiseTo(&last_finish, t1);
      }
    };

    // Meters keep reporting while the billing run drains: a fixed-rate
    // trickle of single-shot deposits no drain receiver is granted.
    auto trickler = [&] {
      Tally& tally = tallies[fetch_threads_];
      mws::wire::Transport* transport = d->client_transport();
      const double period_ns = 1e9 / plan_.trickle_per_s;
      for (size_t k = 0;; ++k) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(k) * period_ns);
        if (due >= end) break;
        if (k >= trickle_.size()) {
          result.inputs_exhausted = true;
          break;
        }
        SleepUntilNs(due);
        tally.lag_ms.push_back(Ms(SteadyNs() - due));
        ++tally.attempted;
        mws::util::Result<Bytes> raw = Status::Internal("unset");
        {
          SpanScope span(recorder, names.deposit);
          raw = transport->Call("mws.deposit", trickle_[k]);
        }
        const int64_t t1 = SteadyNs();
        tally.deposit_ms.Add(t1, Ms(t1 - due));
        if (!raw.ok() || !mws::wire::DepositResponse::Decode(raw.value()).ok()) {
          tally.Error("trickle deposit failed");
        } else {
          tally.payload_bytes += kPayloadBytes;
        }
      }
    };

    std::vector<std::thread> threads;
    for (size_t t = 0; t < fetch_threads_; ++t) {
      threads.emplace_back(fetcher, t);
    }
    threads.emplace_back(trickler);
    for (std::thread& t : threads) t.join();

    result.start_ns = start;
    result.wall_s = static_cast<double>(last_finish.load() - start) / 1e9;
    for (const Tally& t : tallies) t.MergeInto(&result);
    std::set<Bytes> all;
    for (const auto& s : nonces) all.insert(s.begin(), s.end());
    result.observed_identities = all.size();
    FinishRun(d, ids_before, cpu_before, &result);
    return result;
  }

  const std::string& InputDigestHex() const override { return digest_; }
  CacheFootprint Footprint() const override { return e2e::Footprint(plan_); }
  std::string Describe() const override {
    std::ostringstream out;
    out << "closed loop: " << fetch_threads_ << " threads fetch "
        << plan_.windows << " timestamp windows of a " << plan_.backlog.size()
        << "-reading backlog (" << plan_.receivers.size()
        << " receivers, 2 grants each); 1 thread deposits "
        << plan_.trickle_per_s << "/s single-shot on a fixed schedule";
    return out.str();
  }

 private:
  uint64_t seed_;
  Bytes canary_;
  DrainPlan plan_;
  size_t fetch_threads_;
  std::vector<std::unique_ptr<mws::util::DeterministicRandom>> rngs_;
  std::vector<Receiver> receivers_;
  std::vector<mws::wire::DepositRequest> trickle_pool_;
  std::vector<Bytes> trickle_;
  std::vector<std::vector<std::vector<uint64_t>>> expected_;
  std::string digest_;
};

// ---------------------------------------------------------------------
// mixed

class MixedRunner : public WorkloadRunner {
 public:
  // Scheduled operations later than this past the end of the schedule
  // are not run and count as failed.
  static constexpr int64_t kGraceNs = 2 * kSecondNs;

  MixedRunner(uint64_t seed, double seconds)
      : seed_(seed),
        canary_(MakeCanary(seed)),
        plan_(MakeMixedPlan(seed, seconds)),
        deposit_threads_(std::max<size_t>(1, GeneratorThreads() / 2)),
        poll_threads_(
            std::max<size_t>(1, GeneratorThreads() - deposit_threads_)) {
    // Device d deposits from thread d % deposit_threads_, with that
    // thread's draws.
    for (size_t t = 0; t < deposit_threads_; ++t) {
      device_rngs_.push_back(
          std::make_unique<mws::util::DeterministicRandom>(Mix(seed, 8200 + t)));
    }
    // Receivers are polled from whichever poll thread is free, so each
    // has its own draws and a lock that keeps its polls one at a time.
    for (size_t r = 0; r < plan_.receivers.size(); ++r) {
      receiver_rngs_.push_back(
          std::make_unique<mws::util::DeterministicRandom>(Mix(seed, 8300 + r)));
    }
    receiver_locks_ = std::vector<std::mutex>(plan_.receivers.size());
  }

  Status Setup(Deployment* d) override {
    MWS_RETURN_IF_ERROR(RegisterDevices(d, plan_.devices));
    for (size_t i = 0; i < plan_.devices.size(); ++i) {
      const DeviceSpec& device = plan_.devices[i];
      devices_.push_back(std::make_unique<mws::client::SmartDevice>(
          device.id, device.mac_key, d->params(),
          mws::crypto::CipherKind::kDes, d->client_transport(), &d->clock(),
          device_rngs_[i % deposit_threads_].get()));
    }
    std::vector<mws::util::RandomSource*> rngs;
    for (auto& rng : receiver_rngs_) rngs.push_back(rng.get());
    MWS_RETURN_IF_ERROR(
        SetUpReceivers(d, 9200, plan_.receivers, rngs, &receivers_));
    InputDigest digest;
    AddToDigest(plan_, &digest);
    digest_ = digest.Hex();
    return Status::Ok();
  }

  void GenerateInputs(Deployment*) override {
    payloads_.clear();
    for (const ReadingSpec& r : plan_.readings) {
      payloads_.push_back(MakePayload(canary_, r.id, seed_));
    }
  }

  size_t InputBytes() const override {
    size_t bytes = plan_.readings.capacity() * sizeof(ReadingSpec) +
                   payloads_.capacity() * sizeof(Bytes);
    for (const Bytes& payload : payloads_) bytes += payload.capacity();
    return bytes;
  }

  RunResult Run(Deployment* d, double seconds, SpanRecorder* recorder) override {
    const ClientSpans names(recorder);
    RunResult result;
    const auto ids_before = LastIds(d);
    const double cpu_before = CpuSeconds();
    result.cpu_from_ns = SteadyNs();
    const size_t threads = deposit_threads_ + poll_threads_;
    const int64_t start = SteadyNs() + 20 * kMsNs;
    const int64_t cutoff =
        start + static_cast<int64_t>(seconds * kSecondNs) + kGraceNs;
    const int64_t start_us = d->clock().MicrosAtSteadyNs(start);

    const size_t n = plan_.readings.size();
    std::vector<int64_t> call_ns(n, 0), ack_ns(n, 0);
    std::vector<uint8_t> acked(n, 0);
    // Per receiver, guarded by receiver_locks_: deliveries (reading id,
    // verified at) and the end of the last covered window.
    std::vector<std::vector<std::pair<uint64_t, int64_t>>> delivered(
        receivers_.size());
    std::vector<int64_t> last_to(receivers_.size(), start_us);
    std::vector<Tally> tallies(threads);
    std::vector<std::set<Bytes>> nonces(threads);
    std::vector<uint64_t> not_run(threads, 0);
    std::atomic<size_t> next_poll{0};
    std::atomic<int64_t> last_finish{start};

    // Each deposit thread serves its devices' readings in due order.
    auto depositor = [&](size_t t) {
      Tally& tally = tallies[t];
      for (size_t k = 0; k < n; ++k) {
        const ReadingSpec& r = plan_.readings[k];
        if (r.device % deposit_threads_ != t) continue;
        const int64_t due = start + r.timestamp_offset_us * 1000;
        if (SteadyNs() > cutoff) {
          ++not_run[t];
          continue;
        }
        SleepUntilNs(due);
        const int64_t t0 = SteadyNs();
        tally.lag_ms.push_back(Ms(t0 - due));
        ++tally.attempted;
        call_ns[k] = t0;
        mws::util::Result<uint64_t> id = Status::Internal("unset");
        {
          SpanScope span(recorder, names.deposit);
          id = devices_[r.device]->DepositMessage(r.attribute, payloads_[k]);
        }
        const int64_t t1 = SteadyNs();
        tally.deposit_ms.Add(t1, Ms(t1 - due));
        if (!id.ok()) {
          tally.Error("deposit: " + id.status().ToString());
        } else {
          ack_ns[k] = t1;
          acked[k] = 1;
          tally.payload_bytes += kPayloadBytes;
        }
        RaiseTo(&last_finish, t1);
      }
    };

    // Polls are taken in due order by whichever poll thread is free.
    auto poller = [&](size_t t) {
      Tally& tally = tallies[t];
      for (size_t i = next_poll.fetch_add(1); i < plan_.polls.size();
           i = next_poll.fetch_add(1)) {
        const auto& [due_offset_us, rc] = plan_.polls[i];
        const int64_t due = start + due_offset_us * 1000;
        if (SteadyNs() > cutoff) {
          ++not_run[t];
          continue;
        }
        SleepUntilNs(due);
        tally.lag_ms.push_back(Ms(SteadyNs() - due));
        std::lock_guard<std::mutex> lock(receiver_locks_[rc]);
        const int64_t to = d->clock().MicrosAtSteadyNs(due) - plan_.settle_us;
        if (to <= last_to[rc]) continue;
        ++tally.attempted;
        Status status = Poll(rc, last_to[rc], to, recorder, names, &tally,
                             &nonces[t], &delivered[rc]);
        const int64_t t1 = SteadyNs();
        tally.fetch_ms.Add(t1, Ms(t1 - due));
        if (!status.ok()) {
          tally.Error("poll: " + status.ToString());
        } else {
          last_to[rc] = to;
        }
        RaiseTo(&last_finish, t1);
      }
    };

    std::vector<std::thread> pool;
    for (size_t t = 0; t < deposit_threads_; ++t) {
      pool.emplace_back(depositor, t);
    }
    for (size_t t = deposit_threads_; t < threads; ++t) {
      pool.emplace_back(poller, t);
    }
    for (std::thread& t : pool) t.join();

    result.start_ns = start;
    result.wall_s = static_cast<double>(last_finish.load() - start) / 1e9;
    for (const Tally& t : tallies) t.MergeInto(&result);
    for (uint64_t c : not_run) result.not_run += c;
    std::set<Bytes> all;
    for (const auto& s : nonces) all.insert(s.begin(), s.end());
    result.observed_identities = all.size();

    // Exactly-once audit. A reading is owed to an entitled receiver once
    // that receiver's last covered window ends after the reading was
    // acked; a reading stamped after the window ended is not owed yet;
    // in between it may or may not have made the window.
    std::vector<std::map<uint64_t, uint32_t>> counts(receivers_.size());
    for (size_t rc = 0; rc < receivers_.size(); ++rc) {
      for (const auto& [id, when_ns] : delivered[rc]) {
        counts[rc][id] += 1;
        const size_t k = id - 1;
        if (id == 0 || k >= n || !acked[k]) {
          ++result.unexpected;
          continue;
        }
        if (plan_.entitled[k] != rc) {
          ++result.unexpected;
          continue;
        }
        result.delivery_ms.Add(
            when_ns,
            Ms(when_ns - (start + plan_.readings[k].timestamp_offset_us * 1000)));
      }
    }
    for (size_t k = 0; k < n; ++k) {
      if (!acked[k]) continue;
      const uint32_t rc = plan_.entitled[k];
      const auto it = counts[rc].find(k + 1);
      const uint32_t c = it == counts[rc].end() ? 0 : it->second;
      if (c > 1) result.duplicate += c - 1;
      if (d->clock().MicrosAtSteadyNs(ack_ns[k]) < last_to[rc]) {
        ++result.attempted;
        if (c == 0) ++result.missing;
      } else if (d->clock().MicrosAtSteadyNs(call_ns[k]) < last_to[rc]) {
        ++result.ambiguous;
      } else if (c > 0) {
        ++result.unexpected;
      }
    }
    FinishRun(d, ids_before, cpu_before, &result);
    return result;
  }

  const std::string& InputDigestHex() const override { return digest_; }
  CacheFootprint Footprint() const override { return e2e::Footprint(plan_); }
  std::string Describe() const override {
    std::ostringstream out;
    out << "open loop: " << deposit_threads_ << " threads seal live and "
        << "deposit single-shot for " << plan_.devices.size()
        << " devices; " << poll_threads_ << " threads run the polls of "
        << plan_.receivers.size() << " receivers, each every "
        << plan_.poll_period_us / 1000 << " ms (staggered) over a window "
        << "ending " << plan_.settle_us / 1000
        << " ms before the poll is due and holding "
        << plan_.readings_per_window << " readings ("
        << plan_.readings.size() << " readings in all)";
    return out.str();
  }

 private:
  /// Authenticate -> Retrieve -> AuthenticateWithPkg -> RequestKey +
  /// DecryptMessage per message: the single-shot path.
  Status Poll(size_t rc, int64_t from, int64_t to, SpanRecorder* recorder,
              const ClientSpans& names, Tally* tally, std::set<Bytes>* nonces,
              std::vector<std::pair<uint64_t, int64_t>>* delivered) {
    mws::client::ReceivingClient* client = receivers_[rc].client.get();
    SpanScope fetch(recorder, names.fetch);
    {
      SpanScope span(recorder, names.rc_auth);
      MWS_RETURN_IF_ERROR(client->Authenticate());
    }
    mws::wire::RetrieveResponse retrieved;
    {
      SpanScope span(recorder, names.retrieve);
      MWS_ASSIGN_OR_RETURN(retrieved, client->Retrieve(0, from, to));
    }
    {
      SpanScope span(recorder, names.pkg_auth);
      MWS_RETURN_IF_ERROR(client->AuthenticateWithPkg(retrieved.token));
    }
    tally->retrieved += retrieved.messages.size();
    for (const mws::wire::RetrievedMessage& m : retrieved.messages) {
      nonces->insert(m.nonce);
      mws::util::Result<mws::ibe::IbePrivateKey> key =
          Status::Internal("unset");
      {
        SpanScope span(recorder, names.extract);
        key = client->RequestKey(m.aid, m.nonce);
      }
      MWS_RETURN_IF_ERROR(key.status());
      ++tally->keys;
      mws::util::Result<Bytes> plain = Status::Internal("unset");
      {
        SpanScope span(recorder, names.decrypt);
        plain = client->DecryptMessage(m, key.value());
      }
      auto id = plain.ok() ? CheckPayload(canary_, plain.value())
                           : std::nullopt;
      if (!id) {
        ++tally->mismatched;
        continue;
      }
      const int64_t now = SteadyNs();
      tally->Complete(now, 1);
      delivered->emplace_back(*id, now);
    }
    return Status::Ok();
  }

  uint64_t seed_;
  Bytes canary_;
  MixedPlan plan_;
  size_t deposit_threads_;
  size_t poll_threads_;
  std::vector<std::unique_ptr<mws::util::DeterministicRandom>> device_rngs_;
  std::vector<std::unique_ptr<mws::util::DeterministicRandom>> receiver_rngs_;
  std::vector<std::mutex> receiver_locks_;
  std::vector<std::unique_ptr<mws::client::SmartDevice>> devices_;
  std::vector<Receiver> receivers_;
  std::vector<Bytes> payloads_;
  std::string digest_;
};

}  // namespace

size_t GeneratorThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::unique_ptr<WorkloadRunner> MakeRunner(Workload workload, uint64_t seed,
                                           double seconds) {
  switch (workload) {
    case Workload::kIngest:
      return std::make_unique<IngestRunner>(seed, seconds);
    case Workload::kDrain:
      return std::make_unique<DrainRunner>(seed, seconds);
    case Workload::kMixed:
      return std::make_unique<MixedRunner>(seed, seconds);
  }
  return nullptr;
}

size_t CompactThresholdBytes(Workload workload) {
  // ingest turns several checkpoint cycles per run; the read-heavy
  // workloads never reach the threshold.
  return workload == Workload::kIngest ? size_t{4} << 20 : size_t{64} << 20;
}

}  // namespace e2e
