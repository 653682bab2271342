#include "calibrate.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <numeric>

#include "spans.h"

namespace e2e {

namespace {

using u64 = uint64_t;
using u128 = unsigned __int128;

constexpr int kLimbs = 8;  // 512-bit operands
constexpr int kBurstMultiplications = 5'000;

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

u64 XorShift(u64* state) {
  u64 x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

/// out = a * b * 2^-512 mod m (CIOS); out may alias a.
void MontMul(const u64* a, const u64* b, const u64* m, u64 m_inv, u64* out) {
  u64 t[kLimbs + 2] = {};
  for (int i = 0; i < kLimbs; ++i) {
    u64 carry = 0;
    for (int j = 0; j < kLimbs; ++j) {
      const u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t[kLimbs]) + carry;
    t[kLimbs] = static_cast<u64>(s);
    t[kLimbs + 1] = static_cast<u64>(s >> 64);
    const u64 q = t[0] * m_inv;
    s = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<u64>(s >> 64);
    for (int j = 1; j < kLimbs; ++j) {
      s = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    s = static_cast<u128>(t[kLimbs]) + carry;
    t[kLimbs - 1] = static_cast<u64>(s);
    t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(s >> 64);
  }
  std::copy(t, t + kLimbs, out);
}

}  // namespace

double ReferenceBurstMs() { return 0.645; }

double CalibrationBurstMs() {
  u64 m[kLimbs], x[kLimbs], y[kLimbs];
  u64 state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kLimbs; ++i) {
    m[i] = XorShift(&state);
    x[i] = XorShift(&state);
    y[i] = XorShift(&state);
  }
  m[0] |= 1;
  m[kLimbs - 1] >>= 1;
  x[kLimbs - 1] >>= 2;
  y[kLimbs - 1] >>= 2;
  u64 inv = 1;  // Newton iteration for m[0]^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
  const u64 m_inv = 0 - inv;
  const double t0 = ThreadCpuMs();
  for (int i = 0; i < kBurstMultiplications; ++i) {
    MontMul(x, y, m, m_inv, x);
    x[kLimbs - 1] &= (u64{1} << 60) - 1;
  }
  const double ms = ThreadCpuMs() - t0;
  // The product depends on every multiplication; this keeps the chain
  // from being optimized away.
  if (x[0] == 42) std::abort();
  return ms;
}

double Slowdown(const std::vector<double>& burst_ms) {
  if (burst_ms.empty()) return 1;
  const double mean = std::accumulate(burst_ms.begin(), burst_ms.end(), 0.0) /
                      static_cast<double>(burst_ms.size());
  return mean / ReferenceBurstMs();
}

SpeedSampler::SpeedSampler(int64_t period_ns)
    : thread_([this, period_ns] { Loop(period_ns); }) {}

SpeedSampler::~SpeedSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void SpeedSampler::Loop(int64_t period_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  int64_t due = SteadyNs();
  while (!stop_) {
    lock.unlock();
    const int64_t start = SteadyNs();
    const double ms = CalibrationBurstMs();
    lock.lock();
    bursts_.push_back({start, ms});
    // A sampler that fell behind skips ahead rather than catch up.
    due = std::max(due + period_ns, SteadyNs());
    wake_.wait_for(lock, std::chrono::nanoseconds(due - SteadyNs()),
                   [this] { return stop_; });
  }
}

std::vector<double> SpeedSampler::BurstsBetween(int64_t from_ns,
                                                int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Burst& b : bursts_) {
    if (b.start_ns >= from_ns && b.start_ns < to_ns) out.push_back(b.cpu_ms);
  }
  return out;
}

double SpeedSampler::CpuSecondsBetween(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  double ms = 0;
  for (const Burst& b : bursts_) {
    if (b.start_ns >= from_ns && b.start_ns < to_ns) ms += b.cpu_ms;
  }
  return ms / 1e3;
}

}  // namespace e2e
