#ifndef MWSIBE_E2EBENCH_CALIBRATE_H_
#define MWSIBE_E2EBENCH_CALIBRATE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

/// CPU milliseconds one calibration burst takes on the reference host (a
/// quiet 4-vCPU Intel Xeon VM, RelWithDebInfo).
double ReferenceBurstMs();

/// Runs one calibration burst and returns the CPU milliseconds it took on
/// the calling thread. The burst is a chain of 512-bit Montgomery
/// multiplications: the field arithmetic under every pairing, extraction
/// and seal. It is the benchmark's own code, not src/'s, so a change to
/// the program cannot move it; it follows the host's speed instead.
double CalibrationBurstMs();

/// How slow the host ran a set of bursts against the reference host:
/// mean burst CPU time / ReferenceBurstMs(). 1 on the reference host, 2
/// on a host at half its speed; 1 if there are no bursts.
double Slowdown(const std::vector<double>& burst_ms);

/// Samples the host's speed while the program runs: a thread of its own
/// runs a calibration burst every `period_ns` until destroyed. The host's
/// speed can change within seconds, so a figure is scaled by the bursts
/// taken while it was measured, not by bursts taken before or after.
class SpeedSampler {
 public:
  explicit SpeedSampler(int64_t period_ns);
  ~SpeedSampler();
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// CPU milliseconds of each burst that started in [from_ns, to_ns)
  /// (steady clock, as SteadyNs()).
  std::vector<double> BurstsBetween(int64_t from_ns, int64_t to_ns) const;
  /// CPU seconds the bursts that started in [from_ns, to_ns) took:
  /// process CPU time includes them, the program's does not.
  double CpuSecondsBetween(int64_t from_ns, int64_t to_ns) const;

 private:
  struct Burst {
    int64_t start_ns;
    double cpu_ms;
  };
  void Loop(int64_t period_ns);

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Burst> bursts_;
  std::thread thread_;
};

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_CALIBRATE_H_
