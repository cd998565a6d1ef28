// Host-speed probe.  The shared host this benchmark runs on changes speed
// by up to 1.7x over seconds to minutes (other tenants on the same cores and
// memory), for every process at once, so medians of raw wall time taken
// minutes apart disagree by far more than any change worth measuring.
//
// Each timed phase (a setup, a refresh, a solve unit) is therefore followed
// by a probe: a fixed kernel of the benchmark's own -- no library code --
// whose run time follows the host's speed but never the program's.  A
// phase's normalized time is its wall time scaled by kReferenceSeconds over
// the mean of the probes just before and just after it: the seconds the
// phase would have taken on a host where the probe takes kReferenceSeconds.
#pragma once

#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// The probe's time on the reference host (4-vCPU x86-64 KVM guest,
  /// Xeon Sapphire Rapids, in its fast state), so normalized times read as
  /// seconds on that host.
  static constexpr double kReferenceSeconds = 0.007;

  /// One lane per thread the solver runs with: the lanes run at once, so
  /// the probe samples as many cores as the phase it normalizes.
  explicit SpeedProbe(int threads);

  /// Mean over the lanes of one kernel run's wall seconds.  Each lane runs
  /// its kernel twice and times the second run: the phase before it has
  /// evicted the probe's data, and a cold run would measure that eviction
  /// rather than the host.
  double run();

 private:
  /// 7-point stencil on a 40^3 grid in CSR (2.6 MB, larger than L2):
  /// memory-bound indirect sweeps, like the solver's sparse kernels.
  struct Lane {
    Lane();
    void sweeps();

    std::vector<int> rowptr, col;
    std::vector<double> val, x, y;
    double sink = 0.0;
    double seconds = 0.0;  ///< the timed run's wall seconds
  };
  std::vector<Lane> lanes_;
};

/// Wall time of one phase and the probe around it.
struct Phase {
  double seconds = 0.0;  ///< measured wall seconds
  double probe = 0.0;    ///< mean of the probes just before and after it
  double normalized() const {
    return seconds * SpeedProbe::kReferenceSeconds / probe;
  }
};

}  // namespace perfbench
