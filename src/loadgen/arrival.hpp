// Open-loop arrival schedules.
//
// An open-loop generator decides *when* to send independently of how fast
// the service answers — the opposite of closed-loop clients, whose next
// request implicitly waits for the previous reply and therefore slows down
// exactly when the server is struggling (coordinated omission: the
// overload never shows up in the numbers, the central lesson of Berg et
// al., "Towards Optimality in Parallel Scheduling"). The schedule is
// materialised up front as absolute send offsets (seconds from test
// start), a pure function of the spec: the same seed yields the same send
// times on any platform.
//
// Rate curves: a constant rate, or a diurnal sinusoid
//     r(t) = rate_rps * (1 + amplitude * sin(2*pi*t / period))
// implemented by time-warping unit-rate event positions through the inverse
// cumulative intensity — exact for both Poisson and deterministic arrival
// processes, no thinning rejection loop.
#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace cosched {

enum class ArrivalProcess {
  /// Exponential interarrivals — the memoryless stream a front door sees
  /// from many independent users.
  Poisson,
  /// Evenly spaced arrivals — the worst case for burst absorption is
  /// removed, isolating queueing from arrival variance.
  Uniform,
};

const char* to_string(ArrivalProcess process);

/// Sinusoidal rate modulation around the base rate. amplitude must stay in
/// [0, 1): at 1 the trough rate reaches zero and the cumulative intensity
/// stops being invertible.
struct DiurnalSpec {
  bool enabled = false;
  Real period_seconds = 60.0;
  Real amplitude = 0.0;
};

struct ArrivalSpec {
  ArrivalProcess process = ArrivalProcess::Poisson;
  Real rate_rps = 10.0;  ///< mean offered rate (averaged over a period)
  std::int32_t count = 100;
  std::uint64_t seed = 1;
  DiurnalSpec diurnal;
};

/// Builds the schedule: `count` strictly increasing send offsets in
/// seconds. Deterministic in the spec.
std::vector<Real> build_arrival_schedule(const ArrivalSpec& spec);

/// Mean offered rate of a schedule: arrivals over [0, last]. 0 for
/// schedules with fewer than one arrival or a zero horizon.
Real schedule_offered_rps(const std::vector<Real>& schedule);

}  // namespace cosched
