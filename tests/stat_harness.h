// Shared statistical verification harness for estimator tests.
//
// Accuracy claims in this repo (GPS in-stream/post-stream, the sharded
// merge, and the four baselines) are statistical: a single run can land
// anywhere in its sampling distribution, so CI must gate on multi-trial
// aggregates with tolerances derived from the trial count, not on
// eyeballed single-run bands. This header provides the shared pieces:
//
//   * StatTrials(default) — trial count, overridable via the
//     GPS_STAT_TRIALS environment variable so the nightly CI job runs the
//     same suites with more trials (tolerances below adapt to the count);
//   * EstimateTrials — accumulates per-trial `Estimate`s (value +
//     estimator-reported variance) against a known exact value and gates
//     mean relative error, empirical CI coverage with a binomial
//     tolerance bound, unbiasedness, and variance calibration;
//   * PointTrials — the same for estimators that report only a point
//     value (TRIEST, MASCOT, NSAMP).
//
// All gates are non-fatal EXPECTs labelled with a caller-supplied `what`,
// so one test can gate several metrics and report every failure.

#ifndef GPS_TESTS_STAT_HARNESS_H_
#define GPS_TESTS_STAT_HARNESS_H_

#include <cmath>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/estimates.h"
#include "util/welford.h"

namespace gps {
namespace stat {

/// Trial count for a statistical test. GPS_STAT_TRIALS is a FLOOR: the
/// nightly CI job exports 200 to deepen every suite whose default is
/// lower, while suites already tuned heavier (e.g. the 400-trial
/// calibration run) never lose power to the override — a "heavier run"
/// knob must be monotone.
inline int StatTrials(int default_trials) {
  const char* env = std::getenv("GPS_STAT_TRIALS");
  if (env == nullptr || *env == '\0') return default_trials;
  char* end = nullptr;
  long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 2) return default_trials;
  // Cap before narrowing: a fat-fingered env value must not wrap the int
  // (1e6 trials is already far past any useful nightly budget).
  if (parsed > 1000000) parsed = 1000000;
  return parsed > default_trials ? static_cast<int>(parsed)
                                 : default_trials;
}

/// Lower tolerance bound on the number of covering trials out of `n` for
/// a CI procedure with true coverage `nominal`: the binomial mean minus
/// `z_slack` standard deviations (default ~4 sigma, so a correctly
/// calibrated estimator fails spuriously with probability < 1e-4).
inline int MinCoveredTrials(int n, double nominal, double z_slack = 4.0) {
  const double mean = n * nominal;
  const double sd = std::sqrt(n * nominal * (1.0 - nominal));
  const double bound = std::floor(mean - z_slack * sd);
  return bound > 0.0 ? static_cast<int>(bound) : 0;
}

/// Multi-trial accumulator for point estimators (no reported variance).
class PointTrials {
 public:
  explicit PointTrials(double exact) : exact_(exact) {}

  void Add(double value) {
    values_.Add(value);
    if (exact_ != 0.0) {
      rel_errors_.Add(std::abs(value - exact_) / std::abs(exact_));
    }
  }

  double exact() const { return exact_; }
  int trials() const { return static_cast<int>(values_.Count()); }
  const OnlineStats& values() const { return values_; }
  double MeanRelError() const { return rel_errors_.Mean(); }

  /// Gate: mean over trials of |estimate - exact| / exact stays below
  /// `bound` (estimator-specific accuracy band at the test's budget).
  void ExpectMeanRelErrorBelow(double bound, const std::string& what) const {
    EXPECT_LT(MeanRelError(), bound)
        << what << ": mean relative error " << MeanRelError() << " over "
        << trials() << " trials (exact " << exact_ << ", trial mean "
        << values_.Mean() << ")";
  }

  /// Gate: the trial mean is within z standard errors of the exact value,
  /// plus a relative slack for estimators that are consistent rather than
  /// exactly unbiased.
  void ExpectMeanNearExact(const std::string& what, double z = 4.0,
                           double rel_slack = 0.0) const {
    const double tolerance =
        z * values_.StdError() + rel_slack * std::abs(exact_);
    EXPECT_NEAR(values_.Mean(), exact_, tolerance)
        << what << ": " << trials() << " trials";
  }

 private:
  double exact_;
  OnlineStats values_;
  OnlineStats rel_errors_;
};

/// Multi-trial accumulator for estimators that report a variance
/// alongside each point estimate (GPS post-stream, in-stream, and the
/// sharded merge).
class EstimateTrials {
 public:
  explicit EstimateTrials(double exact) : points_(exact) {}

  void Add(const Estimate& estimate) {
    points_.Add(estimate.value);
    variances_.Add(estimate.variance);
    if (points_.exact() >= estimate.Lower() &&
        points_.exact() <= estimate.Upper()) {
      ++covered_;
    }
  }

  int trials() const { return points_.trials(); }
  int covered() const { return covered_; }
  const OnlineStats& values() const { return points_.values(); }
  const OnlineStats& variances() const { return variances_; }
  double MeanRelError() const { return points_.MeanRelError(); }
  double EmpiricalCoverage() const {
    return trials() > 0 ? static_cast<double>(covered_) / trials() : 0.0;
  }

  void ExpectMeanRelErrorBelow(double bound, const std::string& what) const {
    points_.ExpectMeanRelErrorBelow(bound, what);
  }

  void ExpectMeanNearExact(const std::string& what, double z = 4.0,
                           double rel_slack = 0.0) const {
    points_.ExpectMeanNearExact(what, z, rel_slack);
  }

  /// Gate: empirical 95%-CI coverage is consistent (within a binomial
  /// tolerance bound) with a true coverage of at least `nominal`. Pass
  /// the procedure's known attainable level (e.g. 0.85 for delta-method
  /// clustering intervals), not always 0.95.
  void ExpectCoverageAtLeast(double nominal, const std::string& what,
                             double z_slack = 4.0) const {
    EXPECT_GE(covered_, MinCoveredTrials(trials(), nominal, z_slack))
        << what << ": covered " << covered_ << "/" << trials()
        << " (empirical " << EmpiricalCoverage() << ", gating nominal "
        << nominal << ")";
  }

  /// Gate: the mean estimator-reported variance agrees with the
  /// empirical variance of the point estimates within [lo, hi] ratio
  /// (variance-estimator calibration, paper Corollaries 3-4/Theorem 7).
  void ExpectVarianceCalibrated(double lo, double hi,
                                const std::string& what) const {
    const double empirical = values().SampleVariance();
    ASSERT_GT(empirical, 0.0) << what;
    const double ratio = variances_.Mean() / empirical;
    EXPECT_GT(ratio, lo) << what << ": reported/empirical variance ratio "
                         << ratio << " over " << trials() << " trials";
    EXPECT_LT(ratio, hi) << what << ": reported/empirical variance ratio "
                         << ratio << " over " << trials() << " trials";
  }

 private:
  PointTrials points_;
  OnlineStats variances_;
  int covered_ = 0;
};

}  // namespace stat
}  // namespace gps

#endif  // GPS_TESTS_STAT_HARNESS_H_
