// bessel.hpp — the Jakes autocorrelation oracle.
//
// Clarke's model gives the in-phase autocorrelation of Rayleigh fading
// as J0(2 pi f_d tau); the fading tests compare the sum-of-sinusoids
// generator against it.
#pragma once

#include <cmath>

namespace caem::test_support {

/// Bessel function of the first kind, order zero (Abramowitz & Stegun
/// 9.4.1/9.4.3 polynomial approximations, good to ~1e-8).
inline double bessel_j0(double x) noexcept {
  const double ax = std::fabs(x);
  if (ax < 8.0) {
    const double y = x * x;
    const double p1 = 57568490574.0 + y * (-13362590354.0 + y * (651619640.7 +
                      y * (-11214424.18 + y * (77392.33017 + y * (-184.9052456)))));
    const double p2 = 57568490411.0 + y * (1029532985.0 + y * (9494680.718 +
                      y * (59272.64853 + y * (267.8532712 + y))));
    return p1 / p2;
  }
  const double z = 8.0 / ax;
  const double y = z * z;
  const double xx = ax - 0.785398164;
  const double p1 = 1.0 + y * (-0.1098628627e-2 + y * (0.2734510407e-4 +
                    y * (-0.2073370639e-5 + y * 0.2093887211e-6)));
  const double p2 = -0.1562499995e-1 + y * (0.1430488765e-3 + y * (-0.6911147651e-5 +
                    y * (0.7621095161e-6 + y * (-0.934935152e-7))));
  return std::sqrt(0.636619772 / ax) * (std::cos(xx) * p1 - z * std::sin(xx) * p2);
}

}  // namespace caem::test_support
