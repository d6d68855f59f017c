// The correctness gate: every result the benchmark times is checked,
// outside the timed region, before its numbers count.
#pragma once
#include <cstddef>
#include <string>

#include "matrix/matrix.hpp"
#include "matrix/partition.hpp"

namespace wallbench {

/// The executor's own verification tolerance (absolute, per element).
inline constexpr double kTolerance = 1e-9;

/// Empty when `got` equals `reference` within kTolerance; otherwise a
/// one-line reason.
std::string check_product(const hmxp::matrix::Matrix& got,
                          const hmxp::matrix::Matrix& reference);

/// Empty when a simulated cell performed all r*s*t block updates.
std::string check_coverage(std::size_t updates,
                           const hmxp::matrix::Partition& partition);

}  // namespace wallbench
