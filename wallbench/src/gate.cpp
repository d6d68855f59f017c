#include "gate.hpp"

#include <cmath>

namespace wallbench {

std::string check_product(const hmxp::matrix::Matrix& got,
                          const hmxp::matrix::Matrix& reference) {
  if (got.rows() != reference.rows() || got.cols() != reference.cols())
    return "product has shape " + std::to_string(got.rows()) + "x" +
           std::to_string(got.cols()) + ", expected " +
           std::to_string(reference.rows()) + "x" +
           std::to_string(reference.cols());
  // Element by element: Matrix::max_abs_diff would drop a NaN, which
  // compares false against everything.
  const double* g = got.data();
  const double* r = reference.data();
  for (std::size_t k = 0; k < got.size(); ++k) {
    const double error = std::fabs(g[k] - r[k]);
    if (!(error <= kTolerance))
      return "product differs from the reference by " +
             std::to_string(error) + " at element " + std::to_string(k);
  }
  return {};
}

std::string check_coverage(std::size_t updates,
                           const hmxp::matrix::Partition& partition) {
  if (updates == partition.total_updates()) return {};
  return "cell performed " + std::to_string(updates) + " of " +
         std::to_string(partition.total_updates()) + " block updates";
}

}  // namespace wallbench
