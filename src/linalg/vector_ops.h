#ifndef EASEML_LINALG_VECTOR_OPS_H_
#define EASEML_LINALG_VECTOR_OPS_H_

#include <vector>

namespace easeml::linalg {

/// Inner product. Precondition: equal lengths.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Squared Euclidean distance between two vectors of equal length.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

}  // namespace easeml::linalg

#endif  // EASEML_LINALG_VECTOR_OPS_H_
