#include "linalg/vector_ops.h"

#include "common/logging.h"

namespace easeml::linalg {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  EASEML_DCHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  EASEML_DCHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace easeml::linalg
