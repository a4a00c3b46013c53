#include "losses/loss.h"

namespace crh {

double ProbVectorSquaredLoss(const double* truth_dist, size_t num_labels, CategoryId obs) {
  double norm_sq = 0.0;
  for (size_t l = 0; l < num_labels; ++l) norm_sq += truth_dist[l] * truth_dist[l];
  const double p_obs = truth_dist[static_cast<size_t>(obs)];
  return norm_sq - 2.0 * p_obs + 1.0;
}

}  // namespace crh
