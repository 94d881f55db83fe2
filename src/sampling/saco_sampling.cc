#include "sampling/saco_sampling.h"

#include <algorithm>

#include "traj/distance.h"

namespace hermes::sampling {

double BaseScore(const traj::SubTrajectory& st) {
  // Voting-weighted duration: a long, highly co-moved piece is the best
  // cluster seed. Degenerate (instantaneous) pieces score 0.
  return st.mean_voting * st.Duration();
}

std::vector<size_t> SelectRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const SamplingParams& params) {
  std::vector<size_t> chosen;
  const size_t n = subs.size();
  if (n == 0 || params.max_representatives == 0) return chosen;

  std::vector<double> base(n);
  std::vector<double> max_sim(n, 0.0);  // Max similarity to the chosen set.
  // max_sim[i] has absorbed chosen[0, absorbed[i]).
  std::vector<size_t> absorbed(n, 0);
  for (size_t i = 0; i < n; ++i) base[i] = BaseScore(subs[i]);

  // Lazy greedy: a sub-trajectory's similarity to a new representative is
  // folded in only when its stored gain wins a scan. max_sim only grows,
  // so a stale gain is never below the true one, and a winner that is up
  // to date beats every true gain, ties going to the lowest index as in
  // the eager loop. The fold is the same max over the same sequence, so
  // every up-to-date max_sim equals the eager loop's bit for bit.
  double first_gain = 0.0;
  while (chosen.size() < params.max_representatives) {
    size_t best = n;
    double best_gain = 0.0;
    for (;;) {
      best = n;
      best_gain = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (max_sim[i] >= 1.0) continue;  // Fully covered (or chosen).
        const double gain = base[i] * (1.0 - max_sim[i]);
        if (gain > best_gain) {
          best_gain = gain;
          best = i;
        }
      }
      if (best == n || absorbed[best] == chosen.size()) break;
      // Stale winner: fold in the representatives chosen since, rescan.
      for (size_t& k = absorbed[best]; k < chosen.size(); ++k) {
        const double sim = traj::TimeAwareSimilarity(
            subs[best].points, subs[chosen[k]].points, params.sigma,
            params.min_overlap_ratio);
        max_sim[best] = std::max(max_sim[best], sim);
      }
    }
    if (best == n || best_gain <= 0.0) break;
    if (chosen.empty()) {
      first_gain = best_gain;
    } else if (best_gain < params.gain_stop_ratio * first_gain) {
      break;
    }
    chosen.push_back(best);
    max_sim[best] = 1.0;  // Never re-selected.
  }
  return chosen;
}

}  // namespace hermes::sampling
