#include "sim/toggles.hpp"

#include "util/assert.hpp"

namespace scanpower {

double weighted_toggles(std::span<const Logic> before,
                        std::span<const Logic> after,
                        std::span<const double> weights) {
  SP_CHECK(before.size() == after.size() && before.size() == weights.size(),
           "weighted_toggles: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const Logic a = before[i];
    const Logic b = after[i];
    if (a == b) continue;
    if (a == Logic::X || b == Logic::X) {
      sum += 0.5 * weights[i];  // expectation over the unknown endpoint
    } else {
      sum += weights[i];
    }
  }
  return sum;
}

}  // namespace scanpower
