#include "agc/coloring/reduction.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "agc/coloring/stage_plan.hpp"

namespace agc::coloring {

Color GreedyReduceRule::step(Color own, std::span<const Color> neighbors) const {
  if (own < target_) return own;  // final
  // Act only as a local maximum; ties are impossible between neighbors
  // (the coloring is proper), so the global maximum always acts.
  for (Color nc : neighbors) {
    if (nc > own) return own;
  }
  // Smallest color in [0, target) unused by any neighbor.  `neighbors` is
  // sorted, so a single sweep finds the first gap.
  Color candidate = 0;
  for (Color nc : neighbors) {
    if (nc < candidate) continue;  // duplicates / below candidate
    if (nc == candidate) {
      ++candidate;
    } else {
      break;  // gap found before nc
    }
  }
  return candidate;  // <= Delta < target since at most Delta neighbors
}

StagePlan plan_reduce(std::vector<Color> colors, std::uint64_t target) {
  const Color k = graph::max_color(colors) + 1;
  StagePlan plan;
  plan.max_rounds = k > target ? static_cast<std::size_t>(k - target) + 1 : 1;
  plan.palette_bound = std::max<std::uint64_t>(k, target);
  plan.rule = std::make_unique<GreedyReduceRule>(target, plan.palette_bound);
  plan.initial = std::move(colors);
  return plan;
}

runtime::IterativeResult reduce_colors(graph::GraphView g,
                                       std::vector<Color> initial,
                                       std::uint64_t target,
                                       const runtime::IterativeOptions& opts) {
  return run_plan(g, plan_reduce(std::move(initial), target), opts);
}

}  // namespace agc::coloring
