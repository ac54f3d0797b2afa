#include "agc/coloring/ag.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "agc/coloring/stage_plan.hpp"
#include "agc/math/iterated_log.hpp"
#include "agc/math/primes.hpp"

namespace agc::coloring {

std::uint64_t ag_modulus(std::size_t delta, std::uint64_t palette) {
  // q > 2*delta guarantees termination within q rounds (Corollary 3.5);
  // q^2 >= palette guarantees every initial color decomposes as <a,b>.
  const auto sqrt_pal = static_cast<std::uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(palette))));
  return math::next_prime(std::max<std::uint64_t>(2 * delta + 1, sqrt_pal));
}

Color AgRule::step(Color own, std::span<const Color> neighbors) const {
  const std::uint64_t a = code_.a(own);
  const std::uint64_t b = code_.b(own);
  // Conflict (Definition 3.1): a neighbor whose second coordinate equals b.
  // Finalized neighbors <0,b'> participate with second coordinate b'.
  // Colors outside [0, q^2) belong to other stages of a composed pipeline
  // and are ignored (they are in disjoint ranges and cannot collide).
  bool conflict = false;
  for (Color nc : neighbors) {
    if (code_.in_range(nc) && code_.b(nc) == b) {
      conflict = true;
      break;
    }
  }
  if (!conflict) return code_.encode(0, b);  // finalize <0,b>
  // <a, b+a mod q>; a no-op for already-final vertices (a == 0).
  return code_.encode(a, (b + a) % code_.q);
}

std::uint32_t AgRule::color_bits() const {
  return runtime::width_of(code_.q * code_.q - 1);
}

StagePlan plan_ag(std::vector<Color> colors, std::size_t delta) {
  const Color k = graph::max_color(colors) + 1;
  auto rule = std::make_unique<AgRule>(ag_modulus(delta, k));
  StagePlan plan;
  plan.max_rounds = rule->q() + 2;
  plan.palette_bound = std::max<std::uint64_t>(rule->q() * rule->q(), k);
  plan.rule = std::move(rule);
  plan.initial = std::move(colors);
  return plan;
}

runtime::IterativeResult additive_group_color(graph::GraphView g,
                                              std::vector<Color> initial,
                                              std::size_t delta,
                                              const runtime::IterativeOptions& opts) {
  return run_plan(g, plan_ag(std::move(initial), delta), opts);
}

}  // namespace agc::coloring
