#include "agc/coloring/linial.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "agc/coloring/stage_plan.hpp"
#include "agc/math/primes.hpp"

namespace agc::coloring {

namespace {

/// base^exp, saturating at uint64 max.
std::uint64_t sat_pow(std::uint64_t base, std::uint32_t exp) {
  std::uint64_t r = 1;
  for (std::uint32_t i = 0; i < exp; ++i) {
    if (r > std::numeric_limits<std::uint64_t>::max() / base) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    r *= base;
  }
  return r;
}

/// Smallest integer r with r^k >= p.
std::uint64_t ceil_root(std::uint64_t p, std::uint32_t k) {
  if (p <= 1) return 1;
  auto r = static_cast<std::uint64_t>(
      std::floor(std::pow(static_cast<double>(p), 1.0 / k)));
  while (sat_pow(r, k) < p) ++r;
  while (r > 1 && sat_pow(r - 1, k) >= p) --r;
  return r;
}

}  // namespace

LinialSchedule::LinialSchedule(std::uint64_t id_space, std::size_t delta,
                               bool excl_headroom, std::uint64_t final_room) {
  delta_ = delta;
  final_room_ = final_room;
  const std::uint64_t dd = std::max<std::uint64_t>(delta, 1);
  std::uint64_t palette = std::max<std::uint64_t>(id_space, 2);

  // Greedy stage construction: among degrees d, the field q must satisfy
  // q > d*Delta (collision slack) and q^{d+1} >= palette (coverage); pick the
  // d minimizing the resulting palette q^2, stop when no stage shrinks.
  while (true) {
    std::uint64_t best_to = std::numeric_limits<std::uint64_t>::max();
    LinialStage best{};
    for (std::uint32_t d = 1; d <= 64; ++d) {
      const std::uint64_t q =
          math::next_prime(std::max<std::uint64_t>(d * dd + 1, ceil_root(palette, d + 1)));
      const std::uint64_t to = q * q;
      if (to < best_to) {
        best_to = to;
        best = LinialStage{palette, q, d, to};
      }
      // Larger d only raises q once coverage is no longer binding.
      if (sat_pow(d * dd + 1, d + 1) >= palette) break;
    }
    if (best_to >= palette) break;  // fixed point: O(Delta^2)
    stages_.push_back(best);
    palette = best_to;
  }

  if (excl_headroom) {
    // Final Excl-Linial stage: degree 2, field large enough to dodge the
    // 2*Delta poly-collisions plus up to 2*Delta forbidden colors.
    const std::uint64_t q = math::next_prime(
        std::max<std::uint64_t>(4 * dd + 1, ceil_root(palette, 3)));
    stages_.push_back(LinialStage{palette, q, 2, q * q});
    palette = q * q;
  }

  // Interval offsets: interval 0 (final palette) at 0, interval j above it.
  const std::size_t r = stages_.size();
  offsets_.assign(r + 1, 0);
  for (std::size_t j = 1; j <= r; ++j) {
    offsets_[j] = offsets_[j - 1] + interval_size(j - 1);
  }
}

std::uint64_t LinialSchedule::interval_size(std::size_t j) const {
  const std::size_t r = stages_.size();
  assert(j <= r);
  if (j == r && r > 0) return stages_.front().from_palette;
  // Interval j holds the output palette of stage r-1-j's successor chain:
  // stage i maps interval r-i -> r-i-1, so interval j's palette is the
  // to_palette of stage r-1-j.
  std::uint64_t size = (j == r) ? 0 : stages_[r - 1 - j].to_palette;
  if (j == 0) size = std::max(size, final_room_);
  return size;
}

std::size_t LinialSchedule::interval_of(Color c) const {
  const std::size_t r = stages_.size();
  for (std::size_t j = r + 1; j-- > 0;) {
    if (c >= offsets_[j]) return j;
  }
  return 0;
}

std::uint64_t LinialSchedule::total_span() const {
  const std::size_t r = stages_.size();
  return offsets_[r] + interval_size(r);
}

Color mod_linial_step(const LinialSchedule& sched, std::size_t j, std::uint64_t x,
                      std::span<const std::uint64_t> same_interval_xs,
                      std::span<const Color> forbidden_next) {
  assert(j >= 1 && j <= sched.stages());
  const LinialStage& st = sched.stage(sched.stages() - j);
  const math::GF field(st.q);
  const auto g_own = math::Polynomial::from_digits(field, x, static_cast<int>(st.d));

  std::vector<math::Polynomial> g_nbrs;
  g_nbrs.reserve(same_interval_xs.size());
  for (std::uint64_t nx : same_interval_xs) {
    g_nbrs.push_back(math::Polynomial::from_digits(field, nx, static_cast<int>(st.d)));
  }

  const std::uint64_t next_off = sched.offset(j - 1);
  for (std::uint64_t e = 0; e < st.q; ++e) {
    const std::uint64_t val = g_own.eval(e);
    bool ok = true;
    for (const auto& g : g_nbrs) {
      if (g.eval(e) == val) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    const Color candidate = next_off + e * st.q + val;
    if (std::find(forbidden_next.begin(), forbidden_next.end(), candidate) !=
        forbidden_next.end()) {
      continue;
    }
    return candidate;
  }
  // Sizing guarantees existence: d*Delta collisions + |forbidden| < q.
  throw std::logic_error("mod_linial_step: no admissible evaluation point");
}

std::uint64_t eval_digit_poly(std::uint64_t q, std::uint64_t value, std::uint32_t d,
                              std::uint64_t e) noexcept {
  // Lowest digit first: sum of digit_i * e^i, digit_i = (value / q^i) % q.
  // Working set: acc, e^i, the remaining digits — O(1) words.  Products of
  // two residues fit in 64 bits whenever q <= 2^32.
  const auto mul = [q](std::uint64_t a, std::uint64_t b) {
    return q <= (std::uint64_t{1} << 32) ? a * b % q : math::mul_mod(a, b, q);
  };
  e %= q;
  std::uint64_t acc = 0;
  std::uint64_t power = 1;
  for (std::uint32_t i = 0; i <= d && power != 0; ++i) {  // e = 0: digit_0 only
    acc = (acc + mul(value % q, power)) % q;
    value /= q;
    power = mul(power, e);
  }
  return acc;
}

Color LinialRule::step(Color own, std::span<const Color> neighbors) const {
  const std::size_t j = sched_.interval_of(own);
  if (j == 0) return own;  // final palette reached
  // Same-interval neighbors are those in [lo, hi); they are filtered in place
  // and their polynomials evaluated on the fly, one point at a time — the
  // O(1)-memory evaluation of Section 3, and no allocation per call.
  const std::uint64_t lo = sched_.offset(j);
  const std::uint64_t hi = j < sched_.stages() ? sched_.offset(j + 1)
                                               : std::numeric_limits<Color>::max();
  const LinialStage& st = sched_.stage(sched_.stages() - j);
  const std::uint64_t x = own - lo;
  for (std::uint64_t e = 0; e < st.q; ++e) {
    const std::uint64_t val = eval_digit_poly(st.q, x, st.d, e);
    const bool clash = std::any_of(neighbors.begin(), neighbors.end(), [&](Color nc) {
      return nc >= lo && nc < hi && eval_digit_poly(st.q, nc - lo, st.d, e) == val;
    });
    if (!clash) return sched_.offset(j - 1) + e * st.q + val;
  }
  // Sizing guarantees existence: d*Delta collisions < q.
  throw std::logic_error("LinialRule::step: no admissible evaluation point");
}

std::uint32_t LinialRule::color_bits() const {
  return runtime::width_of(sched_.total_span() - 1);
}

StagePlan plan_linial(std::vector<Color> ids, std::uint64_t id_space,
                      std::size_t delta) {
  StagePlan plan;
  LinialSchedule sched(id_space, delta);
  if (sched.stages() > 0) {
    const std::uint64_t top = sched.offset(sched.stages());
    for (Color& c : ids) {
      assert(c < id_space);
      c += top;
    }
    plan.max_rounds = sched.stages() + 2;
    plan.palette_bound = sched.total_span();
    plan.rule = std::make_unique<LinialRule>(std::move(sched));
  }
  plan.initial = std::move(ids);
  return plan;
}

runtime::IterativeResult linial_color(graph::GraphView g,
                                      std::vector<Color> initial_ids,
                                      std::uint64_t id_space, std::size_t delta,
                                      const runtime::IterativeOptions& opts) {
  return run_plan(g, plan_linial(std::move(initial_ids), id_space, delta), opts);
}

}  // namespace agc::coloring
