#include "agc/scale/flat.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "agc/coloring/ag.hpp"
#include "agc/coloring/linial.hpp"
#include "agc/coloring/palette.hpp"
#include "agc/coloring/reduction.hpp"
#include "agc/exec/thread_pool.hpp"
#include "agc/scale/packed.hpp"

namespace agc::scale {

namespace {

using graph::Color;
using graph::Vertex;

/// Degree-weighted contiguous shard bounds, with every cut rounded up to a
/// multiple of 64 vertices — 64 entries span whole words at every packed
/// width, so shards never write the same word (PackedColors contract).
/// Same weighting as ParallelExecutor::refresh_bounds; any contiguous
/// partition is result-identical, the weighting only balances wall clock.
std::vector<Vertex> shard_bounds(graph::GraphView g, std::size_t shards) {
  const std::size_t n = g.n();
  std::vector<Vertex> bounds(shards + 1, static_cast<Vertex>(n));
  bounds[0] = 0;
  const std::uint64_t total = 2 * static_cast<std::uint64_t>(g.m()) + n;
  std::uint64_t acc = 0;
  std::size_t s = 1;
  for (Vertex v = 0; v < n && s < shards; ++v) {
    acc += g.degree(v) + 1;
    while (s < shards && acc * shards >= total * s) {
      const std::uint64_t cut = (std::uint64_t{v} + 1 + 63) & ~std::uint64_t{63};
      bounds[s++] = static_cast<Vertex>(std::min<std::uint64_t>(cut, n));
    }
  }
  for (std::size_t i = 1; i <= shards; ++i) {
    bounds[i] = std::max(bounds[i], bounds[i - 1]);
  }
  return bounds;
}

}  // namespace

FlatResult run_flat(graph::GraphView g, std::vector<Color> initial,
                    const runtime::IterativeRule& rule,
                    std::uint64_t palette_bound, std::size_t max_rounds,
                    const FlatOptions& opts) {
  const std::size_t n = g.n();
  FlatResult res;

  std::size_t threads = opts.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t shards = std::min(threads, std::max<std::size_t>(n, 1));

  // Both buffers hold the current coloring at the start of every round; a
  // round writes next[v] only for vertices that change, and the apply phase
  // copies exactly those entries back.
  const std::uint32_t width =
      PackedColors::width_for(palette_bound == 0 ? 0 : palette_bound - 1);
  PackedColors cur(n, width);
  for (std::size_t v = 0; v < n; ++v) cur.set(v, initial[v]);
  PackedColors next = cur;

  // The frontier, one bit per vertex: live = not final; changed[r & 1] =
  // changed color in round r.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> live(words, 0);
  std::vector<std::uint64_t> changed[2] = {std::vector<std::uint64_t>(words, 0),
                                           std::vector<std::uint64_t>(words, 0)};
  for (std::size_t v = 0; v < n; ++v) {
    if (!rule.is_final(initial[v])) live[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  res.state_bytes = cur.memory_bytes() + next.memory_bytes() +
                    3 * words * sizeof(std::uint64_t);

  // Shard s owns bitmap words [first_word[s], first_word[s+1]); shard cuts
  // are multiples of 64 vertices (or n), so the word ranges are disjoint.
  const auto bounds = shard_bounds(g, shards);
  std::vector<std::size_t> first_word(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) first_word[s] = (bounds[s] + 63) / 64;

  std::vector<std::vector<std::uint64_t>> scratch(shards);
  for (auto& s : scratch) s.reserve(g.max_degree());
  // Per-shard "some vertex still live" flags; written once per shard per
  // round, read after the pool barrier.
  std::vector<std::uint8_t> shard_live(shards, 0);
  std::size_t round = 0;  // round index within this call

  // Compute phase: step every live vertex whose closed neighborhood changed
  // last round (every live vertex in round 0).  Reads cur and
  // changed[prev] anywhere; writes next, live and changed[cur] in its own
  // words only.
  const std::function<void(std::size_t)> compute = [&](std::size_t s) {
    const std::vector<std::uint64_t>& prev = changed[(round & 1) ^ 1];
    std::vector<std::uint64_t>& now = changed[round & 1];
    const auto was_changed = [&prev](std::size_t u) {
      return (prev[u >> 6] >> (u & 63) & 1) != 0;
    };
    auto& nbrs = scratch[s];
    std::uint64_t any_live = 0;
    for (std::size_t w = first_word[s]; w < first_word[s + 1]; ++w) {
      std::uint64_t lw = live[w];
      std::uint64_t ch = 0;
      for (std::uint64_t rest = lw; rest != 0; rest &= rest - 1) {
        const std::uint64_t bit = rest & (~rest + 1);
        const auto v = static_cast<Vertex>(w * 64 + std::countr_zero(rest));
        const auto row = g.neighbors(v);
        // A pure rule returns last round's answer when neither v nor any
        // neighbor changed, and last round's answer was cur[v].
        if (round != 0 && !was_changed(v) &&
            std::none_of(row.begin(), row.end(), was_changed)) {
          continue;
        }
        nbrs.clear();
        for (const Vertex u : row) nbrs.push_back(cur.get(u));
        // The engine delivers neighbor colors as a sorted, sender-anonymous
        // multiset (InboxRef::multiset); reproduce it exactly.
        std::sort(nbrs.begin(), nbrs.end());
        const Color own = cur.get(v);
        const Color c = rule.step(own, nbrs);
        if (c != own) {
          next.set(v, c);
          ch |= bit;
        }
        if (rule.is_final(c)) lw &= ~bit;
      }
      live[w] = lw;
      now[w] = ch;
      any_live |= lw;
    }
    shard_live[s] = any_live != 0 ? 1 : 0;
  };

  // Apply phase: copy this round's changes into cur, own words only.
  const std::function<void(std::size_t)> apply = [&](std::size_t s) {
    const std::vector<std::uint64_t>& now = changed[round & 1];
    for (std::size_t w = first_word[s]; w < first_word[s + 1]; ++w) {
      for (std::uint64_t rest = now[w]; rest != 0; rest &= rest - 1) {
        const std::size_t v = w * 64 + std::countr_zero(rest);
        cur.set(v, next.get(v));
      }
    }
  };

  std::unique_ptr<exec::ThreadPool> pool;
  if (shards > 1) pool = std::make_unique<exec::ThreadPool>(shards);
  auto run_phase = [&](const std::function<void(std::size_t)>& phase) {
    if (pool) {
      pool->run(shards, phase);
    } else {
      phase(0);
    }
  };
  bool done = std::all_of(live.begin(), live.end(),
                          [](std::uint64_t w) { return w == 0; });
  while (!done && round < max_rounds) {
    run_phase(compute);
    run_phase(apply);
    ++round;
    done = std::all_of(shard_live.begin(), shard_live.end(),
                       [](std::uint8_t f) { return f == 0; });
  }
  res.rounds = round;
  res.converged = done;

  res.colors.resize(n);
  for (std::size_t v = 0; v < n; ++v) res.colors[v] = cur.get(v);
  return res;
}

FlatResult color_delta_plus_one_flat(graph::GraphView g,
                                     const FlatOptions& opts) {
  const std::size_t n = g.n();
  const std::size_t delta = g.max_degree();
  FlatResult total;
  total.converged = true;

  auto fold = [&total](const FlatResult& stage) {
    total.rounds += stage.rounds;
    total.converged = total.converged && stage.converged;
    total.state_bytes = std::max(total.state_bytes, stage.state_bytes);
  };

  // Stage 1: Linial — identical parameterization to the engine pipeline's
  // run_linial (id_space_factor 1) and coloring::linial_color's lift + cap.
  std::vector<Color> colors = coloring::identity_coloring(n);
  const std::uint64_t id_space = std::max<std::uint64_t>(n, 1);
  const coloring::LinialSchedule sched(id_space, delta);
  if (sched.stages() > 0) {
    const std::uint64_t top = sched.offset(sched.stages());
    for (Color& c : colors) c += top;
    const coloring::LinialRule rule(sched);
    FlatResult lin = run_flat(g, std::move(colors), rule, sched.total_span(),
                              sched.stages() + 2, opts);
    colors = std::move(lin.colors);
    total.rounds_linial = lin.rounds;
    fold(lin);
  }

  // Stage 2: AG — modulus sized to the Linial palette, <= q + 2 rounds.
  {
    const Color k = graph::max_color(colors) + 1;
    const coloring::AgRule rule(coloring::ag_modulus(delta, k));
    const std::uint64_t span = std::max<std::uint64_t>(rule.q() * rule.q(), k);
    FlatResult ag =
        run_flat(g, std::move(colors), rule, span, rule.q() + 2, opts);
    colors = std::move(ag.colors);
    total.rounds_core = ag.rounds;
    fold(ag);
  }

  // Stage 3: greedy finish down to Delta + 1 colors.
  {
    const Color k = graph::max_color(colors) + 1;
    const std::uint64_t target = delta + 1;
    const coloring::GreedyReduceRule rule(target,
                                          std::max<std::uint64_t>(k, target));
    const std::size_t cap =
        k > target ? static_cast<std::size_t>(k - target) + 1 : 1;
    FlatResult red = run_flat(g, std::move(colors), rule,
                              std::max<std::uint64_t>(k, target), cap, opts);
    colors = std::move(red.colors);
    total.rounds_finish = red.rounds;
    fold(red);
  }

  total.colors = std::move(colors);
  total.palette = graph::palette_size(total.colors);
  total.proper = graph::is_proper_coloring(g, total.colors);
  return total;
}

}  // namespace agc::scale
