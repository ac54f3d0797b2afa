// Workload service-churn: svc::Service on gnp:4000,0.002 under the seeded
// svc::Workload mix (~65% mutations, ~35% queries), closed loop: each epoch
// 256 simulated clients submit one op each from the main thread and wait
// for the reply (Service::drain), so the next epoch starts only after every
// reply is in.  One thread.  A run replays the same 1000 epochs on a fresh
// service until its window is used up.
//
// Every epoch is gated: no op rejected, every query answered with the color
// the service then holds, and Service::colors() proper on Service::graph().
// Latency percentiles are exact, from each op's OpResult::latency_ns.
//
// The traced run feeds two services the same op stream with their epochs
// alternating: one untraced, one with a span around every Workload::next,
// Service::submit and Service::drain call (tracing overhead).  Both must end
// with the same colors.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "agc/graph/checks.hpp"
#include "agc/graph/spec.hpp"
#include "agc/svc/service.hpp"
#include "agc/svc/workload.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using agc::graph::Color;
using agc::svc::Op;
using agc::svc::OpKind;
using agc::svc::OpResult;
using agc::svc::OpStatus;
using agc::svc::Service;

constexpr std::size_t kClients = 256;

struct Loop {
  std::uint64_t epochs = 0;
  std::vector<std::uint64_t> latency_ns;  ///< one per completed op
  std::vector<double> epoch_s;            ///< Service::drain wall time per epoch
  double wall_s = 0;                      ///< whole epochs, generator and checks included
  std::uint64_t mutations = 0;
  std::uint64_t live_rounds = 0;          ///< sum over epochs of live n x repair rounds
};

/// Closed-loop epochs against one service: kClients ops generated and
/// submitted, then drained; every op and every epoch is gated.
class EpochLoop {
 public:
  EpochLoop(Service& svc, const agc::svc::WorkloadSpec& ws, Tracer& tr, Outcome& out)
      : svc_(svc), gen_(svc, ws), tr_(tr), out_(out) {}

  void epoch() {
    const Stopwatch wall;
    const auto ep = tr_.span("perfbench.epoch");
    std::uint64_t first_id = 0;
    for (std::size_t i = 0; i < kClients; ++i) {
      {
        const auto sp = tr_.span("load.Workload::next");
        batch_[i] = gen_.next();
      }
      const auto sp = tr_.span("svc.Service::submit");
      const std::uint64_t id = svc_.submit(batch_[i]);
      if (i == 0) first_id = id;
    }
    const std::uint64_t rounds_before = svc_.stats().repair_rounds;
    std::vector<OpResult> results;
    {
      const auto sp = tr_.span("svc.Service::drain");
      const Stopwatch w;
      results = svc_.drain();
      loop_.epoch_s.push_back(w.seconds());
    }
    ++loop_.epochs;
    loop_.live_rounds += svc_.live_vertices() * (svc_.stats().repair_rounds - rounds_before);

    const std::vector<Color> colors = svc_.colors();
    for (const OpResult& r : results) {
      const std::uint64_t idx = r.op_id - first_id;
      bool ok = r.status == OpStatus::Ok && idx < kClients && r.kind == batch_[idx].kind;
      if (ok && r.kind == OpKind::QueryColor) {
        ok = batch_[idx].u < colors.size() && r.value == colors[batch_[idx].u];
      }
      if (ok && r.kind != OpKind::QueryColor) ++loop_.mutations;
      loop_.latency_ns.push_back(r.latency_ns);
      out_.op(ok, "service-churn: op " + std::to_string(r.op_id) +
                      " was rejected or answered with a color the service does not hold");
    }
    out_.require(results.size() == kClients,
                 "service-churn: an epoch returned fewer replies than ops submitted");
    {
      const auto sp = tr_.span("graph.is_proper_coloring");
      out_.require(agc::graph::is_proper_coloring(svc_.graph(), colors),
                   "service-churn: Service::colors() is not proper after epoch " +
                       std::to_string(loop_.epochs));
    }
    loop_.wall_s += wall.seconds();
  }

  /// End-of-run gate; returns the loop's record.
  const Loop& finish() {
    out_.require(svc_.stats().rejected == 0 && svc_.stats().legality_violations == 0,
                 "service-churn: the service rejected ops or missed legality");
    return loop_;
  }

 private:
  Service& svc_;
  agc::svc::Workload gen_;
  Tracer& tr_;
  Outcome& out_;
  std::vector<Op> batch_ = std::vector<Op>(kClients);
  Loop loop_;
};

std::string gnp_spec(std::uint64_t n, double p, std::uint64_t seed) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "gnp:n=%" PRIu64 ",p=%.17g,seed=%" PRIu64, n, p, seed);
  return buf;
}

}  // namespace

Outcome run_service_churn(const Args& a, Tracer& tr) {
  Outcome out;
  agc::svc::ServiceConfig cfg;
  cfg.spec = agc::graph::GraphSpec::parse(
      a.tiny ? gnp_spec(500, 0.01, a.graph_seed) : gnp_spec(4000, 0.002, a.graph_seed));
  cfg.epoch_batch = kClients;
  const std::size_t replay_epochs = a.tiny ? 20 : 1000;
  agc::svc::WorkloadSpec ws;
  ws.seed = a.seed;
  ws.ops = UINT64_MAX;  // the loop, not the generator, ends the run
  ws.clients = kClients;

  // Set-up: Service construction (graph build plus initial stabilization),
  // several times; the last service serves the run.
  std::unique_ptr<Service> svc;
  std::vector<double> setup_s;
  for (int i = 0; i < 31; ++i) {
    svc.reset();
    const auto sp = tr.span("svc.Service::Service");
    const Stopwatch w;
    svc = std::make_unique<Service>(cfg);
    setup_s.push_back(w.seconds());
  }
  const double m0 = static_cast<double>(svc->graph().m());
  out.stamp("threads", 1.0);
  out.stamp("graph", cfg.spec.to_string());
  out.stamp("n", static_cast<double>(svc->graph().n()));
  out.stamp("m", m0);
  out.stamp("delta", static_cast<double>(svc->graph().max_degree()));
  out.stamp("csr_bytes_est", static_cast<double>(cfg.spec.estimated_bytes()));
  out.stamp("llc_bytes", static_cast<double>(llc_bytes()));
  out.stamp("clients", static_cast<double>(kClients));
  out.stamp("replay_epochs", static_cast<double>(replay_epochs));

  auto stamp_latency = [&](const Loop& loop) {
    std::vector<std::uint64_t> sorted = loop.latency_ns;
    std::sort(sorted.begin(), sorted.end());
    const auto [tail_pct, tail_ns] = tail_sorted(sorted);
    out.stamp("epochs", static_cast<double>(loop.epoch_s.size()));
    out.stamp("op_samples", static_cast<double>(sorted.size()));
    out.stamp("op_tail_pct", tail_pct);
    out.stamp("op_tail_ms", static_cast<double>(tail_ns) * 1e-6);
    return sorted;
  };

  Tracer off(false, 0);
  if (!tr.enabled()) {
    // The service slows down as churn densifies its graph, so a run does not
    // just serve until the window closes, which would let a faster program
    // reach a slower state.  It replays the same replay_epochs epochs on a
    // fresh service until the window is used up, and every replay must end
    // with the first one's repair rounds and colors.
    Loop all;
    std::uint64_t rounds = 0;
    double rss_mb = 0;
    std::vector<Color> colors;
    std::size_t replays = 0;
    const Stopwatch window;
    do {
      if (replays > 0) {
        svc.reset();
        svc = std::make_unique<Service>(cfg);
      }
      EpochLoop d(*svc, ws, off, out);
      for (std::size_t e = 0; e < replay_epochs; ++e) d.epoch();
      const Loop& loop = d.finish();
      if (replays++ == 0) {
        rounds = svc->stats().repair_rounds;
        rss_mb = peak_rss_mb();
        colors = svc->colors();
      }
      out.require(svc->stats().repair_rounds == rounds && svc->colors() == colors,
                  "service-churn: a replay of the epochs differs from the first");
      all.latency_ns.insert(all.latency_ns.end(), loop.latency_ns.begin(),
                            loop.latency_ns.end());
      all.epoch_s.insert(all.epoch_s.end(), loop.epoch_s.begin(), loop.epoch_s.end());
      all.wall_s += loop.wall_s;
    } while (window.seconds() < a.seconds);

    out.stamp("replays", static_cast<double>(replays));
    const auto sorted = stamp_latency(all);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("color_s", median(all.epoch_s), "s");
    out.metric("rounds", static_cast<double>(rounds), "count");
    out.metric("peak_rss_mb", rss_mb, "MiB");
    out.metric("ops_per_s", static_cast<double>(sorted.size()) / all.wall_s, "1/s");
    out.metric("op_p50_ms", static_cast<double>(percentile_sorted(sorted, 500'000)) * 1e-6, "ms");
    out.metric("op_p99_ms", static_cast<double>(tail_sorted(sorted, 990'000).second) * 1e-6, "ms");
    return out;
  }

  // Traced run: the graph layer alone (the build the service does inside its
  // constructor), then two services fed the same op stream, epochs
  // alternating, one untraced and one with a span around every call and the
  // phase timers on, so a slow spell of the host hits both alike.
  std::vector<double> build_s;
  for (int i = 0; i < 3; ++i) {
    const auto sp = tr.span("graph.GraphSpec::build");
    const Stopwatch w;
    const auto g = cfg.spec.build();
    build_s.push_back(w.seconds());
  }
  cfg.run.collect_phase_times = true;
  Service traced_svc(cfg);
  const auto msgs0 = traced_svc.report().metrics;
  EpochLoop untraced(*svc, ws, off, out);
  EpochLoop traced(traced_svc, ws, tr, out);
  for (std::size_t e = 0; e < replay_epochs; ++e) {
    untraced.epoch();
    traced.epoch();
  }
  const Loop& base = untraced.finish();
  const Loop& loop = traced.finish();
  stamp_latency(loop);
  out.require(traced_svc.colors() == svc->colors(),
              "service-churn: the traced replay ended with different colors");
  const auto& st = traced_svc.stats();
  const auto report = traced_svc.report();
  const auto& msgs = report.metrics;

  const double pump_s = tr.total_s("svc.Service::drain");
  const double submit_s = tr.total_s("svc.Service::submit");
  const double gen_s = tr.total_s("load.Workload::next");
  const double epochs = static_cast<double>(st.epochs);
  const double repair = static_cast<double>(st.repair_rounds);
  out.metric("graph.build_s", median(build_s), "s");
  out.metric("graph.build_edges_per_s", m0 / median(build_s), "1/s");
  out.metric("graph.verify_s", tr.total_s("graph.is_proper_coloring"), "s");
  out.metric("runtime.messages", static_cast<double>(msgs.messages - msgs0.messages), "count");
  out.metric("runtime.total_bits", static_cast<double>(msgs.total_bits - msgs0.total_bits),
             "count");
  // Service::report() carries no phase timings today (README, known gaps);
  // emit them once it does.
  if (!report.phases.empty()) {
    using agc::obs::Phase;
    const auto& ph = report.phases;
    out.metric("runtime.send_s", static_cast<double>(ph.phase_ns(Phase::Send)) * 1e-9, "s");
    out.metric("runtime.deliver_s", static_cast<double>(ph.phase_ns(Phase::Deliver)) * 1e-9, "s");
    out.metric("runtime.receive_s", static_cast<double>(ph.phase_ns(Phase::Receive)) * 1e-9, "s");
    out.metric("runtime.check_s", static_cast<double>(ph.phase_ns(Phase::Check)) * 1e-9, "s");
  }
  out.metric("svc.pump_s", pump_s, "s");
  out.metric("svc.submit_s", submit_s, "s");
  out.metric("svc.epochs", epochs, "count");
  out.metric("svc.repair_rounds", repair, "count");
  out.metric("svc.rounds_per_epoch", repair / epochs, "count");
  out.metric("svc.us_per_repair_round", repair == 0 ? 0.0 : pump_s * 1e6 / repair, "us");
  out.metric("svc.adjusted_per_epoch", static_cast<double>(st.adjusted_total) / epochs, "count");
  out.metric("svc.adjusted_frac",
             loop.live_rounds == 0 ? 0.0
                                   : static_cast<double>(st.adjusted_total) /
                                         static_cast<double>(loop.live_rounds),
             "ratio");
  out.metric("svc.rejected", static_cast<double>(st.rejected), "count");
  out.metric("svc.legality_violations", static_cast<double>(st.legality_violations), "count");
  out.metric("svc.mut_per_s", static_cast<double>(loop.mutations) / loop.wall_s, "1/s");
  out.metric("load.gen_s", gen_s, "s");
  out.metric("trace.untraced_color_s", base.wall_s, "s");
  out.metric("trace.color_s", loop.wall_s, "s");
  out.metric("trace.overhead_s", loop.wall_s - base.wall_s, "s");
  out.metric("trace.stage_sum_frac", (pump_s + submit_s + gen_s) / loop.wall_s, "ratio");
  return out;
}

}  // namespace perfbench
