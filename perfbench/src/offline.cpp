// offline-paper: paper Algorithm 1 through core::run_batch_isolated.
//
// A seeded 600-row AMR-shaped dataset (tests/synthetic_dataset.hpp) goes
// through the CSV loader, then RGMA and the memory-blind RandGoodness run
// nInit = 50, n_test = 200 trajectories with the bench recipe's fit effort
// (refit on every iteration). The refit owns most of the time here and θ
// moves on every pass, so the candidate panel is rebuilt on every sweep.

#include <cstdio>
#include <memory>
#include <mutex>

#include "alamr/core/batch.hpp"
#include "alamr/data/csv.hpp"
#include "alamr/data/transforms.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/gp/kernels.hpp"
#include "alamr/linalg/cholesky.hpp"
#include "bench_common.hpp"
#include "common.hpp"
#include "synthetic_dataset.hpp"

namespace perfbench {
namespace {

using namespace alamr;

constexpr std::size_t kRows = 600;
constexpr std::size_t kInit = 50;
constexpr std::size_t kIterations = 60;
constexpr std::size_t kTrajectoriesPerLane = 4;
constexpr std::size_t kSetupReps = 9;

/// What one decorated clone saw: the lane it ran on was busy from clone()
/// to destruction; the gaps between successive select() calls of one
/// trajectory are its AL step latencies.
struct LaneSink {
  std::mutex mutex;
  std::vector<double> lane_busy_s;
  std::vector<double> step_s;

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex);
    lane_busy_s.clear();
    step_s.clear();
  }
};

/// Forwards every call to the wrapped strategy and timestamps it. The
/// batch runner clones the strategy once per lane chunk and destroys the
/// clone when the chunk ends, which brackets the lane's busy time.
class TimedStrategy final : public core::Strategy {
 public:
  TimedStrategy(std::unique_ptr<core::Strategy> inner, LaneSink& sink)
      : inner_(std::move(inner)), sink_(sink), born_(Clock::now()) {}
  TimedStrategy(const TimedStrategy&) = delete;
  TimedStrategy& operator=(const TimedStrategy&) = delete;
  ~TimedStrategy() override {
    if (!is_clone_) return;
    const std::lock_guard<std::mutex> lock(sink_.mutex);
    sink_.lane_busy_s.push_back(seconds_since(born_));
    sink_.step_s.insert(sink_.step_s.end(), steps_.begin(), steps_.end());
  }

  std::string name() const override { return inner_->name(); }
  bool needs_mean() const noexcept override { return inner_->needs_mean(); }

  std::optional<std::size_t> select(const core::CandidateView& candidates,
                                    stats::Rng& rng) const override {
    const Clock::time_point now = Clock::now();
    // Active shrinks by one per iteration; a larger pool is a new trajectory.
    if (candidates.size() < last_size_) {
      steps_.push_back(seconds_between(last_select_, now));
    }
    last_size_ = candidates.size();
    last_select_ = now;
    return inner_->select(candidates, rng);
  }

  std::unique_ptr<core::Strategy> clone() const override {
    auto copy = std::make_unique<TimedStrategy>(inner_->clone(), sink_);
    copy->is_clone_ = true;
    return copy;
  }

 private:
  std::unique_ptr<core::Strategy> inner_;
  LaneSink& sink_;
  Clock::time_point born_;
  bool is_clone_ = false;
  mutable std::size_t last_size_ = 0;
  mutable Clock::time_point last_select_;
  mutable std::vector<double> steps_;
};

std::uint64_t trajectory_digest(const core::TrajectoryResult& t) {
  core::trace::Fingerprint fp;
  fp.add(t.strategy_name).add(t.trace.fingerprint);
  fp.add(static_cast<std::uint64_t>(t.stop_reason)).add(t.early_stopped);
  fp.add(t.initial_rmse_cost).add(t.initial_rmse_mem);
  for (const core::IterationRecord& r : t.iterations) {
    fp.add(static_cast<std::uint64_t>(r.dataset_row));
    fp.add(r.predicted_cost_log10).add(r.predicted_cost_sigma);
    fp.add(r.predicted_mem_log10).add(r.predicted_mem_sigma);
    fp.add(r.rmse_cost).add(r.rmse_mem).add(r.rmse_cost_weighted);
    fp.add(r.cumulative_cost).add(r.cumulative_regret);
  }
  return fp.value();
}

/// One pass: a fresh seeded dataset loaded through the CSV reader, a
/// simulator over it (the set-up), then one run_batch_isolated call per arm
/// (RGMA and the memory-blind RandGoodness). Pass k of a run is the same
/// for every run with the same seed; a run measures as many passes as fit
/// in its time, so each run averages over several datasets.
struct Pass {
  double setup_s = 0.0;
  double csv_write_s = 0.0, csv_read_s = 0.0, csv_bytes = 0.0;
  double wall_s = 0.0;  // the batch calls only
  std::size_t steps = 0;
  std::size_t trajectories = 0;
  std::size_t failed = 0;
  std::vector<std::uint64_t> digests;  // per slot, arms concatenated
  std::vector<core::BatchTrajectory> slots;  // the slots that completed
  std::unique_ptr<core::AlSimulator> sim;
};

Pass run_pass(std::uint64_t seed, std::size_t index, const std::filesystem::path& csv,
              LaneSink& sink, std::size_t trajectories, std::size_t lanes) {
  Pass pass;
  const std::uint64_t s = derive_seed(seed, index);
  // Set-up is a few milliseconds: repeated so its median is steady.
  std::vector<double> write_s, read_s;
  pass.setup_s = median_seconds(kSetupReps, [&] {
    const data::Dataset generated = testing::synthetic_amr_dataset(kRows, s);
    Clock::time_point t0 = Clock::now();
    data::write_csv(generated, csv);
    write_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const data::Dataset loaded = data::read_csv(csv);
    read_s.push_back(seconds_since(t0));
    pass.sim = std::make_unique<core::AlSimulator>(
        loaded, bench::al_options(kInit, kIterations));
  });
  pass.csv_write_s = median(write_s);
  pass.csv_read_s = median(read_s);
  pass.csv_bytes = static_cast<double>(std::filesystem::file_size(csv));

  const core::Rgma rgma(pass.sim->memory_limit_log10());
  const core::RandGoodness blind;
  const core::Strategy* arms[] = {&rgma, &blind};
  const Clock::time_point start = Clock::now();
  for (std::size_t a = 0; a < 2; ++a) {
    const TimedStrategy timed(arms[a]->clone(), sink);
    core::BatchOptions batch;
    batch.trajectories = trajectories;
    batch.threads = lanes;
    batch.seed = s + 1 + a;
    std::vector<core::BatchTrajectory> slots =
        core::run_batch_isolated(*pass.sim, timed, batch);
    for (core::BatchTrajectory& slot : slots) {
      ++pass.trajectories;
      if (!slot.ok) {
        ++pass.failed;
        pass.digests.push_back(0);
        std::fprintf(stderr, "offline-paper: %s trajectory failed: %s\n",
                     arms[a]->name().c_str(), slot.error.c_str());
        continue;
      }
      pass.steps += slot.result.iterations.size();
      pass.digests.push_back(trajectory_digest(slot.result));
      pass.slots.push_back(std::move(slot));
    }
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

void check_trajectory(Result& out, const core::TrajectoryResult& t) {
  bool finite = std::isfinite(t.initial_rmse_cost) &&
                std::isfinite(t.initial_rmse_mem);
  bool monotone = true;
  bool regret_bounded = true;
  double previous_cc = 0.0;
  for (const core::IterationRecord& r : t.iterations) {
    finite = finite && std::isfinite(r.rmse_cost) && std::isfinite(r.rmse_mem);
    monotone = monotone && r.cumulative_cost >= previous_cc;
    regret_bounded = regret_bounded && r.cumulative_regret <= r.cumulative_cost;
    previous_cc = r.cumulative_cost;
  }
  out.check(!t.iterations.empty() ||
                t.stop_reason == core::StopReason::kNoSafeCandidates,
            "offline-paper: trajectory ended before its first iteration");
  out.check(finite, "offline-paper: non-finite RMSE");
  out.check(monotone, "offline-paper: cumulative cost decreased");
  out.check(regret_bounded, "offline-paper: cumulative regret exceeds cost");
}

/// Times the gp / opt / linalg calls the refit is made of, on a finished
/// trajectory's training set (Init rows plus every learned row). Each
/// figure is the median of several calls.
struct Probe {
  double refit_s = 0.0;
  double lml_value_s = 0.0;
  double lml_grad_s = 0.0;
  double chol_s = 0.0;
  double inverse_s = 0.0;
  double n = 0.0;
};

Probe probe_refit(const core::AlSimulator& sim, const core::TrajectoryResult& t,
                  std::uint64_t seed) {
  constexpr std::size_t kReps = 5;
  std::vector<std::size_t> rows = t.partition.init;
  for (const core::IterationRecord& r : t.iterations) {
    if (r.censor == core::CensorKind::kNone) rows.push_back(r.dataset_row);
  }
  const data::Dataset& ds = sim.dataset();
  const data::FeatureScaler scaler = data::FeatureScaler::fit(ds.x);
  const linalg::Matrix x = scaler.transform(ds.design_subset(rows));
  const std::span<const std::size_t> head(rows.data(), rows.size() - 1);
  std::vector<double> y;
  for (const std::size_t row : rows) y.push_back(std::log10(ds.cost[row]));

  // The last AL step's refit: the model converged on all rows but the
  // last, then one warm fit with the refit options on all of them.
  const core::AlOptions& options = sim.options();
  stats::Rng rng(seed);
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options.initial_fit);
  gpr.fit(scaler.transform(ds.design_subset(head)),
          std::span<const double>(y).first(head.size()), rng);
  gpr.set_options(options.refit);
  const std::vector<double> warm = gpr.kernel().log_params();

  Probe p;
  p.n = static_cast<double>(rows.size());
  p.refit_s = median_seconds(kReps, [&] {
    gpr.set_kernel_log_params(warm);
    gpr.fit(x, y, rng);
  });
  const std::vector<double> theta = gpr.kernel().log_params();
  std::vector<double> grad(theta.size());
  volatile double sink = 0.0;
  p.lml_value_s = median_seconds(
      kReps, [&] { sink = gpr.log_marginal_likelihood(theta, {}); });
  p.lml_grad_s = median_seconds(
      kReps, [&] { sink = gpr.log_marginal_likelihood(theta, grad); });
  gpr.set_kernel_log_params(theta);
  const linalg::Matrix k = gpr.kernel().gram(x);
  std::optional<linalg::CholeskyFactor> factor;
  p.chol_s = median_seconds(kReps, [&] { factor = linalg::CholeskyFactor::factor(k); });
  if (factor) {
    p.inverse_s = median_seconds(kReps, [&] { sink = factor->inverse()(0, 0); });
  }
  (void)sink;
  return p;
}

struct PhaseTotals {
  double init = 0, predict = 0, select = 0, reveal = 0, refit = 0, rmse = 0;
  double sum() const { return init + predict + select + reveal + refit + rmse; }
};

PhaseTotals phase_totals(const std::vector<core::BatchTrajectory>& slots) {
  const auto total = [](const core::trace::TraceReport& r, const char* name) {
    const core::trace::PhaseStats* s = r.phase(name);
    return s == nullptr ? 0.0 : s->total_seconds;
  };
  PhaseTotals p;
  for (const core::BatchTrajectory& slot : slots) {
    const core::trace::TraceReport& r = slot.result.trace;
    p.init += total(r, "init");
    p.predict += total(r, "predict");
    p.select += total(r, "select");
    p.reveal += total(r, "reveal");
    p.refit += total(r, "refit");
    p.rmse += total(r, "rmse");
  }
  return p;
}

std::uint64_t counter_sum(const std::vector<core::BatchTrajectory>& slots,
                          const char* name) {
  std::uint64_t total = 0;
  for (const core::BatchTrajectory& slot : slots) {
    total += slot.result.trace.counter(name);
  }
  return total;
}

std::uint64_t counter_max(const std::vector<core::BatchTrajectory>& slots,
                          const char* name) {
  std::uint64_t most = 0;
  for (const core::BatchTrajectory& slot : slots) {
    most = std::max(most, slot.result.trace.counter(name));
  }
  return most;
}

/// Whole passes until `seconds` of batch time have elapsed.
struct Timed {
  std::vector<Pass> passes;
  double wall_s = 0.0;
  std::size_t steps = 0;
  std::vector<double> setup_s;
  std::vector<double> step_s;
  std::vector<double> lane_busy_s;
};

Timed timed_passes(Result& out, std::uint64_t seed,
                   const std::filesystem::path& csv, LaneSink& sink,
                   std::size_t trajectories, std::size_t lanes, double seconds) {
  Timed t;
  sink.clear();
  while (t.passes.empty() || t.wall_s < seconds) {
    Pass pass = run_pass(seed, t.passes.size(), csv, sink, trajectories, lanes);
    out.attempted += pass.trajectories;
    out.failed += pass.failed;
    for (const core::BatchTrajectory& slot : pass.slots) {
      check_trajectory(out, slot.result);
    }
    t.wall_s += pass.wall_s;
    t.steps += pass.steps;
    t.setup_s.push_back(pass.setup_s);
    t.passes.push_back(std::move(pass));
  }
  t.step_s = sink.step_s;
  t.lane_busy_s = sink.lane_busy_s;
  return t;
}

}  // namespace

Result run_offline(const Args& args) {
  Result out;
  const std::size_t lanes = host_lanes();
  const std::size_t trajectories = kTrajectoriesPerLane * lanes;
  ScratchDir scratch("offline-paper");
  const std::filesystem::path csv = scratch.path() / "dataset.csv";
  LaneSink sink;

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const Timed timed =
      timed_passes(out, args.seed, csv, sink, trajectories, lanes, budget);
  const Pass& first = timed.passes.front();

  // Quality of the first pass, which every run with this seed makes.
  double rmse_cost = 0.0, rmse_mem = 0.0, cr = 0.0;
  for (const core::BatchTrajectory& slot : first.slots) {
    const core::TrajectoryResult& t = slot.result;
    // RGMA may stop before its first pick (no candidate predicted safe):
    // the final models are then the Init fit and nothing was spent.
    const bool empty = t.iterations.empty();
    rmse_cost += empty ? t.initial_rmse_cost : t.iterations.back().rmse_cost;
    rmse_mem += empty ? t.initial_rmse_mem : t.iterations.back().rmse_mem;
    cr += empty ? 0.0 : t.iterations.back().cumulative_regret;
  }
  const double ok_slots = std::max<double>(1.0, static_cast<double>(first.slots.size()));

  // Repeat at 1 lane, outside the timed region: the first slot of each arm
  // of the first pass must reproduce its all-lane records.
  {
    const Pass single = run_pass(args.seed, 0, csv, sink, 1, 1);
    out.check(single.failed == 0 && single.digests.size() == 2 &&
                  first.digests.size() == 2 * trajectories &&
                  single.digests[0] == first.digests[0] &&
                  single.digests[1] == first.digests[trajectories],
              "offline-paper: 1-lane records differ from all-lane records");
  }

  const double steps_per_s = static_cast<double>(timed.steps) / timed.wall_s;
  out.metrics.push_back({"setup_s", median(timed.setup_s), "s"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  out.metrics.push_back({"throughput", steps_per_s, "1/s"});
  out.metrics.push_back({"latency_ms.p50", 1e3 * quantile(timed.step_s, 0.5), "ms"});
  out.metrics.push_back({"latency_ms.p90", 1e3 * quantile(timed.step_s, 0.9), "ms"});
  out.metrics.push_back({"offline.steps_per_s", steps_per_s, "1/s"});
  out.metrics.push_back({"offline.step_ms.samples",
                         static_cast<double>(timed.step_s.size()), "count"});
  out.metrics.push_back({"offline.passes", static_cast<double>(timed.passes.size()), "count"});
  out.metrics.push_back({"offline.rmse_cost_final", rmse_cost / ok_slots, "node-hours"});
  out.metrics.push_back({"offline.rmse_mem_final", rmse_mem / ok_slots, "MB"});
  out.metrics.push_back({"offline.cr_final", cr / ok_slots, "node-hours"});

  if (!args.trace) return out;

  // Traced run: the same passes again with the trace layer on. Their
  // records must equal the untraced ones.
  core::trace::set_enabled(true);
  const Timed traced = timed_passes(out, args.seed, csv, sink, trajectories,
                                    lanes, args.seconds / 2.0);
  core::trace::set_enabled(false);
  for (std::size_t i = 0; i < std::min(traced.passes.size(), timed.passes.size()); ++i) {
    out.check(traced.passes[i].digests == timed.passes[i].digests,
              "offline-paper: records differ between repeated passes");
  }
  const double traced_steps_per_s =
      static_cast<double>(traced.steps) / traced.wall_s;
  out.metrics.push_back({"trace.overhead.throughput",
                         traced_steps_per_s - steps_per_s, "1/s"});
  out.metrics.push_back({"trace.overhead.latency_ms.p50",
                         1e3 * (quantile(traced.step_s, 0.5) -
                                quantile(timed.step_s, 0.5)),
                         "ms"});

  const double per_pass = 1.0 / static_cast<double>(traced.passes.size());
  PhaseTotals phases;
  std::uint64_t fit_full = 0, fit_incr = 0, rebuilds = 0, sweeps = 0, jitter = 0,
                arena_peak = 0;
  for (const Pass& pass : traced.passes) {
    const PhaseTotals p = phase_totals(pass.slots);
    phases.init += p.init;
    phases.predict += p.predict;
    phases.select += p.select;
    phases.reveal += p.reveal;
    phases.refit += p.refit;
    phases.rmse += p.rmse;
    fit_full += counter_sum(pass.slots, "gpr.fit_full");
    fit_incr += counter_sum(pass.slots, "gpr.fit_incremental");
    rebuilds += counter_sum(pass.slots, "panel.rebuilds");
    sweeps += counter_sum(pass.slots, "predict.batch_calls");
    jitter += counter_sum(pass.slots, "cholesky.jitter_retries");
    arena_peak = std::max(arena_peak, counter_max(pass.slots, "arena.bytes_peak"));
  }
  const double lane_busy = sum(traced.lane_busy_s);
  out.metrics.push_back({"sim.refit_s", phases.refit * per_pass, "s"});
  out.metrics.push_back({"sim.predict_s", phases.predict * per_pass, "s"});
  out.metrics.push_back({"sim.init_s", phases.init * per_pass, "s"});
  out.metrics.push_back({"sim.rmse_s", phases.rmse * per_pass, "s"});
  out.metrics.push_back({"sim.select_s", phases.select * per_pass, "s"});
  out.metrics.push_back({"sim.reveal_s", phases.reveal * per_pass, "s"});
  out.metrics.push_back({"sim.refit_share", phases.refit / phases.sum(), "ratio"});
  const double coverage = lane_busy > 0.0 ? phases.sum() / lane_busy : 0.0;
  out.metrics.push_back({"sim.phase_coverage", coverage, "ratio"});
  out.metrics.push_back({"sim.phase_residue", 1.0 - coverage, "ratio"});
  out.metrics.push_back(
      {"batch.lane_idle_frac",
       1.0 - lane_busy / (static_cast<double>(lanes) * traced.wall_s), "ratio"});
  const double fits = static_cast<double>(fit_full + fit_incr);
  out.metrics.push_back({"gpr.fit_full", static_cast<double>(fit_full) * per_pass, "count"});
  out.metrics.push_back({"gpr.fit_incremental", static_cast<double>(fit_incr) * per_pass, "count"});
  out.metrics.push_back({"gpr.incremental_ratio",
                         fits > 0 ? static_cast<double>(fit_incr) / fits : 0.0, "ratio"});
  out.metrics.push_back({"panel.rebuilds", static_cast<double>(rebuilds) * per_pass, "count"});
  out.metrics.push_back({"predict.batch_calls", static_cast<double>(sweeps) * per_pass, "count"});
  out.metrics.push_back({"panel.resume_ratio",
                         sweeps > 0 ? 1.0 - static_cast<double>(rebuilds) /
                                                static_cast<double>(sweeps)
                                    : 0.0,
                         "ratio"});
  out.metrics.push_back({"cholesky.jitter_retries", static_cast<double>(jitter) * per_pass, "count"});
  out.metrics.push_back({"arena.bytes_peak", static_cast<double>(arena_peak), "B"});
  out.metrics.push_back({"data.csv_write_s", first.csv_write_s, "s"});
  out.metrics.push_back({"data.csv_read_s", first.csv_read_s, "s"});
  out.metrics.push_back({"data.csv_bytes", first.csv_bytes, "B"});

  // Scaling: the first pass at 1 lane against all lanes (untraced).
  {
    const Pass serial = run_pass(args.seed, 0, csv, sink, trajectories, 1);
    out.attempted += serial.trajectories;
    out.failed += serial.failed;
    out.check(serial.digests == first.digests,
              "offline-paper: 1-lane pass differs from all-lane pass");
    out.metrics.push_back({"batch.scaling_eff",
                           serial.wall_s / (static_cast<double>(lanes) * first.wall_s),
                           "ratio"});
  }

  // gp / opt / linalg probes on the first trajectory of each arm.
  Probe probe;
  const std::size_t probes = std::min<std::size_t>(2, first.slots.size());
  for (std::size_t i = 0; i < probes; ++i) {
    const std::size_t slot = i * (first.slots.size() / 2);
    const Probe p = probe_refit(*first.sim, first.slots[slot].result, args.seed + i);
    probe.refit_s += p.refit_s / probes;
    probe.lml_value_s += p.lml_value_s / probes;
    probe.lml_grad_s += p.lml_grad_s / probes;
    probe.chol_s += p.chol_s / probes;
    probe.inverse_s += p.inverse_s / probes;
    probe.n += p.n / probes;
  }
  out.metrics.push_back({"gp.refit_ms", 1e3 * probe.refit_s, "ms"});
  out.metrics.push_back({"opt.lml_value_ms", 1e3 * probe.lml_value_s, "ms"});
  out.metrics.push_back({"opt.lml_grad_ms", 1e3 * probe.lml_grad_s, "ms"});
  out.metrics.push_back({"linalg.chol_ms", 1e3 * probe.chol_s, "ms"});
  out.metrics.push_back({"linalg.inverse_ms", 1e3 * probe.inverse_s, "ms"});
  out.metrics.push_back(
      {"linalg.chol_flop", probe.n * probe.n * probe.n / 3.0, "flop"});
  out.metrics.push_back({"probe.train_rows", probe.n, "count"});
  return out;
}

}  // namespace perfbench
