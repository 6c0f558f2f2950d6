// serve-tenants: one core::SessionEngine serving kTenants concurrent
// tenants over amr::Campaign::full_grid() (the 1920-point 5-D grid).
//
// Closed loop with zero think time: every round each tenant asks for a
// suggestion, waits for the drain that answers it, runs the seeded
// analytic oracle and reports the observation in the next drain. A fixed
// share of tenants also queries the posterior each round, and every
// kEvictEvery rounds a fixed share is evicted to checkpoint frames and
// restored. A tenant whose AL budget is spent is finished and its slot
// opens a fresh session, so the mix of session ages (and with it the
// per-round work) stays the same however many rounds a run measures.
// First-generation budgets and Init sizes are staggered so that sessions
// do not end, or retrain, in step.

#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "alamr/amr/campaign.hpp"
#include "alamr/core/online.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/serve.hpp"
#include "alamr/stats/descriptive.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace alamr;

constexpr std::size_t kTenants = 256;
constexpr std::size_t kBudget = 40;       // AL iterations per session
constexpr std::size_t kStride = 8;        // observations between retrains
constexpr std::size_t kQueryEvery = 16;   // 1/16 of tenants query per round
constexpr std::size_t kQueryPoints = 8;
constexpr std::size_t kEvictEvery = 10;   // rounds between eviction waves
constexpr std::size_t kEvictShare = 32;   // 1/32 of the slots per wave

/// Sessions replayed after the timed region, all first-generation and on
/// the full budget. 9 (RGMA) and 31 (RandGoodness) retrain on every
/// observation, which is the OnlineAlDriver recipe, so a dedicated driver
/// must reproduce them byte for byte; 95 (MaxSigma) runs the serving stride
/// and must match a dedicated per-session-serial engine. 31 and 95 sit in
/// slots 30 and 94, which the second eviction wave (round 2 * kEvictEvery)
/// evicts and restores; neither strategy ends a session early.
constexpr core::SessionId kReplayIds[] = {9, 31, 95};

bool replayed(core::SessionId id) {
  return id == kReplayIds[0] || id == kReplayIds[1] || id == kReplayIds[2];
}

/// The analytic oracle: the synthetic dataset's cost and memory laws with
/// seeded coefficients and seeded, per-configuration log-normal noise (a
/// pure function of the features, so a replay measures the same values).
class Oracle {
 public:
  explicit Oracle(std::uint64_t seed) : seed_(seed) {
    stats::Rng rng(seed);
    mx_exponent_ = rng.uniform(2.6, 3.2);
    level_base_ = rng.uniform(6.0, 8.0);
    rho_weight_ = rng.uniform(0.0, 1.0);
    mem_scale_ = rng.uniform(2e-4, 6e-4);
  }

  std::pair<double, double> operator()(std::span<const double> f) const {
    const double p = f[0], mx = f[1], level = f[2], r0 = f[3], rhoin = f[4];
    const double work = std::pow(mx, mx_exponent_) * std::pow(level_base_, level) *
                        (0.5 + r0) * (1.0 + rho_weight_ * rhoin) * 1e-6;
    const double wallclock = 2.0 + work / p * std::exp(0.05 * noise(f, 1));
    const double cost = wallclock * p / 3600.0;
    const double memory = 0.2 + work * mem_scale_ / p * std::exp(0.02 * noise(f, 2));
    return {cost, memory};
  }

 private:
  /// Standard normal draw keyed by (seed, features, stream).
  double noise(std::span<const double> f, std::uint64_t stream) const {
    core::trace::Fingerprint fp;
    fp.add(seed_).add(stream);
    for (const double v : f) fp.add(v);
    stats::Rng rng(fp.value());
    return rng.normal(0.0, 1.0);
  }

  std::uint64_t seed_;
  double mx_exponent_, level_base_, rho_weight_, mem_scale_;
};

linalg::Matrix campaign_grid() {
  const std::vector<amr::Config> configs =
      amr::Campaign(amr::CampaignOptions{}).full_grid();
  linalg::Matrix grid(configs.size(), 5);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    grid(i, 0) = configs[i].p;
    grid(i, 1) = configs[i].mx;
    grid(i, 2) = configs[i].max_level;
    grid(i, 3) = configs[i].r0;
    grid(i, 4) = configs[i].rhoin;
  }
  return grid;
}

/// Everything generated from the seed: the grid, the oracle, the query
/// points, and each session's strategy and options (a pure function of
/// its id, so a replay can rebuild them).
struct Inputs {
  std::uint64_t seed = 0;
  linalg::Matrix grid;
  linalg::Matrix query_x;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<core::Rgma> rgma;
  core::RandGoodness goodness;
  core::MaxSigma sigma;
  std::filesystem::path checkpoint_dir;

  const core::Strategy& strategy(core::SessionId id) const {
    switch (id % 3) {
      case 0: return *rgma;
      case 1: return goodness;
      default: return sigma;
    }
  }

  core::SessionOptions options(core::SessionId id) const {
    core::SessionOptions o;
    o.al.n_init = 4 + id % kStride;
    // First-generation sessions (ids 1..kTenants) get staggered budgets.
    o.al.iterations = (id > kTenants || replayed(id))
                          ? kBudget
                          : 1 + (kBudget - 1) * (id - 1) / kTenants;
    o.al.memory_limit_log10 = rgma->memory_limit_log10();
    o.seed = derive_seed(seed, id);
    o.retrain_stride = (id == kReplayIds[0] || id == kReplayIds[1]) ? 1 : kStride;
    o.checkpoint = checkpoint_dir / ("tenant" + std::to_string(id) + ".ck");
    return o;
  }
};

Inputs make_inputs(std::uint64_t seed, const std::filesystem::path& dir) {
  Inputs in;
  in.seed = seed;
  in.checkpoint_dir = dir;
  in.grid = campaign_grid();
  in.oracle = std::make_unique<Oracle>(seed);
  std::vector<double> log_mem;
  for (std::size_t i = 0; i < in.grid.rows(); ++i) {
    log_mem.push_back(std::log10((*in.oracle)(in.grid.row(i)).second));
  }
  // The paper's limit rule: the median log10 memory response.
  in.rgma = std::make_unique<core::Rgma>(stats::quantile(log_mem, 0.5));
  stats::Rng rng(seed ^ 0x5151u);
  in.query_x = linalg::Matrix(kQueryPoints, in.grid.cols());
  for (std::size_t q = 0; q < kQueryPoints; ++q) {
    const std::size_t row = rng.uniform_index(in.grid.rows());
    for (std::size_t c = 0; c < in.grid.cols(); ++c) in.query_x(q, c) = in.grid(row, c);
  }
  return in;
}

struct Segment {
  double setup_s = 0.0;
  double open_s = 0.0;  // open_session for every tenant (last set-up rep)
  double wall_s = 0.0;
  std::size_t rounds = 0;
  std::size_t requests = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t sessions_finished = 0;
  std::size_t evictions = 0;
  std::size_t giveups = 0;
  std::vector<double> suggest_s;  // per round: first enqueue -> drain done
  std::vector<double> observe_s;
  double checkpoint_s = 0.0;      // evict + restore
  double checkpoint_bytes = 0.0;
  bool queries_finite = true;
  core::trace::TraceReport engine_trace;  // drain-level counters
  core::trace::TraceReport tenant_trace;  // summed session_trace()
  std::map<core::SessionId, core::OnlineResult> finished_replays;
  std::set<core::SessionId> evicted;
};

std::unique_ptr<core::SessionEngine> open_engine(const Inputs& in, double* open_s) {
  core::ServeOptions serve;
  serve.shards = 16;
  serve.retrain_workers = 1;
  auto engine = std::make_unique<core::SessionEngine>(serve);
  const Clock::time_point start = Clock::now();
  for (core::SessionId id = 1; id <= kTenants; ++id) {
    engine->open_session(id, in.grid, in.strategy(id), in.options(id));
  }
  *open_s = seconds_since(start);
  return engine;
}

void add_counters(core::trace::TraceReport& into, const core::trace::TraceReport& from) {
  for (const core::trace::CounterValue& c : from.counters) {
    auto it = std::find_if(into.counters.begin(), into.counters.end(),
                           [&](const core::trace::CounterValue& m) { return m.name == c.name; });
    if (it == into.counters.end()) {
      into.counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
}

Segment run_segment(const Inputs& in, double seconds) {
  Segment seg;
  std::filesystem::remove_all(in.checkpoint_dir);
  std::filesystem::create_directories(in.checkpoint_dir);
  std::unique_ptr<core::SessionEngine> engine;
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    engine.reset();  // teardown of the previous rep is not set-up
    const Clock::time_point setup_start = Clock::now();
    engine = open_engine(in, &seg.open_s);
    setups.push_back(seconds_since(setup_start));
  }
  seg.setup_s = median(setups);

  std::vector<core::SessionId> slot(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) slot[i] = i + 1;
  core::SessionId next_id = kTenants + 1;
  // A finished session's trace is folded in before its slot reopens.
  const auto retire = [&](std::size_t i) {
    const core::SessionId id = slot[i];
    add_counters(seg.tenant_trace, engine->session_trace(id));
    seg.giveups += engine->status(id).oracle_giveups;
    core::OnlineResult result = engine->finish_session(id);
    ++seg.sessions_finished;
    if (replayed(id)) seg.finished_replays.emplace(id, std::move(result));
    slot[i] = next_id++;
    engine->open_session(slot[i], in.grid, in.strategy(slot[i]), in.options(slot[i]));
  };

  core::trace::TraceCollector engine_collector;
  const core::trace::ScopedCollector collect(engine_collector);
  const Clock::time_point start = Clock::now();
  while (seg.rounds == 0 || seconds_since(start) < seconds) {
    const std::size_t round = seg.rounds++;
    // A session can be queried once its Init phase is complete.
    std::vector<std::size_t> queried;
    for (std::size_t i = (kQueryEvery - round % kQueryEvery) % kQueryEvery; i < kTenants;
         i += kQueryEvery) {
      if (engine->status(slot[i]).init_done >= in.options(slot[i]).al.n_init) {
        queried.push_back(i);
      }
    }
    const Clock::time_point suggest_start = Clock::now();
    for (std::size_t i = 0; i < kTenants; ++i) engine->enqueue_suggest(slot[i]);
    for (const std::size_t i : queried) engine->enqueue_query(slot[i], in.query_x);
    seg.attempted += kTenants + queried.size();
    try {
      seg.requests += engine->drain();
    } catch (const std::exception& e) {
      ++seg.failed;
      std::fprintf(stderr, "serve-tenants: suggest drain threw: %s\n", e.what());
    }
    seg.suggest_s.push_back(seconds_since(suggest_start));

    std::vector<std::pair<std::size_t, core::Suggestion>> answers;
    std::vector<std::size_t> finished;
    for (std::size_t i = 0; i < kTenants; ++i) {
      std::optional<core::Suggestion> s = engine->take_suggestion(slot[i]);
      if (!s) {
        ++seg.failed;
        finished.push_back(i);
      } else if (s->done) {
        finished.push_back(i);
      } else {
        answers.emplace_back(i, std::move(*s));
      }
    }
    for (const std::size_t i : queried) {
      const std::optional<core::QueryResult> q = engine->take_query_result(slot[i]);
      if (!q) {
        ++seg.failed;
        continue;
      }
      for (const gp::Prediction* p : {&q->cost, &q->memory}) {
        for (std::size_t k = 0; k < p->mean.size(); ++k) {
          seg.queries_finite = seg.queries_finite && std::isfinite(p->mean[k]) &&
                               std::isfinite(p->stddev[k]);
        }
      }
    }

    // The client runs every experiment, then reports them all at once.
    std::vector<std::pair<double, double>> measured;
    for (const auto& [i, s] : answers) measured.push_back((*in.oracle)(s.features));
    const Clock::time_point observe_start = Clock::now();
    for (std::size_t a = 0; a < answers.size(); ++a) {
      engine->enqueue_observe(slot[answers[a].first], measured[a].first, measured[a].second);
    }
    seg.attempted += answers.size();
    try {
      seg.requests += engine->drain();
    } catch (const std::exception& e) {
      ++seg.failed;
      std::fprintf(stderr, "serve-tenants: observe drain threw: %s\n", e.what());
    }
    seg.observe_s.push_back(seconds_since(observe_start));

    for (const std::size_t i : finished) retire(i);

    if ((round + 1) % kEvictEvery == 0) {
      const std::size_t wave = (round + 1) / kEvictEvery;
      const Clock::time_point evict_start = Clock::now();
      for (std::size_t i = 0; i < kTenants; ++i) {
        if ((i + wave) % kEvictShare != 0) continue;
        const core::SessionId id = slot[i];
        const core::SessionOptions o = in.options(id);
        ++seg.attempted;
        try {
          engine->evict_session(id);
          seg.checkpoint_bytes +=
              static_cast<double>(std::filesystem::file_size(o.checkpoint));
          engine->restore_session(id, in.grid, in.strategy(id), o);
          ++seg.evictions;
          seg.evicted.insert(id);
        } catch (const std::exception& e) {
          ++seg.failed;
          std::fprintf(stderr, "serve-tenants: evict/restore threw: %s\n", e.what());
        }
      }
      seg.checkpoint_s += seconds_since(evict_start);
    }
  }
  seg.wall_s = seconds_since(start);
  seg.engine_trace = engine_collector.report();
  for (const core::SessionId id : slot) {
    add_counters(seg.tenant_trace, engine->session_trace(id));
    seg.giveups += engine->status(id).oracle_giveups;
  }
  return seg;
}

bool same_records(const std::vector<core::OnlineRecord>& a,
                  const std::vector<core::OnlineRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].grid_row != b[i].grid_row || a[i].cost != b[i].cost ||
        a[i].memory != b[i].memory ||
        a[i].predicted_cost_log10 != b[i].predicted_cost_log10 ||
        a[i].predicted_mem_log10 != b[i].predicted_mem_log10 ||
        a[i].cumulative_cost != b[i].cumulative_cost ||
        a[i].cumulative_regret != b[i].cumulative_regret ||
        a[i].initial_phase != b[i].initial_phase) {
      return false;
    }
  }
  return true;
}

/// Replays one finished session outside the engine: through OnlineAlDriver
/// for the stride-1 sessions, through a dedicated per-session-serial engine
/// for the serving-stride one. True when the records are byte-identical.
bool replay_matches(const Inputs& in, core::SessionId id,
                    const core::OnlineResult& served) {
  core::SessionOptions options = in.options(id);
  options.checkpoint.clear();
  const auto oracle = [&in](std::span<const double> f) { return (*in.oracle)(f); };
  if (options.retrain_stride == 1) {
    core::OnlineAlDriver driver(in.grid, oracle, options.al);
    stats::Rng rng(options.seed);
    return same_records(driver.run(in.strategy(id), rng).records, served.records);
  }
  core::SessionEngine serial({.retrain_workers = 0, .coalesce = false});
  serial.open_session(id, in.grid, in.strategy(id), options);
  for (;;) {
    const core::Suggestion s = serial.suggest(id);
    if (s.done) break;
    const auto [cost, memory] = oracle(s.features);
    serial.observe(id, cost, memory);
  }
  return same_records(serial.finish_session(id).records, served.records);
}

void check_replays(Result& out, const Inputs& in, const Segment& seg) {
  std::vector<char> ok(std::size(kReplayIds), 0);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < std::size(kReplayIds); ++i) {
      const auto it = seg.finished_replays.find(kReplayIds[i]);
      if (it == seg.finished_replays.end()) continue;
      workers.emplace_back([&ok, &in, i, it] {
        try {
          ok[i] = replay_matches(in, kReplayIds[i], it->second) ? 1 : 0;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve-tenants: replay threw: %s\n", e.what());
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (std::size_t i = 0; i < std::size(kReplayIds); ++i) {
    const std::string id = std::to_string(kReplayIds[i]);
    out.check(seg.finished_replays.count(kReplayIds[i]) == 1,
              "serve-tenants: session " + id + " did not finish in the run");
    out.check(ok[i] != 0, "serve-tenants: session " + id +
                              " differs from its dedicated replay");
  }
  out.check(seg.evicted.count(kReplayIds[1]) == 1 && seg.evicted.count(kReplayIds[2]) == 1,
            "serve-tenants: the replayed sample holds no evicted session");
}

double ms(const std::vector<double>& s, double q) { return 1e3 * quantile(s, q); }

}  // namespace

Result run_serve(const Args& args) {
  Result out;
  // Drains run on the calling thread alone, beside the one retrain worker.
  // A drain fanned over every core waits for its slowest lane, so on a
  // shared host the round latency would measure the scheduler: on a 4-vCPU
  // VM the run-to-run spread of the p90 was 0.05 of its median at 1 lane
  // and 0.2-0.3 at 2 or 3 lanes.
  core::set_global_parallel_threads(1);

  ScratchDir scratch("serve-tenants");
  const Inputs in = make_inputs(args.seed, scratch.path() / "frames");

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const Segment seg = run_segment(in, budget);
  out.attempted += seg.attempted;
  out.failed += seg.failed;
  out.check(seg.queries_finite, "serve-tenants: non-finite posterior query");
  check_replays(out, in, seg);

  const double req_per_s = static_cast<double>(seg.requests) / seg.wall_s;
  out.metrics.push_back({"setup_s", seg.setup_s, "s"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  out.metrics.push_back({"throughput", req_per_s, "1/s"});
  out.metrics.push_back({"latency_ms.p50", ms(seg.suggest_s, 0.5), "ms"});
  out.metrics.push_back({"latency_ms.p90", ms(seg.suggest_s, 0.9), "ms"});
  out.metrics.push_back({"serve.req_per_s", req_per_s, "1/s"});
  out.metrics.push_back({"serve.suggest_ms.p50", ms(seg.suggest_s, 0.5), "ms"});
  out.metrics.push_back({"serve.suggest_ms.p90", ms(seg.suggest_s, 0.9), "ms"});
  out.metrics.push_back({"serve.observe_ms.p50", ms(seg.observe_s, 0.5), "ms"});
  out.metrics.push_back({"serve.observe_ms.p90", ms(seg.observe_s, 0.9), "ms"});
  out.metrics.push_back({"serve.rounds", static_cast<double>(seg.rounds), "count"});
  out.metrics.push_back({"serve.sessions_finished",
                         static_cast<double>(seg.sessions_finished), "count"});
  out.metrics.push_back({"serve.giveups", static_cast<double>(seg.giveups), "count"});

  if (!args.trace) return out;

  // Traced run: the same workload from a fresh engine with the trace on.
  core::trace::set_enabled(true);
  const Segment traced = run_segment(in, args.seconds / 2.0);
  core::trace::set_enabled(false);
  out.attempted += traced.attempted;
  out.failed += traced.failed;
  const double traced_req_per_s = static_cast<double>(traced.requests) / traced.wall_s;
  out.metrics.push_back({"trace.overhead.throughput", traced_req_per_s - req_per_s, "1/s"});
  out.metrics.push_back({"trace.overhead.latency_ms.p50",
                         ms(traced.suggest_s, 0.5) - ms(seg.suggest_s, 0.5), "ms"});

  const core::trace::TraceReport& tr = traced.tenant_trace;
  const core::trace::TraceReport& er = traced.engine_trace;
  const auto count = [](const core::trace::TraceReport& r, const char* name) {
    return static_cast<double>(r.counter(name));
  };
  const double per_round = 1.0 / static_cast<double>(traced.rounds);
  out.metrics.push_back({"serve.suggest_drain_s", sum(traced.suggest_s) * per_round, "s"});
  out.metrics.push_back({"serve.observe_drain_s", sum(traced.observe_s) * per_round, "s"});
  const double sweeps = count(er, "serve.batched_sweeps");
  out.metrics.push_back({"serve.batched_sweeps", sweeps * per_round, "count"});
  out.metrics.push_back({"serve.coalesce_width",
                         sweeps > 0 ? count(er, "serve.coalesce_width") / sweeps : 0.0,
                         "count"});
  out.metrics.push_back({"serve.retrain_steals", count(tr, "serve.retrain_steals") * per_round,
                         "count"});
  const double scheduled = count(tr, "serve.retrains_scheduled");
  out.metrics.push_back({"serve.retrain_swap_ratio",
                         scheduled > 0 ? count(tr, "serve.retrain_swaps") / scheduled : 0.0,
                         "ratio"});
  out.metrics.push_back({"serve.checkpoint_s", traced.checkpoint_s * per_round, "s"});
  out.metrics.push_back({"checkpoint.bytes",
                         traced.evictions > 0 ? traced.checkpoint_bytes /
                                                    static_cast<double>(traced.evictions)
                                              : 0.0,
                         "B"});
  out.metrics.push_back({"serve.open_s", traced.open_s, "s"});
  const double fit_full = count(tr, "gpr.fit_full");
  const double fit_incr = count(tr, "gpr.fit_incremental");
  out.metrics.push_back({"gpr.fit_full", fit_full * per_round, "count"});
  out.metrics.push_back({"gpr.fit_incremental", fit_incr * per_round, "count"});
  out.metrics.push_back({"gpr.incremental_ratio",
                         fit_full + fit_incr > 0 ? fit_incr / (fit_full + fit_incr) : 0.0,
                         "ratio"});
  const double calls = count(tr, "predict.batch_calls");
  const double rebuilds = count(tr, "panel.rebuilds");
  out.metrics.push_back({"panel.rebuilds", rebuilds * per_round, "count"});
  out.metrics.push_back({"predict.batch_calls", calls * per_round, "count"});
  out.metrics.push_back({"panel.resume_ratio", calls > 0 ? 1.0 - rebuilds / calls : 0.0,
                         "ratio"});
  out.metrics.push_back({"cholesky.jitter_retries",
                         count(tr, "cholesky.jitter_retries") * per_round, "count"});
  return out;
}

}  // namespace perfbench
