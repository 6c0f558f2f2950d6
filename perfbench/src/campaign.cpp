// campaign-cold: a reduced amr::Campaign from an empty physics cache, then
// Campaign::to_dataset and a data::write_csv -> read_csv round trip.
//
// The AMR solver and the machine model take almost all the time and no GP
// is ever fitted, so every gp change should leave this workload unchanged.

#include <set>
#include <stdexcept>
#include <tuple>

#include "alamr/amr/campaign.hpp"
#include "alamr/amr/solver.hpp"
#include "alamr/data/csv.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace alamr;

/// A reduced grid in the spirit of `amr_campaign --small` (480
/// configurations over 120 physics keys) on which the campaign samples
/// every configuration: each campaign then solves the same physics and the
/// seed changes only the order, the measurement noise and the MaxRSS quirk.
/// Campaign k of a run is seeded with derive_seed(run seed, k).
amr::CampaignOptions small_campaign(std::uint64_t seed) {
  amr::CampaignOptions options;
  options.mx_values = {8, 16};
  options.level_values = {2, 3};
  options.unique_configs = 480;
  options.dataset_size = 540;
  options.maxrss_bug_threshold_seconds = 20.0;
  options.seed = seed;
  return options;
}

using PhysicsKey = std::tuple<int, int, double, double>;

PhysicsKey physics_key(const amr::Config& c) {
  return {c.mx, c.max_level, c.r0, c.rhoin};
}

struct CampaignRun {
  double wall_s = 0.0;
  std::vector<amr::JobRecord> records;
  std::vector<double> job_s;  // span between successive progress callbacks
};

CampaignRun run_campaign_once(const amr::CampaignOptions& options) {
  CampaignRun run;
  amr::Campaign campaign(options);
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  run.records = campaign.run([&](std::size_t, std::size_t) {
    const Clock::time_point now = Clock::now();
    run.job_s.push_back(seconds_between(last, now));
    last = now;
  });
  run.wall_s = seconds_since(start);
  return run;
}

std::uint64_t records_digest(const std::vector<amr::JobRecord>& records) {
  core::trace::Fingerprint fp;
  for (const amr::JobRecord& r : records) {
    fp.add(static_cast<std::uint64_t>(r.config.p))
        .add(static_cast<std::uint64_t>(r.config.mx))
        .add(static_cast<std::uint64_t>(r.config.max_level))
        .add(r.config.r0)
        .add(r.config.rhoin);
    fp.add(r.result.wallclock_seconds).add(r.result.cost_node_hours);
    fp.add(r.result.maxrss_mb).add(r.reported_maxrss_mb);
    fp.add(r.maxrss_missing).add(r.replicate);
  }
  return fp.value();
}

bool same_values(const data::Dataset& a, const data::Dataset& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.dim(); ++j) {
      if (a.x(i, j) != b.x(i, j)) return false;
    }
    if (a.cost[i] != b.cost[i] || a.memory[i] != b.memory[i] ||
        a.wallclock[i] != b.wallclock[i]) {
      return false;
    }
  }
  return a.feature_names == b.feature_names;
}

/// Whole campaigns (each with a cold physics cache) until `seconds` have
/// elapsed, each followed by the dataset build and the CSV round trip.
struct Loop {
  std::size_t campaigns = 0;
  std::size_t jobs = 0;
  std::size_t quirk_jobs = 0;
  double wall_s = 0.0;            // campaign runs only
  double csv_write_s = 0.0;
  double csv_read_s = 0.0;
  double csv_bytes = 0.0;
  std::vector<double> job_s, solve_s, price_s;
  std::vector<std::uint64_t> digests;  // per campaign
};

Loop run_loop(Result& out, std::uint64_t seed, const std::filesystem::path& csv,
              double seconds) {
  Loop loop;
  while (loop.campaigns == 0 || loop.wall_s < seconds) {
    const amr::CampaignOptions options = small_campaign(derive_seed(seed, loop.campaigns));
    const CampaignRun run = run_campaign_once(options);
    ++loop.campaigns;
    loop.wall_s += run.wall_s;
    loop.jobs += run.records.size();
    out.attempted += run.records.size();
    out.check(run.job_s.size() == run.records.size(),
              "campaign-cold: progress callbacks do not match jobs");

    std::set<PhysicsKey> seen;
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      const amr::JobRecord& r = run.records[i];
      loop.quirk_jobs += r.maxrss_missing ? 1 : 0;
      const bool first_use = seen.insert(physics_key(r.config)).second;
      (first_use ? loop.solve_s : loop.price_s).push_back(run.job_s[i]);
      out.check(r.result.cost_node_hours > 0.0 && r.result.wallclock_seconds > 0.0 &&
                    r.result.maxrss_mb > 0.0,
                "campaign-cold: non-positive job response");
    }
    loop.job_s.insert(loop.job_s.end(), run.job_s.begin(), run.job_s.end());

    loop.digests.push_back(records_digest(run.records));

    const data::Dataset dataset =
        amr::Campaign::to_dataset(run.records, options.dataset_size);
    out.check(dataset.size() == options.dataset_size,
              "campaign-cold: wrong dataset row count");
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      out.check(dataset.cost[i] > 0.0 && dataset.memory[i] > 0.0,
                "campaign-cold: non-positive dataset response");
    }
    Clock::time_point t0 = Clock::now();
    data::write_csv(dataset, csv);
    loop.csv_write_s += seconds_since(t0);
    t0 = Clock::now();
    const data::Dataset loaded = data::read_csv(csv);
    loop.csv_read_s += seconds_since(t0);
    loop.csv_bytes = static_cast<double>(std::filesystem::file_size(csv));
    out.check(same_values(dataset, loaded), "campaign-cold: CSV round trip changed values");
  }
  return loop;
}

}  // namespace

Result run_campaign(const Args& args) {
  Result out;
  ScratchDir scratch("campaign-cold");
  const std::filesystem::path csv = scratch.path() / "dataset.csv";

  // Set-up: the campaign, the grid it samples from and the solver
  // construction (problem set-up and initial mesh) for each of its physics
  // keys. The campaign repeats the solver construction inside its run;
  // here it is timed on its own.
  const double setup_s = median_seconds(21, [&] {
    const amr::Campaign campaign(small_campaign(args.seed));
    std::set<PhysicsKey> keys;
    for (const amr::Config& config : campaign.full_grid()) {
      if (!keys.insert(physics_key(config)).second) continue;
      const amr::FvSolver solver(campaign.make_problem(config));
      if (solver.mesh().leaf_count() == 0) {
        throw std::runtime_error("campaign-cold: empty initial mesh");
      }
    }
  });

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const Loop loop = run_loop(out, args.seed, csv, budget);
  // Determinism: the first campaign again, outside the timed region.
  const amr::CampaignOptions first_options = small_campaign(derive_seed(args.seed, 0));
  const CampaignRun first = run_campaign_once(first_options);
  out.check(records_digest(first.records) == loop.digests.front(),
            "campaign-cold: records differ between repeated campaigns");
  const double jobs_per_s = static_cast<double>(loop.jobs) / loop.wall_s;
  out.metrics.push_back({"setup_s", setup_s, "s"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  out.metrics.push_back({"throughput", jobs_per_s, "1/s"});
  out.metrics.push_back({"latency_ms.p50", 1e3 * quantile(loop.solve_s, 0.5), "ms"});
  out.metrics.push_back({"latency_ms.p90", 1e3 * quantile(loop.solve_s, 0.9), "ms"});
  out.metrics.push_back({"campaign.jobs_per_s", jobs_per_s, "1/s"});
  out.metrics.push_back({"campaign.runs", static_cast<double>(loop.campaigns), "count"});
  out.metrics.push_back({"campaign.jobs", static_cast<double>(loop.jobs), "count"});
  out.metrics.push_back({"campaign.maxrss_quirk_jobs",
                         static_cast<double>(loop.quirk_jobs), "count"});
  out.metrics.push_back({"campaign.solve_jobs",
                         static_cast<double>(loop.solve_s.size()), "count"});

  if (!args.trace) return out;

  core::trace::set_enabled(true);
  const Loop traced = run_loop(out, args.seed, csv, args.seconds / 2.0);
  core::trace::set_enabled(false);
  for (std::size_t k = 0; k < std::min(loop.digests.size(), traced.digests.size()); ++k) {
    out.check(loop.digests[k] == traced.digests[k],
              "campaign-cold: records differ between repeated campaigns");
  }
  const double traced_jobs_per_s = static_cast<double>(traced.jobs) / traced.wall_s;
  out.metrics.push_back({"trace.overhead.throughput", traced_jobs_per_s - jobs_per_s, "1/s"});
  out.metrics.push_back({"trace.overhead.latency_ms.p50",
                         1e3 * (quantile(traced.solve_s, 0.5) - quantile(loop.solve_s, 0.5)),
                         "ms"});

  const double per_run = 1.0 / static_cast<double>(traced.campaigns);
  out.metrics.push_back({"campaign.solve_s", sum(traced.solve_s) * per_run, "s"});
  out.metrics.push_back({"campaign.price_s", sum(traced.price_s) * per_run, "s"});
  std::set<PhysicsKey> keys;
  for (const amr::JobRecord& r : first.records) keys.insert(physics_key(r.config));
  out.metrics.push_back({"campaign.solve_reuse_ratio",
                         1.0 - static_cast<double>(keys.size()) /
                                   static_cast<double>(first.records.size()),
                         "ratio"});
  out.metrics.push_back({"campaign.job_ms.p50", 1e3 * quantile(traced.job_s, 0.5), "ms"});
  out.metrics.push_back({"campaign.job_ms.p90", 1e3 * quantile(traced.job_s, 0.9), "ms"});
  out.metrics.push_back({"data.csv_write_s", traced.csv_write_s * per_run, "s"});
  out.metrics.push_back({"data.csv_read_s", traced.csv_read_s * per_run, "s"});
  out.metrics.push_back({"data.csv_bytes", traced.csv_bytes, "B"});

  // Solver replay: FvSolver::run once per distinct physics key of the first
  // campaign, for the cell-update count the solver reports.
  const amr::Campaign campaign(first_options);
  double cell_updates = 0.0;
  const Clock::time_point replay_start = Clock::now();
  for (const PhysicsKey& key : keys) {
    amr::Config config;
    std::tie(config.mx, config.max_level, config.r0, config.rhoin) = key;
    amr::FvSolver solver(campaign.make_problem(config));
    cell_updates += static_cast<double>(
        solver.run(first_options.max_steps_per_job).total_cell_updates);
  }
  const double replay_s = seconds_since(replay_start);
  out.metrics.push_back({"amr.cell_updates", cell_updates, "count"});
  out.metrics.push_back({"amr.cell_updates_per_s", cell_updates / replay_s, "1/s"});
  return out;
}

}  // namespace perfbench
