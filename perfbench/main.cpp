// Campaign benchmark: paper-sized fault-injection campaigns on three
// workloads, timed from outside the library (README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--perturb]
//
// --trace 0 measures the end-to-end metrics (trials/s, set-up, peak RSS)
// with nothing attached to the library beyond what the workload itself
// attaches. --trace 1 is a separate run that wraps a span around every
// public call the benchmark makes, drives the campaign one trial per
// run_campaign_range call from its own thread pool, and reports the
// per-layer metrics. Both runs check their results against the reference
// path; the last line of standard output is the JSON result.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "fprop/apps/registry.h"
#include "fprop/harness/harness.h"
#include "fprop/mpisim/world.h"
#include "fprop/obs/metrics.h"
#include "fprop/passes/passes.h"
#include "fprop/shard/protocol.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace perfbench;
namespace harness = fprop::harness;

/// The timed run is a sequence of rounds, each kSetupsPerRound set-ups and
/// then one campaign on the last harness built, so that the set-up samples
/// and the campaigns span the same stretch of time: on a shared 4-vCPU host
/// one set-up's time moved by up to 1.8x within a minute. There are at least
/// kMinCampaigns rounds, and more while the next one is expected to end
/// within --seconds. setup_s and trials_per_s are the medians of the samples.
constexpr std::size_t kSetupsPerRound = 4;
constexpr std::size_t kMinCampaigns = 2;
/// Trials of the untimed warm-up campaign. A process's first multi-threaded
/// campaign ran up to a third slower than later ones on lulesh, which would
/// skew the median.
constexpr std::size_t kWarmupTrials = 200;
/// Trials re-run on the reference path per run.
constexpr std::size_t kOracleSample = 24;
/// Fault-free World runs per execution tier in the traced run.
constexpr std::size_t kGoldenReps = 3;
/// One-trial-per-shard fprop-coord runs behind shard.coord_setup_s.
constexpr std::size_t kCoordSetupReps = 3;

struct Host {
  std::size_t nproc = 1;
  unsigned hardware_concurrency = 0;
  std::string build_type = PERFBENCH_BUILD_TYPE;
};

Host host_facts() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    h.nproc = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  h.hardware_concurrency = std::thread::hardware_concurrency();
  return h;
}

std::string host_json(const Host& h) {
  return "{\"nproc\": " + std::to_string(h.nproc) +
         ", \"hardware_concurrency\": " +
         std::to_string(h.hardware_concurrency) + ", \"build_type\": \"" +
         json_escape(h.build_type) + "\"}";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Everything a run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void fail(std::uint64_t trials, const std::string& why) {
    failed += trials;
    correct = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

void log_samples(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %zu %s samples:", v.size(), what);
  for (double x : v) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

// --- set-up -------------------------------------------------------------------

/// The one-time work before the first trial can run: harness construction
/// (compile, instrument, golden run), ladder, bytecode and page-prints.
std::unique_ptr<harness::AppHarness> set_up(const WorkloadSpec& spec) {
  auto h = std::make_unique<harness::AppHarness>(fprop::apps::get_app(spec.app),
                                                 spec.experiment);
  (void)h->snapshot_ladder();
  (void)h->bytecode();
  (void)h->prune_prints();
  return h;
}

// --- fprop-coord --------------------------------------------------------------

std::string exe_dir() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw fprop::Error("cannot locate the benchmark binary");
  return self.parent_path().string();
}

struct CoordRun {
  double wall_s = 0.0;
  int exit_code = -1;
  double maxrss_mib = 0.0;  ///< coordinator and the shards it reaped
  std::string out;
};

/// Runs fprop-coord with its standard output captured; waits for it.
CoordRun run_coord(const std::vector<std::string>& args) {
  const std::string bin = exe_dir() + "/fprop-coord";
  std::vector<std::string> argv_s{bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) throw fprop::Error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  CoordRun run;
  const double t0 = now_s();
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw fprop::Error("cannot spawn " + bin);
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      run.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  run.wall_s = now_s() - t0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  run.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return run;
}

/// Checks a coordinator run against the in-process result of the same
/// campaign; a bad run fails all its trials.
void check_coord(const CoordRun& run, const harness::CampaignResult& ref,
                 Report& rep) {
  const std::size_t n = ref.counts.total();
  if (run.exit_code != 0) {
    rep.fail(n, "fprop-coord exited with " + std::to_string(run.exit_code));
    return;
  }
  const auto printed = parse_coord_table(run.out);
  if (!printed || !(*printed == coord_table(ref))) {
    rep.fail(n, "fprop-coord outcome table differs from in-process run_campaign");
  }
}

// --- checks shared by both runs -------------------------------------------------

void check_same(const harness::CampaignResult& a, const harness::CampaignResult& b,
                const char* what, Report& rep) {
  const std::size_t bad = campaign_mismatches(a, b);
  if (bad != 0) {
    rep.fail(bad, std::string(what) + ": " + std::to_string(bad) +
                      " trials differ");
  }
}

void run_oracle(const harness::AppHarness& h, const harness::CampaignConfig& cc,
                std::vector<harness::TrialResult> slots, const Args& args,
                std::size_t jobs, Report& rep) {
  const harness::CampaignPlan plan = harness::plan_campaign(h, cc);
  const auto sample = oracle_sample(args.seed, slots.size(), kOracleSample);
  if (args.perturb && !sample.empty()) slots[sample.front()].global_cycles ^= 1;
  std::string first;
  const std::size_t bad = oracle_failures(h, plan, slots, sample, jobs, &first);
  if (bad != 0) {
    rep.fail(bad, "reference-path oracle: " + std::to_string(bad) + " of " +
                      std::to_string(sample.size()) + " sampled trials; " +
                      first);
  }
}

// --- --trace 0: end-to-end metrics ------------------------------------------------

Report timed_in_process(const Args& args, const Host& host) {
  Report rep;
  const WorkloadSpec spec = make_workload(args.workload, args.seed, host.nproc);

  {
    const auto warm = set_up(spec);
    fprop::obs::MetricsRegistry registry;
    harness::CampaignConfig cc = spec.campaign;
    cc.trials = kWarmupTrials;
    if (spec.observed) cc.metrics = &registry;
    (void)harness::run_campaign(*warm, cc);
  }

  std::vector<double> setup, tps, rounds;
  std::unique_ptr<harness::AppHarness> h;
  std::optional<harness::CampaignResult> first;
  std::optional<fprop::obs::MetricsSnapshot> first_metrics;
  const double start = now_s();
  do {
    const double r0 = now_s();
    for (std::size_t i = 0; i < kSetupsPerRound; ++i) {
      h.reset();
      const double t0 = now_s();
      h = set_up(spec);
      setup.push_back(now_s() - t0);
    }
    fprop::obs::MetricsRegistry registry;
    harness::CampaignConfig cc = spec.campaign;
    if (spec.observed) cc.metrics = &registry;
    const double t0 = now_s();
    harness::CampaignResult r = harness::run_campaign(*h, cc);
    tps.push_back(static_cast<double>(cc.trials) / (now_s() - t0));
    rounds.push_back(now_s() - r0);
    rep.attempted += cc.trials;
    if (!first) {
      first = std::move(r);
      first_metrics = registry.snapshot();
    } else {
      check_same(*first, r, "repeated campaign", rep);
      if (!(registry.snapshot() == *first_metrics)) {
        rep.fail(0, "repeated campaign folded different metrics");
      }
    }
  } while (tps.size() < kMinCampaigns ||
           now_s() - start + median(rounds) <= args.seconds);

  harness::CampaignConfig cc = spec.campaign;
  fprop::obs::MetricsRegistry registry;
  if (spec.observed) cc.metrics = &registry;
  run_oracle(*h, cc, first->trials, args, host.nproc, rep);

  rep.set("trials_per_s", median(tps), "trials/s");
  rep.set("setup_s", median(setup), "s");
  rep.set("peak_rss_mb", peak_rss_mib_self(), "MiB");
  log_samples("set-up s", setup);
  log_samples("trials/s", tps);
  return rep;
}

// --- --trace 1: per-layer metrics ---------------------------------------------------

/// Rung a warm-started trial of `plan` restores (the deepest one whose
/// prefix holds none of the plan's faults), or null for a cold start.
const harness::SnapshotRung* warm_rung(
    const std::vector<harness::SnapshotRung>& ladder,
    const fprop::inject::InjectionPlan& plan) {
  const harness::SnapshotRung* best = nullptr;
  for (const harness::SnapshotRung& rung : ladder) {
    for (const auto& [rank, faults] : plan.faults_by_rank) {
      const std::uint64_t done =
          rank < rung.dyn_counts.size() ? rung.dyn_counts[rank] : 0;
      for (const auto& f : faults) {
        if (f.dyn_index < done) return best;
      }
    }
    for (const auto& [rank, faults] : plan.msg_faults_by_rank) {
      const std::uint64_t done = rank < rung.state.sent_msgs.size()
                                     ? rung.state.sent_msgs[rank]
                                     : 0;
      for (const auto& f : faults) {
        if (f.msg_index < done) return best;
      }
    }
    best = &rung;
  }
  return best;
}

/// Fault-free World run of the harness's module on one tier; returns the
/// median Mcycles/s and checks the outputs against the golden run.
double golden_rate(const harness::AppHarness& h, bool bytecode, Tracer& tr,
                   std::int64_t parent, Report& rep) {
  std::vector<double> rates;
  for (std::size_t k = 0; k < kGoldenReps; ++k) {
    fprop::mpisim::WorldConfig wc = h.world_config(/*tracing=*/false);
    wc.interp.cycle_budget = 4ull << 30;
    if (bytecode) wc.bytecode = &h.bytecode();
    fprop::mpisim::World world(h.module(), wc);
    const double t0 = tr.now();
    fprop::mpisim::JobResult job;
    {
      ScopedSpan s(tr, bytecode ? "mpisim.World.run.bytecode"
                                : "mpisim.World.run.interp",
                   parent);
      job = world.run();
    }
    const double dt = tr.now() - t0;
    if (job.crashed || job.outputs() != h.golden().outputs) {
      rep.fail(0, "fault-free World run disagrees with the golden run");
    }
    rates.push_back(static_cast<double>(job.global_cycles) * 1e-6 / dt);
  }
  return median(rates);
}

void write_trace(const Args& args, const Host& host, const Tracer& tr,
                 const std::map<std::string, Metric>& metrics) {
  const std::vector<Span> spans = tr.spans();
  const auto layers = layer_times(spans);
  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/trace-" +
                           std::string(workload_name(args.workload)) + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload_name(args.workload)
      << "\", \"seed\": " << args.seed << ", \"host\": " << host_json(host)
      << ",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, lt] : layers) {
    out << (first ? "\n  " : ",\n  ") << "\"" << json_escape(name)
        << "\": {\"count\": " << lt.count
        << ", \"total_s\": " << json_number(lt.total)
        << ", \"self_s\": " << json_number(lt.self) << "}";
    first = false;
  }
  out << "},\n \"metrics\": " << metrics_json(metrics)
      << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": \""
        << json_escape(s.name) << "\", \"parent\": " << s.parent
        << ", \"trial\": "
        << (s.trial == kNoTrial ? std::string("null") : std::to_string(s.trial))
        << ", \"start_s\": " << json_number(s.start)
        << ", \"end_s\": " << json_number(s.end)
        << ", \"cpu_s\": " << json_number(s.cpu) << "}";
  }
  out << "\n]}\n";
  if (!out) throw fprop::Error("cannot write " + path);

  std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  std::fprintf(stderr, "  %-34s %7s %11s %11s\n", "layer (span)", "count",
               "total_s", "self_s");
  for (const auto& [name, lt] : layers) {
    std::fprintf(stderr, "  %-34s %7zu %11.4f %11.4f\n", name.c_str(), lt.count,
                 lt.total, lt.self);
  }
}

Report traced(const Args& args, const Host& host) {
  Report rep;
  const WorkloadSpec spec = make_workload(args.workload, args.seed, host.nproc);
  const std::size_t trials = spec.campaign.trials;
  const double n_trials = static_cast<double>(trials);
  Tracer tr;
  const std::int64_t root = tr.begin("bench.run");

  // Set-up, one public call at a time. compile_app and instrument_module
  // are what the AppHarness constructor runs first; they are timed here on
  // their own copy of the module.
  const fprop::apps::AppSpec& app = fprop::apps::get_app(spec.app);
  double compile_s = 0.0, instrument_s = 0.0, ctor_s = 0.0, ladder_s = 0.0,
         bytecode_s = 0.0, prints_s = 0.0;
  auto timed = [&](const char* name, double& out, auto&& fn) {
    const double t0 = tr.now();
    {
      ScopedSpan s(tr, name, root);
      fn();
    }
    out = tr.now() - t0;
  };
  fprop::ir::Module module;
  timed("apps.compile_app", compile_s,
        [&] { module = fprop::apps::compile_app(app, spec.experiment.overrides); });
  timed("passes.instrument_module", instrument_s, [&] {
    (void)fprop::passes::instrument_module(module, spec.experiment.targets);
  });
  std::unique_ptr<harness::AppHarness> hp;
  timed("harness.AppHarness", ctor_s, [&] {
    hp = std::make_unique<harness::AppHarness>(app, spec.experiment);
  });
  const harness::AppHarness& h = *hp;
  timed("harness.snapshot_ladder", ladder_s, [&] { (void)h.snapshot_ladder(); });
  timed("harness.bytecode", bytecode_s, [&] { (void)h.bytecode(); });
  timed("harness.prune_prints", prints_s, [&] { (void)h.prune_prints(); });
  const harness::GoldenRun& golden = h.golden();
  const auto& ladder = h.snapshot_ladder();

  rep.set("minic.compile_s", compile_s, "s");
  rep.set("passes.instrument_s", instrument_s, "s");
  rep.set("harness.ctor_s", ctor_s, "s");
  rep.set("harness.ladder_s", ladder_s, "s");
  rep.set("harness.ladder_rungs", static_cast<double>(ladder.size()), "count");
  rep.set("vm.bytecode_compile_s", bytecode_s, "s");
  rep.set("harness.prints_s", prints_s, "s");
  rep.set("harness.golden_mcycles",
          static_cast<double>(golden.global_cycles) * 1e-6, "Mcycles");
  rep.set("inject.golden_dyn_points", static_cast<double>(golden.total_dyn_points),
          "count");
  rep.set("mpisim.golden_sends", static_cast<double>(golden.total_sent_msgs),
          "count");

  rep.set("vm.golden_mcycles_per_s.bytecode",
          golden_rate(h, true, tr, root, rep), "Mcycles/s");
  rep.set("vm.golden_mcycles_per_s.interp",
          golden_rate(h, false, tr, root, rep), "Mcycles/s");

  // Untraced campaign of the same configuration: the result the traced run
  // must reproduce, and the base of the tracing overhead.
  fprop::obs::MetricsRegistry untraced_registry;
  harness::CampaignConfig cc = spec.campaign;
  if (spec.observed) cc.metrics = &untraced_registry;
  double untraced_s = 0.0;
  harness::CampaignResult untraced;
  timed("harness.run_campaign", untraced_s,
        [&] { untraced = harness::run_campaign(h, cc); });
  const double untraced_tps = n_trials / untraced_s;

  // Traced campaign: plan, one run_campaign_range per trial from the
  // benchmark's own pool, merge.
  fprop::obs::MetricsRegistry registry;
  if (spec.observed) cc.metrics = &registry;
  double plan_s = 0.0, merge_s = 0.0;
  const double traced_t0 = tr.now();
  const std::int64_t campaign_span = tr.begin("bench.traced_campaign", root);
  harness::CampaignPlan plan;
  {
    const double t0 = tr.now();
    ScopedSpan s(tr, "harness.plan_campaign", campaign_span);
    plan = harness::plan_campaign(h, cc);
    plan_s = tr.now() - t0;
  }
  std::vector<harness::TrialResult> slots(trials);
  std::vector<double> trial_ms(trials, 0.0), trial_cpu(trials, 0.0);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(host.nproc);
    auto worker = [&](std::size_t w) {
      try {
        for (std::size_t i = next.fetch_add(1); i < trials; i = next.fetch_add(1)) {
          const double t0 = tr.now();
          const double c0 = thread_cpu_seconds();
          {
            ScopedSpan s(tr, "harness.run_campaign_range", campaign_span, i);
            harness::run_campaign_range(h, cc, plan, i, i + 1, slots);
          }
          trial_cpu[i] = thread_cpu_seconds() - c0;
          trial_ms[i] = (tr.now() - t0) * 1e3;
        }
      } catch (...) {
        errors[w] = std::current_exception();
        next.store(trials);
      }
    };
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < host.nproc; ++w) pool.emplace_back(worker, w);
    for (auto& t : pool) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  const std::vector<harness::TrialResult> raw_slots = slots;
  harness::CampaignResult result;
  {
    const double t0 = tr.now();
    ScopedSpan s(tr, "harness.merge_campaign", campaign_span);
    result = harness::merge_campaign(h, cc, plan, std::move(slots));
    merge_s = tr.now() - t0;
  }
  tr.end(campaign_span);
  const double traced_tps = n_trials / (tr.now() - traced_t0);
  rep.attempted += trials;

  check_same(untraced, result, "traced run vs untraced run", rep);
  if (spec.observed && !(registry.snapshot() == untraced_registry.snapshot())) {
    rep.fail(0, "traced run folded different metrics than the untraced run");
  }

  // Reference-path oracle, each re-run trial a span of its own trial id.
  {
    const auto sample = oracle_sample(args.seed, trials, kOracleSample);
    std::vector<harness::TrialResult> checked = result.trials;
    if (args.perturb && !sample.empty()) checked[sample.front()].global_cycles ^= 1;
    ScopedSpan s(tr, "bench.oracle", root);
    std::string first;
    const std::size_t bad = oracle_failures(h, plan, checked, sample, host.nproc,
                                            &first, &tr, s.id());
    if (bad != 0) {
      rep.fail(bad, "reference-path oracle: " + std::to_string(bad) + " of " +
                        std::to_string(sample.size()) + " sampled trials; " + first);
    }
  }

  // --- harness, trial phase.
  std::vector<double> exec_ms, exec_cpu;
  double outcome_ms[5] = {}, outcome_n[5] = {};
  double warm = 0, prefix_cycles = 0, pruned = 0, suffix_cycles = 0,
         executed_cycles = 0, traps = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    if (plan.rep[i] != i) continue;  // duplicate slot: nothing executed
    const harness::TrialResult& t = result.trials[i];
    exec_ms.push_back(trial_ms[i]);
    exec_cpu.push_back(trial_cpu[i]);
    const auto o = static_cast<std::size_t>(t.outcome);
    outcome_ms[o] += trial_ms[i];
    outcome_n[o] += 1;
    double prefix = 0.0, suffix = 0.0;
    const bool may_warm = cc.warm_start && cc.metrics == nullptr;
    if (const auto* rung = may_warm ? warm_rung(ladder, plan.plans[i]) : nullptr) {
      warm += 1;
      prefix = static_cast<double>(rung->global_clock);
    }
    if (t.pruned) {
      pruned += 1;
      suffix = static_cast<double>(t.global_cycles - t.prune_clock);
    }
    prefix_cycles += prefix;
    suffix_cycles += suffix;
    executed_cycles += static_cast<double>(t.global_cycles + t.wasted_cycles) -
                       prefix - suffix;
    if (t.trap != fprop::vm::Trap::None) traps += 1;
  }
  const double reps = static_cast<double>(exec_ms.size());
  const Percentile p50 = percentile(exec_ms, 0.50);
  const Percentile p99 = percentile(exec_ms, 0.99);
  double cpu_sum = 0.0;
  for (double c : exec_cpu) cpu_sum += c;
  const double cpu_mean = cpu_sum / reps;
  rep.set("harness.plan_s", plan_s, "s");
  rep.set("harness.merge_s", merge_s, "s");
  rep.set("harness.trial_ms.p50", p50.value, "ms");
  rep.set("harness.trial_ms.p99", p99.value, "ms");
  rep.set("harness.trial_ms.samples", static_cast<double>(p99.samples), "count");
  rep.set("harness.trial_cpu_ms.mean", cpu_mean * 1e3, "ms");
  const char* const outcome_keys[5] = {"V", "ONA", "WO", "PEX", "C"};
  for (std::size_t o = 0; o < 5; ++o) {
    rep.set(std::string("harness.trial_ms_mean.") + outcome_keys[o],
            outcome_n[o] > 0 ? outcome_ms[o] / outcome_n[o] : 0.0, "ms");
  }
  rep.set("harness.scaling_eff",
          untraced_tps / (static_cast<double>(host.nproc) / cpu_mean), "ratio");
  rep.set("harness.warm_share", warm / reps, "ratio");
  rep.set("harness.prefix_mcycles_skipped", prefix_cycles * 1e-6 / reps,
          "Mcycles/trial");
  rep.set("harness.pruned_share", pruned / reps, "ratio");
  rep.set("harness.suffix_mcycles_skipped", suffix_cycles * 1e-6 / reps,
          "Mcycles/trial");
  rep.set("harness.deduped_share", (n_trials - reps) / n_trials, "ratio");

  // --- vm.
  rep.set("vm.executed_mcycles_per_trial", executed_cycles * 1e-6 / reps,
          "Mcycles/trial");
  rep.set("vm.mcycles_per_cpu_s", executed_cycles * 1e-6 / cpu_sum,
          "Mcycles/s");
  rep.set("vm.trap_share", traps / reps, "ratio");

  // --- fpm / mpisim / inject / recovery, over every slot.
  double cml_peak = 0, ranks = 0, quarantined = 0, msg = 0, rollbacks = 0,
         detections = 0, wasted = 0, recovered = 0, gave_up = 0;
  for (const harness::TrialResult& t : result.trials) {
    cml_peak += static_cast<double>(t.total_cml_peak);
    ranks += static_cast<double>(t.contaminated_ranks);
    quarantined += static_cast<double>(t.headers_quarantined);
    msg += t.msg_injected > 0 ? 1 : 0;
    rollbacks += static_cast<double>(t.rollbacks);
    detections += static_cast<double>(t.detections);
    wasted += static_cast<double>(t.wasted_cycles);
    recovered += t.recovered ? 1 : 0;
    gave_up += t.recovery_gave_up ? 1 : 0;
  }
  rep.set("fpm.cml_peak_mean", cml_peak / n_trials, "words");
  rep.set("fpm.contaminated_ranks_mean", ranks / n_trials, "ranks");
  rep.set("fpm.headers_quarantined_per_trial", quarantined / n_trials, "count");
  rep.set("inject.msg_injected_share", msg / n_trials, "ratio");
  rep.set("recovery.rollbacks_per_trial", rollbacks / n_trials, "count");
  rep.set("recovery.detections_per_trial", detections / n_trials, "count");
  rep.set("recovery.wasted_mcycles_per_trial", wasted * 1e-6 / n_trials,
          "Mcycles/trial");
  rep.set("recovery.recovered_share", recovered / n_trials, "ratio");
  rep.set("recovery.gave_up_share", gave_up / n_trials, "ratio");

  // Registry counts exist only where the workload attaches a registry.
  const fprop::obs::MetricsSnapshot snap = registry.snapshot();
  auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  rep.set("fpm.shadow_records_per_trial", counter("shadow.records") / n_trials,
          "count");
  rep.set("fpm.shadow_heals_per_trial", counter("shadow.heals") / n_trials,
          "count");
  rep.set("mpisim.sends_per_trial", counter("mpi.sends") / n_trials, "count");
  rep.set("mpisim.recvs_per_trial", counter("mpi.recvs") / n_trials, "count");
  rep.set("obs.events_per_trial", counter("obs.events") / n_trials, "count");
  rep.set("obs.events_dropped", counter("obs.events_dropped"), "count");
  rep.set("obs.trace_overhead", untraced_tps / traced_tps, "ratio");

  // --- shard: Result frames over this campaign's slots, ranged as the
  // coordinator ranges them by default (about four ranges per shard).
  {
    const std::size_t range =
        std::max<std::size_t>(1, trials / (host.nproc * 4));
    std::vector<fprop::shard::RangeResult> ranges;
    for (std::size_t first = 0; first < trials; first += range) {
      fprop::shard::RangeResult rr;
      rr.first = first;
      rr.last = std::min(trials, first + range);
      for (std::size_t i = first; i < rr.last; ++i) {
        if (plan.rep[i] == i) rr.results.emplace_back(i, raw_slots[i]);
      }
      ranges.push_back(std::move(rr));
    }
    std::vector<std::vector<std::uint8_t>> wire;
    double bytes = 0, encode_s = 0, decode_s = 0;
    {
      const double t0 = tr.now();
      ScopedSpan s(tr, "shard.encode", root);
      for (const auto& rr : ranges) {
        wire.push_back(fprop::shard::encode_frame(fprop::shard::make_result_frame(rr)));
      }
      encode_s = tr.now() - t0;
    }
    std::vector<fprop::shard::RangeResult> decoded;
    {
      const double t0 = tr.now();
      ScopedSpan s(tr, "shard.decode", root);
      for (const auto& w : wire) {
        decoded.push_back(fprop::shard::parse_result(
            fprop::shard::decode_frame(w.data(), w.size())));
      }
      decode_s = tr.now() - t0;
    }
    for (const auto& w : wire) bytes += static_cast<double>(w.size());
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      const auto& a = ranges[r].results;
      const auto& b = decoded[r].results;
      bool same = a.size() == b.size();
      for (std::size_t k = 0; same && k < a.size(); ++k) {
        same = a[k].first == b[k].first &&
               trial_mismatches(b[k].second, a[k].second).empty();
      }
      if (!same) rep.fail(a.size(), "Result frame did not round-trip");
    }
    rep.set("shard.wire_bytes_per_trial", bytes / n_trials, "bytes");
    rep.set("shard.encode_us_per_trial", encode_s * 1e6 / n_trials, "us");
    rep.set("shard.decode_us_per_trial", decode_s * 1e6 / n_trials, "us");
  }

  // --- the fprop-coord CLI, on the workload it can run: the same campaign
  // as nproc single-threaded shard processes. Set-up is the same command
  // with one trial per shard; the trial phase is the rest of the wall-clock.
  double coord_setup_s = 0.0, coord_tps = 0.0, coord_rss = 0.0;
  if (args.workload == Workload::Lulesh) {
    const std::size_t shards = host.nproc;
    std::vector<double> setup;
    for (std::size_t k = 0; k < kCoordSetupReps; ++k) {
      ScopedSpan s(tr, "fprop-coord.setup", root);
      const CoordRun run = run_coord(coord_args(args.seed, shards, shards));
      if (run.exit_code != 0) {
        rep.fail(shards, "set-up fprop-coord exited with " +
                             std::to_string(run.exit_code));
      }
      setup.push_back(run.wall_s);
    }
    coord_setup_s = median(setup);
    CoordRun run;
    {
      ScopedSpan s(tr, "fprop-coord", root);
      run = run_coord(coord_args(args.seed, trials, shards));
    }
    check_coord(run, result, rep);
    rep.attempted += trials;
    if (run.wall_s > coord_setup_s) {
      coord_tps = static_cast<double>(trials - shards) / (run.wall_s - coord_setup_s);
    }
    coord_rss = run.maxrss_mib;
  }
  rep.set("shard.coord_setup_s", coord_setup_s, "s");
  rep.set("shard.coord_trials_per_s", coord_tps, "trials/s");
  rep.set("shard.coord_peak_rss_mb", coord_rss, "MiB");

  tr.end(root);
  write_trace(args, host, tr, rep.metrics);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    const Host host = host_facts();
    std::printf("host: %s\n", host_json(host).c_str());
    std::printf("workload: %s, seed %llu, %s run\n", workload_name(args.workload),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "timed");
    std::fflush(stdout);
    Report rep;
    if (args.trace) {
      rep = traced(args, host);
    } else {
      rep = timed_in_process(args, host);
    }
    for (const auto& [name, m] : rep.metrics) {
      std::printf("  %-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("fail_ratio: %.6g (%llu failed of %llu trials attempted)\n",
                rep.attempted == 0 ? 0.0
                                   : static_cast<double>(rep.failed) /
                                         static_cast<double>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::printf("%s\n", result_json(rep.correct && rep.failed == 0, rep.attempted,
                                    rep.failed, rep.metrics)
                            .c_str());
    return rep.correct && rep.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
