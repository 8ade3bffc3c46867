// perfbench driver: runs one benchmark workload of the gossip-aggregation
// library, checks every result, and prints the metrics as one JSON object
// on the last line of standard output.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--scale full|tiny] [--corrupt] [--trace-out FILE]
//                    [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics of exactly one iteration: one
// Engine::run_point call (spec in, checked result out). perfbench/run.py
// starts one driver process per iteration and takes the medians, so the
// repetition lives there. --trace 1 runs iterations alternately with and
// without spans for half of --seconds (the difference is the tracing
// overhead), then probes each module through its public functions and
// prints the per-layer metrics. The driver never reaches inside the
// library: every number comes from timing a public call or reading a
// public result field.
//
// --corrupt perturbs each result before its check, so the self-test can
// show that a wrong result fails the run. The exit code is 0 only when
// every check passed.
#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/rng.hpp"
#include "core/update.hpp"
#include "experiment/cycle_sim.hpp"
#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"
#include "membership/newscast.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "stats/reduction.hpp"
#include "stats/running_stats.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gossip;
using namespace gossip::experiment;
using Clock = std::chrono::steady_clock;
using perfbench::Span;
using perfbench::Tracer;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shortest round-trip decimal form; non-finite values become null.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Every byte of two doubles equal (NaN-safe, unlike ==).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Metric& m = items_[i];
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
             number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------- workloads

/// The engine path a workload's spec resolves to.
enum class Path { kRepParallel, kRuntime };

struct Workload {
  std::string name;
  ScenarioSpec spec;
  Path path = Path::kRepParallel;
  /// conv_factor must fall in [conv_lo, conv_hi] around `conv_ref`.
  const char* conv_ref = "";
  double conv_lo = 0.0;
  double conv_hi = 0.0;
};

/// ρ = 1/(2√e): the paper's per-cycle variance reduction of push-pull
/// averaging over a random overlay.
const double kRho = 1.0 / (2.0 * std::sqrt(std::exp(1.0)));

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  if (name == "avg_reps") {
    w.spec = ScenarioSpec::average_peak(name, tiny ? 2000 : 100000,
                                        tiny ? 10 : 20);
    w.spec.with_reps(4).with_engine(EngineKind::kRepParallel);
    w.spec.threads = 4;
    w.path = Path::kRepParallel;
    w.conv_lo = kRho - 0.05;
    w.conv_hi = kRho + 0.05;
    w.conv_ref = "rho";
  } else if (name == "count_robust") {
    w.spec = ScenarioSpec::count(name, tiny ? 2000 : 100000, tiny ? 12 : 20,
                                 20);
    w.spec.with_failure(FailureSpec::churn_fraction(0.01))
        .with_comm(CommSpec{0.0, 0.05})
        .with_reps(4)
        .with_engine(EngineKind::kRepParallel);
    w.spec.threads = 4;
    w.path = Path::kRepParallel;
    // Loss and churn slow mixing, so the band opens upwards from ρ.
    w.conv_lo = kRho - 0.05;
    w.conv_hi = kRho + 0.20;
    w.conv_ref = "rho";
  } else if (name == "runtime_newscast") {
    w.spec = ScenarioSpec::average_peak(name, tiny ? 5000 : 50000,
                                        tiny ? 12 : 20);
    w.spec.with_driver(DriverKind::kRuntime).with_engine(EngineKind::kSerial);
    RuntimeSpec rt;
    rt.workers = 4;
    w.spec.with_runtime(rt);
    w.path = Path::kRuntime;
    // Busy NACKs refuse a share of exchanges, so the live executor mixes
    // slower than ρ: 0.45-0.6 at N = 5·10⁴ with four workers, and down to
    // 0.42 at the self-test's N. The band opens upwards from ρ.
    w.conv_lo = kRho - 0.05;
    w.conv_hi = 0.68;
    w.conv_ref = "runtime_4w";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.spec.with_seed(seed);
  validate(w.spec);
  return w;
}

/// The SimConfig the Engine derives from a cycle-driver spec, for the
/// traced run's direct IntraRepSimulation runs. It must track
/// sim_config_of in src/experiment/engine.cpp for the fields the
/// workloads set (none of them sets an adversary, combine, partition,
/// drift or service).
SimConfig sim_config(const ScenarioSpec& spec, std::uint64_t seed) {
  SimConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.cycles = spec.cycles;
  cfg.instances = spec.instances;
  cfg.topology = spec.topology;
  cfg.comm = failure::CommFailureModel(spec.comm.link_failure,
                                       spec.comm.message_loss);
  cfg.match_rounds = spec.match_rounds;
  cfg.stream_seed = seed;
  return cfg;
}

std::uint64_t first_rep_seed(const ScenarioSpec& spec) {
  return rep_seed(spec.seed, spec.sweep.points[0].seed_point, 0);
}

// ------------------------------------------------------------- checks

/// Mean per-cycle variance-reduction factor of instance 0, over reps.
double conv_factor(const std::vector<RunResult>& reps, std::uint32_t cycles) {
  double sum = 0.0;
  for (const auto& r : reps) sum += r.tracker.mean_factor(cycles);
  return sum / static_cast<double>(reps.size());
}

/// Checks one iteration's repetitions; on failure `why` says which check.
/// `corrupt` perturbs each checked quantity first (the self-test's proof
/// that the checks bite).
bool check_reps(const Workload& w, const std::vector<RunResult>& reps,
                bool corrupt, std::string& why) {
  const ScenarioSpec& s = w.spec;
  const double n = s.nodes;
  if (reps.size() != s.reps) {
    why = "expected " + std::to_string(s.reps) + " repetitions, got " +
          std::to_string(reps.size());
    return false;
  }
  for (const auto& r : reps) {
    if (w.path == Path::kRuntime) {
      // Zero loss, no failures: the global sum is conserved exactly.
      double sum_final = r.runtime_sum_final + (corrupt ? 1.0 : 0.0);
      if (std::fabs(sum_final - r.runtime_sum_initial) > 1e-9 * n ||
          std::fabs(r.runtime_sum_initial - n) > 1e-9 * n) {
        why = "runtime sum not conserved: initial " +
              number(r.runtime_sum_initial) + ", final " + number(sum_final);
        return false;
      }
    } else if (s.aggregate == AggregateKind::kAverage) {
      // The true mean is the mean of the initial values: exactly 1 for
      // the peak (N on one node), ≈ 1 for uniform values on [0, 2).
      const double truth = r.per_cycle.front().mean();
      const double mean =
          r.per_cycle.back().mean() * (corrupt ? 1.0 + 1e-6 : 1.0);
      if (!(std::fabs(mean - truth) <= 1e-9 * truth) ||
          !(std::fabs(truth - 1.0) <= 0.05) || r.participants != s.nodes) {
        why = "AVERAGE mean estimate " + number(mean) +
              " is not the true mean " + number(truth) + " (participants " +
              std::to_string(r.participants) + ")";
        return false;
      }
    } else {
      // Churn kills and joins the same count per cycle: N stays live.
      const double estimate = r.sizes.mean * (corrupt ? 1.25 : 1.0);
      if (!(std::fabs(estimate - n) <= 0.10 * n)) {
        why = "COUNT size estimate " + number(estimate) +
              " is not within 10% of the live N " + number(n);
        return false;
      }
    }
  }
  const double f = conv_factor(reps, s.cycles);
  if (!(f >= w.conv_lo && f <= w.conv_hi)) {
    why = "conv_factor " + number(f) + " outside [" + number(w.conv_lo) +
          ", " + number(w.conv_hi) + "] around " + w.conv_ref;
    return false;
  }
  return true;
}

/// Bit-level equality of two runs' per-cycle statistics and outputs.
bool identical(const std::vector<stats::RunningStats>& a,
               const std::vector<stats::RunningStats>& b,
               const std::vector<double>& ea, const std::vector<double>& eb) {
  if (a.size() != b.size() || ea.size() != eb.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].count() != b[c].count() || !same_bits(a[c].mean(), b[c].mean()) ||
        !same_bits(a[c].variance(), b[c].variance())) {
      return false;
    }
  }
  return ea.empty() ||
         std::memcmp(ea.data(), eb.data(), ea.size() * sizeof(double)) == 0;
}

bool identical_reps(const std::vector<RunResult>& a,
                    const std::vector<RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (!identical(a[r].per_cycle, b[r].per_cycle, {}, {}) ||
        !same_bits(a[r].sizes.mean, b[r].sizes.mean)) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// Tallies every checked operation of the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok, const std::string& what, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "CHECK FAILED (" << what << "): " << why << "\n";
    }
  }
};

/// One end-to-end iteration: Engine::run_point on the workload's spec.
struct Iteration {
  double wall = 0.0;         ///< spec in → result out
  double sum_elapsed = 0.0;  ///< Σ per-rep run seconds
  double run_phase = 0.0;    ///< run seconds per fan-out lane
  double setup = 0.0;        ///< wall outside the run phase
  std::vector<RunResult> reps;
};

unsigned fanout_lanes(const Workload& w) {
  return w.path == Path::kRepParallel ? std::min(w.spec.threads, w.spec.reps)
                                      : 1U;
}

Iteration iterate(Engine& engine, const ScenarioSpec& spec, const Workload& w,
                  Tracer& tracer) {
  Iteration it;
  {
    Span span(tracer, "Engine::run_point");
    const auto start = Clock::now();
    it.reps = engine.run_point(spec, 0);
    it.wall = seconds_since(start);
  }
  for (const auto& r : it.reps) it.sum_elapsed += r.elapsed_seconds;
  it.run_phase = it.sum_elapsed / fanout_lanes(w);
  // Everything outside the run phase: validation, overlay bootstrap, state
  // allocation, value init or executor construction, and the teardown.
  // Every workload runs one repetition per lane, so this is one
  // repetition's set-up (plus the lanes' imbalance on rep-parallel).
  it.setup = it.wall - it.run_phase;
  return it;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

/// Samples gathered by the measurement loop.
struct Samples {
  std::vector<double> wall, setup, ncps, conv, per_rep_run, fanout_eff;
  runtime::RuntimeCounters counters;  ///< summed over runtime iterations
  std::vector<RunResult> last_reps;
};

void add_sample(Samples& s, const Workload& w, const Iteration& it) {
  const ScenarioSpec& spec = w.spec;
  s.wall.push_back(it.wall);
  s.setup.push_back(it.setup);
  s.ncps.push_back(static_cast<double>(spec.nodes) * spec.cycles * spec.reps /
                   it.run_phase);
  s.conv.push_back(conv_factor(it.reps, spec.cycles));
  for (const auto& r : it.reps) {
    s.per_rep_run.push_back(r.elapsed_seconds);
    s.counters.add(r.runtime_counters);
  }
  s.fanout_eff.push_back(it.sum_elapsed / (fanout_lanes(w) * it.wall));
  s.last_reps = it.reps;
}

/// Runs one checked iteration and folds it into `samples`.
void measured_iteration(Engine& engine, const Workload& w,
                        const Options& opt, Tracer& tracer, Samples& samples,
                        Tally& tally) {
  Span span(tracer, "iteration");
  Iteration it = iterate(engine, w.spec, w, tracer);
  std::string why;
  tally.record(check_reps(w, it.reps, opt.corrupt, why),
               w.name + " iteration", why);
  add_sample(samples, w, it);
}

/// Upper bound on the traced run's traced/untraced iteration pairs.
constexpr int kMaxPairs = 200;

// ------------------------------------------------------ layer probes

/// Median of `blocks` timings of `body`, each covering `per_block` calls;
/// returns ns per call.
double ns_per_call(int blocks, std::size_t per_block,
                   const std::function<void()>& body) {
  std::vector<double> v;
  for (int b = 0; b < blocks; ++b) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < per_block; ++i) body();
    v.push_back(seconds_since(start) * 1e9 / static_cast<double>(per_block));
  }
  return median(v);
}

/// A value the optimizer cannot discard.
volatile std::uint64_t g_sink = 0;

void probe_membership(const Workload& w, Tracer& tracer, Metrics& m) {
  Span layer(tracer, "layer.membership");
  const std::uint32_t n = w.spec.nodes;
  const std::size_t c = w.spec.topology.cache_size;
  std::vector<double> boot;
  std::unique_ptr<membership::NewscastNetwork> net;
  for (int k = 0; k < 3; ++k) {
    net = std::make_unique<membership::NewscastNetwork>(c);
    Rng rng(w.spec.seed + static_cast<std::uint64_t>(k));
    Span span(tracer, "NewscastNetwork::bootstrap_random");
    const auto start = Clock::now();
    net->bootstrap_random(n, 0, rng);
    boot.push_back(seconds_since(start));
  }
  m.set("membership.bootstrap_s", median(boot), "s");

  Rng rng(w.spec.seed + 3);
  std::uint64_t now = 1;
  {
    Span span(tracer, "NewscastNetwork::exchange");
    m.set("membership.exchange_ns", ns_per_call(5, 40000, [&] {
            const NodeId a(static_cast<std::uint32_t>(rng.below(n)));
            NodeId b(static_cast<std::uint32_t>(rng.below(n)));
            if (b == a) b = NodeId((a.value() + 1) % n);
            net->exchange(a, b, ++now);
          }), "ns");
  }
  {
    Span span(tracer, "NewscastNetwork::sample_view");
    std::uint64_t acc = 0;
    m.set("membership.sample_ns", ns_per_call(5, 400000, [&] {
            acc += net->sample_view(
                           NodeId(static_cast<std::uint32_t>(rng.below(n))),
                           rng)
                       .value();
          }), "ns");
    g_sink = g_sink + acc;
  }
}

void probe_parallel_runner(Tracer& tracer, Metrics& m) {
  Span span(tracer, "layer.parallel_runner");
  ParallelRunner pool(4);
  constexpr std::size_t jobs = 4;  // the shards of the 4x4 intra-rep geometry
  const std::function<void(std::size_t)> empty = [](std::size_t) {};
  m.set("parallel_runner.batch_us",
        ns_per_call(9, 2000, [&] { pool.run(jobs, empty); }) / 1e3, "us");
}

void probe_stats(const Workload& w, Tracer& tracer, Metrics& m) {
  Span span(tracer, "layer.stats");
  const std::size_t n = w.spec.nodes;
  const std::size_t t = w.spec.instances;
  constexpr std::size_t kSegments = 64;  // the intra-rep stats geometry
  std::vector<double> values(n * t);
  Rng rng(w.spec.seed + 17);
  for (double& v : values) v = rng.uniform(0.0, 2.0);
  std::vector<stats::RunningStats> seg(kSegments * t);
  std::vector<stats::RunningStats> lane(kSegments);
  std::vector<double> per_node;
  for (int rep = 0; rep < 5; ++rep) {
    std::fill(seg.begin(), seg.end(), stats::RunningStats{});
    const auto start = Clock::now();
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t s = u * kSegments / n;
      for (std::size_t i = 0; i < t; ++i) seg[s * t + i].add(values[u * t + i]);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t s = 0; s < kSegments; ++s) lane[s] = seg[s * t + i];
      acc += stats::merge_tree(lane).mean();
    }
    per_node.push_back(seconds_since(start) * 1e9 / static_cast<double>(n));
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
  }
  m.set("stats.reduce_ns_per_node", median(per_node), "ns");
}

void probe_core(const Workload& w, Tracer& tracer, Metrics& m) {
  Span span(tracer, "layer.core");
  const std::uint32_t n = w.spec.nodes;
  const std::size_t t = w.spec.instances;
  Rng rng(w.spec.seed + 29);
  std::vector<double> est(static_cast<std::size_t>(n) * t);
  for (double& v : est) v = rng.uniform(0.0, 1.0);
  m.set("core.lane_update_ns", ns_per_call(5, std::min<std::size_t>(n, 200000), [&] {
          double* a = &est[rng.below(n) * t];
          double* b = &est[rng.below(n) * t];
          for (std::size_t i = 0; i < t; ++i) {
            const double v = core::apply_update(core::UpdateKind::kAverage,
                                                a[i], b[i]);
            a[i] = v;
            b[i] = v;
          }
        }), "ns");

  constexpr std::uint32_t kLanes = 20;  // the §7.3 instance count
  const std::uint32_t nodes = std::min<std::uint32_t>(n, 100000);
  std::vector<double> slots(static_cast<std::size_t>(nodes) * kLanes);
  for (double& v : slots) v = rng.uniform(0.5, 1.5) / nodes;
  std::vector<double> scratch;
  std::size_t u = 0;
  double acc = 0.0;
  m.set("core.size_estimate_ns", ns_per_call(5, nodes, [&] {
          acc += robust_size_estimate(&slots[u * kLanes], kLanes, scratch);
          u = u + 1 == nodes ? 0 : u + 1;
        }), "ns");
  g_sink = g_sink + static_cast<std::uint64_t>(acc);
}

/// failure.apply_s: median run seconds with a churn plan minus median run
/// seconds with a NoFailures override, both through Engine::run_single on
/// the cycle driver, in alternating pairs. The plan is the spec's own where
/// it has one (count_robust), else count_robust's 1%/cycle churn, so the
/// failure path runs on every workload's config; cycles are capped at 5.
void probe_failure(const Workload& w, Tracer& tracer, Metrics& m) {
  Span span(tracer, "layer.failure");
  ScenarioSpec spec = w.spec;
  spec.with_driver(DriverKind::kCycle).with_engine(EngineKind::kSerial);
  spec.cycles = std::min<std::uint32_t>(spec.cycles, 5);
  if (spec.failure.kind == FailureSpec::Kind::kNone) {
    spec.with_failure(FailureSpec::churn_fraction(0.01));
  }
  Engine engine;
  const failure::NoFailures none;
  const std::uint64_t seed = first_rep_seed(w.spec);
  std::vector<double> with_plan, without;
  for (int k = 0; k < 5; ++k) {
    {
      Span s(tracer, "Engine::run_single(plan)");
      with_plan.push_back(engine.run_single(spec, seed).elapsed_seconds);
    }
    {
      Span s(tracer, "Engine::run_single(NoFailures)");
      without.push_back(engine.run_single(spec, seed, &none).elapsed_seconds);
    }
  }
  m.set("failure.apply_s", median(with_plan) - median(without), "s");
}

void probe_proto_transport(Tracer& tracer, Metrics& m) {
  constexpr std::uint32_t kEntries = 30;  // NEWSCAST c of every workload
  Rng rng(42);
  auto entries = [&] {
    std::vector<membership::CacheEntry> e;
    for (std::uint32_t i = 0; i < kEntries; ++i) {
      e.emplace_back(NodeId(static_cast<std::uint32_t>(rng.below(1000000))),
                     rng.below(1000));
    }
    return e;
  };
  const membership::CacheEntry fresh(NodeId(7), 1000);
  const std::vector<std::pair<std::string, proto::Message>> kinds = {
      {"agg_push", proto::AggPush{3, 12345, 0.75}},
      {"agg_reply", proto::AggReply{3, 12345, 0.5, false}},
      {"news_push", proto::NewsPush{entries(), fresh}},
      {"news_reply", proto::NewsReply{entries(), fresh}},
  };
  const int proto_layer = tracer.open("layer.proto");
  for (const auto& [label, msg] : kinds) {
    std::size_t bytes = 0;
    {
      Span s(tracer, "proto::encode(" + label + ")");
      m.set("proto.encode_ns." + label, ns_per_call(5, 50000, [&] {
              bytes += proto::encode(msg).size();
            }), "ns");
    }
    const std::vector<std::byte> frame = proto::encode(msg);
    {
      Span s(tracer, "proto::decode(" + label + ")");
      m.set("proto.decode_ns." + label, ns_per_call(5, 50000, [&] {
              bytes += proto::decode(frame).index();
            }), "ns");
    }
    g_sink = g_sink + bytes;
  }
  m.set("proto.agg_bytes",
        static_cast<double>(proto::encoded_size(kinds[0].second)), "B");
  m.set("proto.news_bytes",
        static_cast<double>(proto::encoded_size(kinds[2].second)), "B");
  tracer.close(proto_layer);

  Span layer(tracer, "layer.transport");
  Span span(tracer, "LoopbackTransport::send");
  runtime::LoopbackTransport transport;
  std::uint64_t delivered = 0;
  transport.set_sink([&](runtime::Frame&& f) { delivered += f.payload.size(); });
  const std::vector<std::byte> agg = proto::encode(kinds[0].second);
  const std::vector<std::byte> news = proto::encode(kinds[2].second);
  constexpr std::size_t kBlock = 20000;
  std::vector<std::vector<std::byte>> payloads(kBlock);
  std::vector<double> per_send;
  for (int b = 0; b < 5; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) payloads[i] = i % 2 ? news : agg;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kBlock; ++i) {
      transport.send(NodeId(1), NodeId(2), std::move(payloads[i]));
    }
    per_send.push_back(seconds_since(start) * 1e9 / kBlock);
  }
  g_sink = g_sink + delivered;
  m.set("transport.loopback_send_ns", median(per_send), "ns");
}

/// One direct Executor run over the loopback transport: AVERAGE peak on
/// NEWSCAST with the workload's loss and failure plan.
struct RuntimeRun {
  double setup = 0.0;
  runtime::ExecutorResult result;
};

RuntimeRun runtime_run(const Workload& w, std::uint32_t nodes,
                       std::uint32_t cycles, std::uint32_t workers,
                       Tracer& tracer) {
  const ScenarioSpec& s = w.spec;
  RuntimeRun out;
  runtime::FaultConfig faults;
  faults.p_loss = s.comm.message_loss;
  faults.seed = s.seed + 101;
  runtime::LoopbackTransport transport(faults);

  runtime::ExecutorConfig cfg;
  cfg.nodes = nodes;
  cfg.local_lo = 0;
  cfg.local_hi = nodes;
  cfg.cycles = cycles;
  cfg.workers = workers;
  cfg.seed = first_rep_seed(s);
  cfg.overlay = runtime::OverlayMode::kNewscast;
  cfg.cache_size = static_cast<std::uint32_t>(s.topology.cache_size);
  cfg.initial.assign(nodes, 0.0);
  cfg.initial[0] = nodes;
  if (s.failure.kind == FailureSpec::Kind::kChurnFraction) {
    cfg.max_joins = static_cast<std::uint32_t>(nodes * s.failure.fraction) *
                    cycles;
  }
  const auto plan = s.failure.build(nodes);
  std::optional<runtime::Executor> executor;
  {
    Span span(tracer, "Executor::ctor(" + std::to_string(workers) + "w)");
    const auto start = Clock::now();
    executor.emplace(std::move(cfg), transport);
    out.setup = seconds_since(start);
  }
  Span span(tracer, "Executor::run(" + std::to_string(workers) + "w)");
  out.result = executor->run(*plan);
  return out;
}

/// Direct IntraRepSimulation run with the public phase profile.
struct IntraRun {
  double setup = 0.0;
  double run = 0.0;
  IntraRepPhaseProfile profile;
  std::vector<stats::RunningStats> per_cycle;
  std::vector<double> outputs;
};

IntraRun intra_run(const Workload& w, unsigned threads, Tracer& tracer) {
  const ScenarioSpec& s = w.spec;
  constexpr unsigned kShards = 4;
  const std::uint64_t seed = first_rep_seed(s);
  const std::string geometry =
      "(" + std::to_string(threads) + "x" + std::to_string(kShards) + ")";
  IntraRun out;
  ParallelRunner pool(threads);
  std::optional<IntraRepSimulation> sim;
  {
    Span span(tracer, "IntraRepSimulation::ctor+init" + geometry);
    const auto start = Clock::now();
    sim.emplace(sim_config(s, seed), seed, kShards);
    if (s.aggregate == AggregateKind::kCount) {
      sim->init_count_leaders();
    } else {
      sim->init_peak(static_cast<double>(s.nodes));
    }
    out.setup = seconds_since(start);
  }
  const auto plan = s.failure.build(s.nodes);
  sim->set_phase_profile(&out.profile);
  {
    Span span(tracer, "IntraRepSimulation::run" + geometry);
    const auto start = Clock::now();
    sim->run(*plan, pool);
    out.run = seconds_since(start);
  }
  out.per_cycle = sim->cycle_stats();
  out.outputs = s.aggregate == AggregateKind::kCount ? sim->size_estimates()
                                                     : sim->scalar_estimates();
  return out;
}

double ratio(std::uint64_t num, double den) {
  return den > 0.0 ? static_cast<double>(num) / den : 0.0;
}

// ----------------------------------------------------------- main

void print_provenance(const Options& opt) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::cout << "provenance: {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"seconds\": "
            << number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"scale\": \"" << (opt.tiny ? "tiny" : "full")
            << "\", \"git_sha\": \"" << opt.git_sha << "\", \"nproc\": "
            << std::thread::hardware_concurrency() << ", \"cpu\": \"" << cpu
            << "\", \"compiler\": \"" << __VERSION__
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}\n";
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--scale") {
      opt.tiny = value() == "tiny";
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--git-sha") {
      opt.git_sha = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

/// --trace 0: the end-to-end metrics of one checked iteration. On the
/// runtime it adds the two wire-level figures that only the executor has.
void run_untraced(const Workload& w, const Options& opt, Tally& tally,
                  Metrics& m) {
  Tracer off(false);
  Engine engine;
  Samples s;
  measured_iteration(engine, w, opt, off, s, tally);
  m.set("wall_s", s.wall[0], "s");
  m.set("setup_s", s.setup[0], "s");
  m.set("node_cycles_per_s", s.ncps[0], "1/s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("conv_factor", s.conv[0], "ratio");
  if (w.path == Path::kRuntime) {
    const auto& c = s.counters;
    m.set("exchange_fail_ratio",
          ratio(c.busy_nacks + c.timeouts, static_cast<double>(c.pushes_sent)),
          "ratio");
    m.set("wire_bytes_per_node_cycle",
          ratio(c.bytes_encoded,
                static_cast<double>(w.spec.nodes) * w.spec.cycles),
          "B");
  }
}

/// --trace 1: traced/untraced iterations, scaling references and the
/// per-layer probes.
void run_traced(const Workload& w, const Options& opt, Tracer& tracer,
                Tally& tally, Metrics& m) {
  Tracer off(false);
  Engine engine;
  Samples traced, plain;
  const auto start = Clock::now();
  // Alternate traced and untraced iterations so both see the same
  // machine state; their wall difference is the tracing overhead.
  for (int pair = 1; pair <= kMaxPairs; ++pair) {
    measured_iteration(engine, w, opt, tracer, traced, tally);
    measured_iteration(engine, w, opt, off, plain, tally);
    const double elapsed = seconds_since(start);
    if (pair >= 2 && elapsed * (pair + 1) / pair > opt.seconds / 2) break;
  }
  const double wall4 = median(plain.wall);

  probe_membership(w, tracer, m);
  {
    Span layer(tracer, "layer.experiment");
    std::vector<double> setup = traced.setup;
    setup.insert(setup.end(), plain.setup.begin(), plain.setup.end());
    m.set("experiment.setup_s", median(setup), "s");
    m.set("experiment.run_s", median(plain.per_rep_run), "s");
    m.set("experiment.rep_fanout_efficiency", median(plain.fanout_eff),
          "ratio");
  }

  // intra_rep: 4x4 vs 1x4 geometry on the workload's config, checked
  // bit-identical.
  {
    Span layer(tracer, "layer.intra_rep");
    const IntraRun four = intra_run(w, 4, tracer);
    const IntraRun one = intra_run(w, 1, tracer);
    tally.record(identical(four.per_cycle, one.per_cycle, four.outputs,
                           one.outputs),
                 "intra_rep 1x4 vs 4x4", "results not bit-identical");
    m.set("intra_rep.parallel_s", four.profile.parallel_seconds, "s");
    m.set("intra_rep.serial_residue_s",
          four.profile.total_seconds - four.profile.parallel_seconds, "s");
    m.set("intra_rep.speedup_4t", one.run / four.run, "x");
  }

  // runtime: direct Executor runs at 4 and 1 workers. Workloads on other
  // engines probe it on their own config, capped at N = 10⁵ and 5 cycles.
  {
    Span layer(tracer, "layer.runtime");
    const bool own = w.path == Path::kRuntime;
    const std::uint32_t n = std::min<std::uint32_t>(w.spec.nodes, 100000);
    const std::uint32_t cycles = own ? w.spec.cycles
                                     : std::min<std::uint32_t>(w.spec.cycles, 5);
    const RuntimeRun four = runtime_run(w, n, cycles, 4, tracer);
    const RuntimeRun one = runtime_run(w, n, cycles, 1, tracer);
    if (own) {
      for (const RuntimeRun* r : {&four, &one}) {
        const double sum_final =
            r->result.sum_final + (opt.corrupt ? 1.0 : 0.0);
        tally.record(
            std::fabs(sum_final - r->result.sum_initial) <= 1e-9 * n,
            "runtime sum conservation",
            "sum " + number(r->result.sum_initial) + " -> " +
                number(sum_final));
      }
      m.set("experiment.rep_speedup_4t",
            (one.setup + one.result.elapsed_seconds) /
                (four.setup + four.result.elapsed_seconds),
            "x");
    }
    const auto& c = four.result.counters;
    const double pushes = static_cast<double>(c.pushes_sent);
    const double node_cycles = static_cast<double>(n) * cycles;
    m.set("runtime.busy_nack_ratio", ratio(c.busy_nacks, pushes), "ratio");
    m.set("runtime.timeout_ratio", ratio(c.timeouts, pushes), "ratio");
    m.set("runtime.exchange_fail_ratio",
          ratio(c.busy_nacks + c.timeouts, pushes), "ratio");
    m.set("runtime.msgs_per_node_cycle", ratio(c.messages_sent, node_cycles),
          "count");
    m.set("runtime.news_per_node_cycle", ratio(c.news_exchanges, node_cycles),
          "count");
    m.set("runtime.wire_bytes_per_node_cycle",
          ratio(c.bytes_encoded, node_cycles), "B");
    m.set("runtime.setup_s", four.setup, "s");
    m.set("runtime.run_s", four.result.elapsed_seconds, "s");
    m.set("runtime.speedup_4w",
          one.result.elapsed_seconds / four.result.elapsed_seconds, "x");
  }

  if (w.path == Path::kRepParallel) {
    // The fan-out's 1-thread reference: the same spec on one thread,
    // checked bit-identical with the 4-thread result.
    Span layer(tracer, "scaling.rep_parallel_1t");
    ScenarioSpec one = w.spec;
    one.threads = 1;
    const Iteration it = iterate(engine, one, w, tracer);
    std::string why;
    const bool ok = check_reps(w, it.reps, opt.corrupt, why) &&
                    identical_reps(it.reps, plain.last_reps);
    tally.record(ok, "rep_parallel 1 vs 4 threads",
                 why.empty() ? "results not bit-identical" : why);
    m.set("experiment.rep_speedup_4t", it.wall / wall4, "x");
  }

  probe_parallel_runner(tracer, m);
  probe_stats(w, tracer, m);
  probe_core(w, tracer, m);
  probe_failure(w, tracer, m);
  probe_proto_transport(tracer, m);
  m.set("trace.overhead_s", median(traced.wall) - wall4, "s");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  try {
    print_provenance(opt);
    const Workload w = make_workload(opt.workload, opt.seed, opt.tiny);
    Tracer tracer(opt.trace);
    Tally tally;
    Metrics m;
    if (opt.trace) {
      run_traced(w, opt, tracer, tally, m);
      if (!opt.trace_out.empty() && !tracer.write(opt.trace_out)) {
        std::cerr << "perfbench_driver: cannot write " << opt.trace_out
                  << "\n";
        return 2;
      }
    } else {
      run_untraced(w, opt, tally, m);
    }
    std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << m.json() << "}" << std::endl;
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
