// wavebench — the PIF wave benchmark: one workload per process.
//
//   wavebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny]
//
// Workloads (see perfbench/README.md for why each exists):
//
//   sync_waves       SoaEngine, n = 4096 random graph, SynchronousDaemon,
//                    back-to-back clean waves from the initial configuration;
//   central_recover  SoaEngine on a 32x32 torus, CentralRandomDaemon: per
//                    episode randomize() (an arbitrary configuration), then
//                    run until the root's first initiated cycle closes;
//   emu_waves        GuardedEmulation<PifProtocol, StateCodec>, n = 256,
//                    over the clean in-process mp::Network;
//   udp_serve        mp::WaveService, n = 16, window 8, 4 streams, over an
//                    ImpairmentShim (loss 0.2, dup 0.05, reorder 0.05) on
//                    real localhost UDP sockets.
//
// The program is driven only through its public calls and timed from
// outside.  Random graphs, corruptions and shim RNGs derive from --seed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a traced phase
// (call-site timers, wave spans, the GhostTracker oracle) followed by an
// untraced phase of equal length and prints the per-layer metrics, whose
// trace.overhead_ratio compares the two.  The result is one JSON object on
// stdout; progress goes to stderr.  Exit status: 0 when every check passed,
// 1 when any wave or episode failed, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "mp/guarded_emulation.hpp"
#include "mp/impairment.hpp"
#include "mp/link.hpp"
#include "mp/network.hpp"
#include "mp/serve.hpp"
#include "mp/udp_transport.hpp"
#include "obs/json.hpp"
#include "pif/codec.hpp"
#include "pif/ghost.hpp"
#include "pif/instrument.hpp"
#include "pif/protocol.hpp"
#include "pif/soa_engine.hpp"
#include "sim/daemon.hpp"
#include "tracer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace graph = snappif::graph;
namespace mp = snappif::mp;
namespace obs = snappif::obs;
namespace pif = snappif::pif;
namespace sim = snappif::sim;
namespace util = snappif::util;

// ---------------------------------------------------------------------------
// Metric catalog.  BENCHMARK.json lists the same names; the smoke test checks
// that they agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"waves_per_s", "1/s"},
    {"wave_p90_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},
    {"engine.step_ns", "ns"},
    {"engine.enabled_mean", "count"},
    {"engine.actions_per_step", "count"},
    {"engine.steps_per_wave", "count"},
    {"engine.rounds_per_wave", "count"},
    {"engine.corrections_per_episode", "count"},
    {"daemon.select_ns", "ns"},
    {"engine.corrupt_ms", "ms"},
    {"emu.round_us", "us"},
    {"emu.rounds_per_wave", "count"},
    {"emu.actions_per_wave", "count"},
    {"emu.bytes_per_processor", "B"},
    {"link.data_per_wave", "count"},
    {"link.acks_per_wave", "count"},
    {"link.superseded_per_wave", "count"},
    {"link.retransmits_per_wave", "count"},
    {"link.fast_retransmits_per_wave", "count"},
    {"link.ooo_buffered_per_wave", "count"},
    {"link.useful_ratio", "ratio"},
    {"transport.frames_per_wave", "count"},
    {"transport.batches_per_wave", "count"},
    {"transport.dropped_per_wave", "count"},
    {"transport.step_us", "us"},
    {"link.tick_us", "us"},
    {"serve.pump_us", "us"},
    {"link.flush_us", "us"},
    {"loop.steps_per_wave", "count"},
    {"serve.deferrals_per_wave", "count"},
    {"oracle.ms_per_wave", "ms"},
    {"cpu.sys_ms_per_wave", "ms"},
    {"cpu.user_ms_per_wave", "ms"},
    {"cpu.ctx_switches_per_wave", "count"},
    {"trace.overhead_ratio", "ratio"},
};

// ---------------------------------------------------------------------------
// Run record

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// What one run reports: checks and metric values by name.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> values;
  std::uint64_t latency_samples = 0;
  // Reported beside the metrics, not as one: the host's speed regimes make a
  // median of wave latency flip between them (perfbench/README.md).
  double latency_p50_ms = 0.0;
  double traced_phase_ns = 0.0;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 16) {
      failures.push_back(why);
    }
    std::fprintf(stderr, "wavebench: FAIL %s\n", why.c_str());
  }
  void set(std::string_view name, double value) {
    for (auto& [n, v] : values) {
      if (n == name) {
        v = value;
        return;
      }
    }
    values.emplace_back(std::string(name), value);
  }
  [[nodiscard]] double get(std::string_view name) const {
    for (const auto& [n, v] : values) {
      if (n == name) {
        return v;
      }
    }
    return 0.0;
  }
};

struct CpuUsage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double ctx_switches = 0.0;

  static CpuUsage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    CpuUsage u;
    u.user_ms = static_cast<double>(ru.ru_utime.tv_sec) * 1e3 +
                static_cast<double>(ru.ru_utime.tv_usec) / 1e3;
    u.sys_ms = static_cast<double>(ru.ru_stime.tv_sec) * 1e3 +
               static_cast<double>(ru.ru_stime.tv_usec) / 1e3;
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
  CpuUsage operator-(const CpuUsage& o) const {
    return {user_ms - o.user_ms, sys_ms - o.sys_ms,
            ctx_switches - o.ctx_switches};
  }
};

/// A field of /proc/self/status in bytes (the kB-valued Vm* lines); 0 if
/// absent.  VmHWM is the peak resident set of this program image: unlike
/// getrusage's ru_maxrss it does not inherit the parent's peak across exec.
double status_bytes(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with(field) && line.size() > field.size() &&
        line[field.size()] == ':') {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Waves (or episodes) over which the exact per-wave counts are taken: a
/// fixed prefix of the traced phase, which starts from the freshly set-up
/// system, so the counts repeat exactly across runs of one seed.
constexpr std::uint64_t kExactPrefix = 4;

/// End-to-end runs collect at least this many latency samples, so that the
/// p90 has ten beyond it, even when that takes longer than --seconds.
constexpr std::size_t kMinSamples = 100;

/// Moves the benchmark thread across every CPU it may run on, so that each
/// run samples all of them alike.  On the reference host one vCPU ran the
/// same set-up 1.5x slower than another, run after run, so a figure taken
/// on one CPU depended on where the scheduler had placed the process.
class CpuRotor {
 public:
  /// Time on one CPU before tick() moves on: long enough that refilling the
  /// caches after a move is a small part of it.
  static constexpr std::uint64_t kSliceNs = 250'000'000;

  CpuRotor() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpus_.push_back(c);
      }
    }
  }

  /// CPUs that pin() cycles through (1 when it cannot pin).
  [[nodiscard]] std::size_t count() const {
    return std::max<std::size_t>(cpus_.size(), 1);
  }

  /// Pins the thread to CPU i mod count().
  void pin(std::size_t i) {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  /// Pins the thread to the next CPU once the current slice is over.
  void tick(std::uint64_t t) {
    if (t - slice_start_ns_ >= kSliceNs) {
      slice_start_ns_ = t;
      pin(++next_);
    }
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::uint64_t slice_start_ns_ = 0;
};

CpuRotor& cpu_rotor() {
  static CpuRotor rotor;
  return rotor;
}

/// One measured stretch of a workload.
class Phase {
 public:
  /// Stamps the start (wall and CPU) and, when traced, opens the phase span.
  Phase(Tracer* tracer, double seconds, std::size_t min_samples)
      : tracer_(tracer),
        min_samples_(min_samples),
        cpu0_(CpuUsage::now()),
        start_ns_(now_ns()),
        deadline_ns_(start_ns_ + static_cast<std::uint64_t>(seconds * 1e9)),
        span_(tracer != nullptr ? tracer->begin_span("phase.traced", start_ns_)
                                : 0) {}

  /// Counts one closed wave (or episode) and records its latency and span;
  /// between waves, moves to the next CPU when its slice is over.
  void close_wave(std::uint64_t open_ns, std::uint64_t close_ns,
                  std::string_view span_name = "wave") {
    latency_ms.push_back(static_cast<double>(close_ns - open_ns) / 1e6);
    ++waves;
    end_ns = close_ns;
    if (tracer_ != nullptr) {
      tracer_->record(span_name, open_ns, close_ns, span_);
    }
    cpu_rotor().tick(close_ns);
  }

  /// Past the deadline with enough behind it: kExactPrefix waves when traced
  /// (`exact_done`), min_samples latency samples when not.
  [[nodiscard]] bool finished(std::uint64_t t, bool exact_done) const {
    return t >= deadline_ns_ && (tracer_ != nullptr
                                     ? exact_done
                                     : latency_ms.size() >= min_samples_);
  }

  /// Stamps the end; when traced, closes the span and sets the per-wave CPU
  /// metrics.
  void finish(Report& r) {
    end_ns = std::max(end_ns, start_ns_ + 1);
    const CpuUsage cpu = CpuUsage::now() - cpu0_;
    if (tracer_ != nullptr) {
      tracer_->end_span(span_, end_ns);
      const double w = static_cast<double>(waves);
      r.set("cpu.sys_ms_per_wave", ratio(cpu.sys_ms, w));
      r.set("cpu.user_ms_per_wave", ratio(cpu.user_ms, w));
      r.set("cpu.ctx_switches_per_wave", ratio(cpu.ctx_switches, w));
      r.traced_phase_ns = static_cast<double>(end_ns - start_ns_);
    }
  }

  [[nodiscard]] double rate() const {
    return ratio(static_cast<double>(waves),
                 static_cast<double>(end_ns - start_ns_) / 1e9);
  }

  std::uint64_t waves = 0;         // waves (or episodes) closed
  std::uint64_t end_ns = 0;        // last close (or the phase end)
  std::vector<double> latency_ms;  // per wave / episode

 private:
  Tracer* tracer_;
  std::size_t min_samples_;
  CpuUsage cpu0_;
  std::uint64_t start_ns_;
  std::uint64_t deadline_ns_;
  std::uint64_t span_;
};

/// Mean per-call time of a traced site, in the given unit (ns per unit).
double site_mean(const Tracer& tr, std::string_view name, double ns_per_unit) {
  const Tracer::Site* s = tr.find(name);
  if (s == nullptr || s->count == 0) {
    return 0.0;
  }
  return static_cast<double>(s->total_ns) / static_cast<double>(s->count) /
         ns_per_unit;
}

/// Time spent in the oracle.* call sites per wave the oracle judged.
void set_oracle_metric(Report& r, const Tracer& tr, std::uint64_t judged) {
  double ns = 0.0;
  for (const Tracer::Site& s : tr.sites()) {
    if (s.name.starts_with("oracle.")) {
      ns += static_cast<double>(s.total_ns);
    }
  }
  r.set("oracle.ms_per_wave", ratio(ns / 1e6, static_cast<double>(judged)));
}

/// Setup timing: builds the graph, then the system on it, `reps` times, and
/// reports the mean over CPUs of each CPU's median.  The reps run in one
/// block per CPU, so all but the first of a block find the caches warm, as
/// on one CPU.  Each rep replaces the previous graph and system;
/// make_system(rep) receives the rep index.
template <class MakeGraph, class MakeSystem>
void time_setup(int reps, Report& report, MakeGraph make_graph,
                MakeSystem make_system) {
  const std::size_t cpus = cpu_rotor().count();
  std::vector<std::vector<double>> total(cpus);
  std::vector<std::vector<double>> graph_s(cpus);
  for (int i = 0; i < reps; ++i) {
    const std::size_t cpu = static_cast<std::size_t>(i) * cpus /
                            static_cast<std::size_t>(reps);
    cpu_rotor().pin(cpu);
    const std::uint64_t t0 = now_ns();
    make_graph();
    const std::uint64_t t1 = now_ns();
    make_system(i);
    const std::uint64_t t2 = now_ns();
    graph_s[cpu].push_back(static_cast<double>(t1 - t0) / 1e9);
    total[cpu].push_back(static_cast<double>(t2 - t0) / 1e9);
  }
  const auto mean_of_medians = [](const std::vector<std::vector<double>>& v) {
    double sum = 0.0;
    std::size_t used = 0;
    for (const std::vector<double>& per_cpu : v) {
      if (!per_cpu.empty()) {
        sum += median(per_cpu);
        ++used;
      }
    }
    return ratio(sum, static_cast<double>(used));
  };
  report.set("setup_s", mean_of_medians(total));
  report.set("graph.build_s", mean_of_medians(graph_s));
}

/// Per-wave link and transport accounting from LinkStats / TransportStats
/// deltas; `inner` is the backend under the shim.
struct StackCounters {
  mp::LinkStats link;
  mp::TransportStats inner;
  mp::TransportStats shim;
};

void set_link_metrics(Report& r, const StackCounters& a, const StackCounters& b,
                      double waves) {
  const auto per_wave = [waves](std::uint64_t x, std::uint64_t y) {
    return ratio(static_cast<double>(y - x), waves);
  };
  r.set("link.data_per_wave", per_wave(a.link.data_sent, b.link.data_sent));
  r.set("link.acks_per_wave", per_wave(a.link.acks_sent, b.link.acks_sent));
  r.set("link.superseded_per_wave",
        per_wave(a.link.superseded, b.link.superseded));
  r.set("link.retransmits_per_wave",
        per_wave(a.link.retransmits, b.link.retransmits));
  r.set("link.fast_retransmits_per_wave",
        per_wave(a.link.fast_retransmits, b.link.fast_retransmits));
  r.set("link.ooo_buffered_per_wave",
        per_wave(a.link.ooo_buffered, b.link.ooo_buffered));
  r.set("link.useful_ratio",
        ratio(static_cast<double>(b.link.delivered - a.link.delivered),
              static_cast<double>(b.link.data_sent - a.link.data_sent +
                                  b.link.retransmits - a.link.retransmits)));
  r.set("transport.frames_per_wave", per_wave(a.inner.sent, b.inner.sent));
  r.set("transport.batches_per_wave", per_wave(a.inner.batches, b.inner.batches));
  r.set("transport.dropped_per_wave",
        per_wave(a.inner.dropped + a.shim.dropped,
                 b.inner.dropped + b.shim.dropped));
}

std::uint64_t correction_count(const sim::IEngine<pif::PifProtocol>& e) {
  return e.action_count(pif::kBCorrection) + e.action_count(pif::kFCorrection);
}

std::uint64_t total_actions(const sim::IEngine<pif::PifProtocol>& e) {
  std::uint64_t sum = 0;
  for (sim::ActionId a = 0; a < pif::kNumActions; ++a) {
    sum += e.action_count(a);
  }
  return sum;
}

/// Engine counters at one instant, for per-wave deltas.
struct EngineCounters {
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;
  std::uint64_t corrections = 0;

  static EngineCounters of(const sim::IEngine<pif::PifProtocol>& e) {
    return {e.steps(), e.rounds(), total_actions(e), correction_count(e)};
  }
};

/// The engine's per-layer metrics from a traced phase: timed steps, the
/// enabled-set size sampled after each step, and counter deltas over the
/// exact prefix (`exact_*`, already divided by kExactPrefix).
void set_engine_metrics(Report& r, const Tracer& tr, double enabled_sum,
                        const EngineCounters& phase0,
                        const EngineCounters& phase1,
                        const EngineCounters& exact) {
  const double steps = static_cast<double>(phase1.steps - phase0.steps);
  r.set("engine.step_ns", site_mean(tr, "engine.step", 1.0));
  r.set("engine.enabled_mean", ratio(enabled_sum, steps));
  r.set("engine.actions_per_step",
        ratio(static_cast<double>(phase1.actions - phase0.actions), steps));
  const double k = static_cast<double>(kExactPrefix);
  r.set("engine.steps_per_wave", static_cast<double>(exact.steps) / k);
  r.set("engine.rounds_per_wave", static_cast<double>(exact.rounds) / k);
  r.set("engine.corrections_per_episode",
        static_cast<double>(exact.corrections) / k);
}

// ---------------------------------------------------------------------------
// Workload interface

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the system (timed, repeated), then starts it.
  virtual void setup(Report& report) = 0;
  /// Runs waves until `seconds` have passed (finishing the wave in flight),
  /// at least `min_samples` of them untraced and kExactPrefix traced.  A
  /// traced run (tracer != nullptr) also runs the correctness oracle and
  /// sets the workload's per-layer metrics.
  virtual Phase run(double seconds, Tracer* tracer, Report& report,
                    std::size_t min_samples) = 0;
};

std::unique_ptr<pif::SoaEngine> make_engine(const graph::Graph& g,
                                            std::uint64_t seed) {
  return std::make_unique<pif::SoaEngine>(
      pif::PifProtocol(g, pif::Params::for_graph(g)), g, seed);
}

// ---------------------------------------------------------------------------
// sync_waves

class SyncWaves final : public Workload {
 public:
  // n = 4096 keeps the engine's columns inside L2.  At n = 100000 (30 MB)
  // the wave rate followed the host's memory traffic: 28% spread over five
  // seeds where n = 4096, interleaved with it, spread 9% (perfbench/README.md).
  SyncWaves(std::uint64_t seed, bool tiny)
      : seed_(seed), n_(tiny ? 2000 : 4096) {}

  void setup(Report& report) override {
    time_setup(
        61, report,
        [&] {
          engine_.reset();
          graph_ = std::make_unique<graph::Graph>(
              graph::make_random_connected(n_, 2 * std::size_t{n_}, seed_));
        },
        [&](int) { engine_ = make_engine(*graph_, seed_); });
  }

  Phase run(double seconds, Tracer* tr, Report& report,
            std::size_t min_samples) override {
    pif::SoaEngine& e = *engine_;
    const int step_site = tr != nullptr ? tr->site("engine.step") : 0;
    const std::uint64_t n = graph_->n();
    const std::uint64_t budget = 10 * n + 1000;
    const EngineCounters c0 = EngineCounters::of(e);
    double enabled_sum = 0.0;
    // Traced, half the time goes to the replay oracle after the phase.
    Phase ph(tr, tr != nullptr ? seconds / 2 : seconds, min_samples);
    std::uint64_t open_ns = 0;
    std::uint64_t wave_steps = 0;
    bool open = false;
    while (true) {
      bool stepped = false;
      {
        Tracer::Scope s(tr, step_site);
        stepped = e.step(daemon_);
      }
      if (!stepped) {
        report.fail("sync_waves: no processor enabled");
        break;
      }
      if (tr != nullptr) {
        enabled_sum += static_cast<double>(e.enabled_processors().size());
      }
      const std::uint64_t t = now_ns();
      // A clean wave costs exactly n B-actions and n F-actions: the root's
      // B-action is the first B past the closed waves' n each, and its
      // F-action the n-th F of the wave.
      if (!open && e.action_count(pif::kBAction) > waves_ * n) {
        open = true;
        open_ns = t;
      }
      if (e.action_count(pif::kFAction) >= (waves_ + 1) * n) {
        ++report.attempted;
        if (!open || e.action_count(pif::kBAction) != (waves_ + 1) * n ||
            e.action_count(pif::kFAction) != (waves_ + 1) * n ||
            correction_count(e) != 0) {
          report.fail("sync_waves: wave " + std::to_string(waves_) +
                      " did not cost exactly n B- and n F-actions");
          break;
        }
        ph.close_wave(open_ns, t);
        if (close_.size() <= kExactPrefix) {
          close_.push_back(EngineCounters::of(e));
        }
        if (tr != nullptr) {
          close_steps_.push_back(e.steps());
        }
        ++waves_;
        open = false;
        wave_steps = 0;
        if (ph.finished(t, close_.size() > kExactPrefix)) {
          break;
        }
      }
      if (++wave_steps > budget) {
        report.fail("sync_waves: wave exceeded its step budget");
        break;
      }
    }
    ph.finish(report);
    if (tr != nullptr) {
      if (close_.size() > kExactPrefix) {
        const EngineCounters& a = close_.front();
        const EngineCounters& b = close_[kExactPrefix];
        set_engine_metrics(report, *tr, enabled_sum, c0, EngineCounters::of(e),
                           {b.steps - a.steps, b.rounds - a.rounds, 0,
                            b.corrections - a.corrections});
      }
      replay_oracle(seconds / 2, *tr, report);
    }
    return ph;
  }

 private:
  /// Replays the same seed on a second engine with a GhostTracker attached
  /// (attaching it to the timed engine would turn off the synchronous fast
  /// path being measured) and asserts PIF1 and PIF2 and not-aborted on every
  /// verdict, plus that each wave closes at the step the timed engine closed
  /// it.  Engines are seed-deterministic, so this is the timed trajectory.
  void replay_oracle(double seconds, Tracer& tr, Report& report) {
    const int site = tr.site("oracle.replay");
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::unique_ptr<pif::SoaEngine> replay = make_engine(*graph_, seed_);
    pif::GhostTracker ghost(*graph_, replay->protocol().root());
    pif::attach(*replay, ghost);
    const std::uint64_t budget = 10 * std::uint64_t{graph_->n()} + 1000;
    std::uint64_t checked = 0;
    std::uint64_t steps_since = 0;
    while (checked < close_steps_.size()) {
      {
        Tracer::Scope s(&tr, site);
        if (!replay->step(daemon_)) {
          report.fail("sync_waves oracle: no processor enabled");
          return;
        }
      }
      if (ghost.cycles_completed() > checked) {
        const pif::CycleVerdict& v = ghost.verdicts()[checked];
        if (!v.ok() || replay->steps() != close_steps_[checked]) {
          report.fail("sync_waves oracle: wave " + std::to_string(checked) +
                      " verdict not PIF1+PIF2 or closed off the timed step");
        }
        ++checked;
        steps_since = 0;
        if (now_ns() >= deadline) {
          break;
        }
      }
      if (++steps_since > budget) {
        report.fail("sync_waves oracle: replay wave exceeded its budget");
        return;
      }
    }
    tr.record("oracle", t0, now_ns());
    set_oracle_metric(report, tr, checked);
  }

  std::uint64_t seed_;
  graph::NodeId n_;
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<pif::SoaEngine> engine_;
  sim::SynchronousDaemon daemon_;
  std::uint64_t waves_ = 0;            // closed since setup
  std::vector<EngineCounters> close_;  // at the first kExactPrefix+1 closes
  std::vector<std::uint64_t> close_steps_;  // engine steps at each traced close
};

// ---------------------------------------------------------------------------
// central_recover

/// Times every select() of the wrapped daemon.  Traced runs only; the
/// central daemon takes the engine's generic path either way, so the
/// wrapper changes no code path (it would on sync_waves).
class TimedDaemon final : public sim::IDaemon {
 public:
  TimedDaemon(sim::IDaemon& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer), site_(tracer.site("daemon.select")) {}
  void select(std::span<const sim::ProcessorId> enabled,
              const sim::DaemonContext& ctx, util::Rng& rng,
              std::vector<sim::ProcessorId>& out) override {
    Tracer::Scope s(tracer_, site_);
    inner_->select(enabled, ctx, rng, out);
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }

 private:
  sim::IDaemon* inner_;
  Tracer* tracer_;
  int site_;
};

class CentralRecover final : public Workload {
 public:
  // A fixed torus: on seeded random graphs the graph's shape, not the fault,
  // set first-cycle time (5x apart between seeds); the seed drives the
  // corruptions and the daemon's choices.
  CentralRecover(std::uint64_t seed, bool tiny)
      : seed_(seed), side_(tiny ? 10 : 32), corruption_seeds_(seed) {}

  void setup(Report& report) override {
    time_setup(
        101, report,
        [&] {
          engine_.reset();
          graph_ = std::make_unique<graph::Graph>(graph::make_torus(side_, side_));
        },
        [&](int) { engine_ = make_engine(*graph_, seed_); });
  }

  Phase run(double seconds, Tracer* tr, Report& report,
            std::size_t min_samples) override {
    pif::SoaEngine& e = *engine_;
    const sim::ProcessorId root = e.protocol().root();
    const std::uint64_t budget =
        std::max<std::uint64_t>(1000000, 20000ULL * graph_->n());
    std::unique_ptr<TimedDaemon> timed;
    std::unique_ptr<pif::GhostTracker> ghost;
    int step_site = 0;
    int corrupt_site = 0;
    int oracle_site = 0;
    if (tr != nullptr) {
      timed = std::make_unique<TimedDaemon>(daemon_, *tr);
      step_site = tr->site("engine.step");
      corrupt_site = tr->site("engine.corrupt");
      oracle_site = tr->site("oracle.ghost");
      ghost = std::make_unique<pif::GhostTracker>(*graph_, root);
      e.set_apply_hook([&e, &g = *ghost, tr, oracle_site](
                           sim::ProcessorId p, sim::ActionId a,
                           const pif::SoaEngine::Config&, const pif::State& s) {
        Tracer::Scope scope(tr, oracle_site);
        g.note_step(e.steps());
        g.on_apply(p, a, s);
      });
    }
    sim::IDaemon& daemon = timed ? static_cast<sim::IDaemon&>(*timed) : daemon_;
    const EngineCounters c0 = EngineCounters::of(e);
    double enabled_sum = 0.0;
    EngineCounters exact;
    Phase ph(tr, seconds, min_samples);
    while (true) {
      util::Rng rng(corruption_seeds_());
      if (ghost) {
        ghost->reset();
      }
      {
        Tracer::Scope s(tr, corrupt_site);
        e.randomize(rng);
      }
      pif::Phase prev = e.config().state(root).pif;
      const EngineCounters before = EngineCounters::of(e);
      const std::uint64_t t0 = now_ns();
      ++report.attempted;
      // The root's first initiated cycle: it opens when the root enters B
      // (only its B-action does that) and closes when the root leaves B by
      // its F-action.  Leaving B any other way aborts the cycle.
      bool initiated = false;
      bool ok = false;
      std::uint64_t steps = 0;
      while (true) {
        bool stepped = false;
        {
          Tracer::Scope s(tr, step_site);
          stepped = e.step(daemon);
        }
        if (!stepped) {
          report.fail("central_recover: no processor enabled");
          break;
        }
        if (tr != nullptr) {
          enabled_sum += static_cast<double>(e.enabled_processors().size());
        }
        const pif::Phase now_phase = e.config().state(root).pif;
        if (!initiated) {
          initiated = now_phase == pif::Phase::kB && prev != pif::Phase::kB;
        } else if (now_phase != pif::Phase::kB) {
          ok = now_phase == pif::Phase::kF;
          if (!ok) {
            report.fail("central_recover: episode " +
                        std::to_string(episodes_) + " aborted its first cycle");
          }
          break;
        }
        prev = now_phase;
        if (++steps > budget) {
          report.fail("central_recover: episode exceeded its step budget");
          break;
        }
      }
      const std::uint64_t t1 = now_ns();
      if (!ok) {
        break;
      }
      if (ghost) {
        Tracer::Scope s(tr, oracle_site);
        if (ghost->verdicts().empty() || !ghost->verdicts().front().ok()) {
          report.fail("central_recover oracle: episode " +
                      std::to_string(episodes_) +
                      " first cycle not PIF1+PIF2 or aborted");
        }
      }
      if (episodes_ < kExactPrefix) {
        const EngineCounters after = EngineCounters::of(e);
        exact.steps += after.steps - before.steps;
        exact.rounds += after.rounds - before.rounds;
        exact.corrections += after.corrections - before.corrections;
      }
      ph.close_wave(t0, t1, "episode");
      ++episodes_;
      if (ph.finished(t1, episodes_ >= kExactPrefix)) {
        break;
      }
    }
    ph.finish(report);
    if (tr != nullptr) {
      e.set_apply_hook(nullptr);
      set_engine_metrics(report, *tr, enabled_sum, c0, EngineCounters::of(e),
                         exact);
      set_oracle_metric(report, *tr, ph.waves);
      report.set("daemon.select_ns", site_mean(*tr, "daemon.select", 1.0));
      report.set("engine.corrupt_ms", site_mean(*tr, "engine.corrupt", 1e6));
    }
    return ph;
  }

 private:
  std::uint64_t seed_;
  graph::NodeId side_;
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<pif::SoaEngine> engine_;
  sim::CentralRandomDaemon daemon_;
  util::Rng corruption_seeds_;  // one draw per episode
  std::uint64_t episodes_ = 0;  // since setup
};

// ---------------------------------------------------------------------------
// emu_waves

using Emulation = mp::GuardedEmulation<pif::PifProtocol, pif::StateCodec>;

class EmuWaves final : public Workload {
 public:
  // n = 256 keeps the n cached views (n^2 states, 1 MB) inside L2.  At
  // n = 1024 the views take 16 MB, read at random, and the wave rate followed
  // the host's memory traffic: 24% spread over five seeds where n = 256,
  // interleaved with it, spread 10% (perfbench/README.md).
  EmuWaves(std::uint64_t seed, bool tiny) : seed_(seed), n_(tiny ? 64 : 256) {}

  void setup(Report& report) override {
    time_setup(
        101, report,
        [&] {
          emu_.reset();
          proto_.reset();
          graph_ = std::make_unique<graph::Graph>(
              graph::make_random_connected(n_, 2 * std::size_t{n_}, seed_));
        },
        [&](int rep) {
          const double rss0 = status_bytes("VmRSS");
          const pif::Params params = pif::Params::for_graph(*graph_);
          proto_ = std::make_unique<pif::PifProtocol>(*graph_, params);
          sim::Configuration<pif::State> initial(*graph_,
                                                 proto_->initial_state(0));
          for (sim::ProcessorId p = 0; p < graph_->n(); ++p) {
            initial.state(p) = proto_->initial_state(p);
          }
          emu_ = std::make_unique<Emulation>(*graph_, *proto_,
                                             pif::StateCodec(*graph_, params),
                                             initial, seed_);
          if (rep == 0) {
            report.set("emu.bytes_per_processor",
                       (status_bytes("VmRSS") - rss0) / graph_->n());
          }
        });
    emu_->start();
  }

  Phase run(double seconds, Tracer* tr, Report& report,
            std::size_t min_samples) override {
    Emulation& emu = *emu_;
    const sim::ProcessorId root = proto_->root();
    const std::uint64_t budget = 100 * std::uint64_t{n_} + 1000;
    std::unique_ptr<pif::GhostTracker> ghost;
    int round_site = 0;
    int oracle_site = 0;
    if (tr != nullptr) {
      round_site = tr->site("emu.round");
      oracle_site = tr->site("oracle.ghost");
      ghost = std::make_unique<pif::GhostTracker>(*graph_, root);
      emu.set_apply_hook([&emu, &g = *ghost, tr, oracle_site](
                             sim::ProcessorId p, sim::ActionId a,
                             const pif::State& s) {
        Tracer::Scope scope(tr, oracle_site);
        g.note_step(emu.rounds());
        g.on_apply(p, a, s);
      });
    }
    const StackCounters c0 = counters();
    Phase ph(tr, seconds, min_samples);
    std::uint64_t wave_rounds = 0;
    while (true) {
      {
        Tracer::Scope s(tr, round_site);
        emu.round();
      }
      const std::uint64_t t = now_ns();
      const pif::Phase now_phase = emu.state(root).pif;
      const pif::Phase prev = prev_;
      prev_ = now_phase;
      // Root phase transitions: into B is its B-action, B -> F its F-action
      // (the wave closes); leaving B any other way aborts the wave.
      if (!open_) {
        if (now_phase == pif::Phase::kB && prev != pif::Phase::kB) {
          open_ = true;
          open_ns_ = t;
        }
      } else if (now_phase != pif::Phase::kB) {
        ++report.attempted;
        if (now_phase != pif::Phase::kF) {
          report.fail("emu_waves: root aborted wave " + std::to_string(waves_));
          break;
        }
        open_ = false;
        ph.close_wave(open_ns_, t);
        if (ghost) {
          Tracer::Scope s(tr, oracle_site);
          if (ghost->cycles_completed() != ph.waves ||
              !ghost->last_cycle().ok()) {
            report.fail("emu_waves oracle: wave " + std::to_string(waves_) +
                        " verdict not PIF1+PIF2 or aborted");
          }
        }
        if (close_rounds_.size() <= kExactPrefix) {
          close_rounds_.push_back(emu.rounds());
          close_actions_.push_back(emu.actions_applied());
        }
        ++waves_;
        wave_rounds = 0;
        if (ph.finished(t, close_rounds_.size() > kExactPrefix)) {
          break;
        }
      }
      if (++wave_rounds > budget) {
        report.fail("emu_waves: wave exceeded its round budget");
        break;
      }
    }
    ph.finish(report);
    if (tr != nullptr) {
      emu.set_apply_hook(nullptr);
      set_oracle_metric(report, *tr, ph.waves);
      report.set("emu.round_us", site_mean(*tr, "emu.round", 1e3));
      if (close_rounds_.size() > kExactPrefix) {
        report.set("emu.rounds_per_wave",
                   static_cast<double>(close_rounds_[kExactPrefix] -
                                       close_rounds_[0]) /
                       kExactPrefix);
        report.set("emu.actions_per_wave",
                   static_cast<double>(close_actions_[kExactPrefix] -
                                       close_actions_[0]) /
                       kExactPrefix);
      }
      set_link_metrics(report, c0, counters(), static_cast<double>(ph.waves));
    }
    return ph;
  }

 private:
  [[nodiscard]] StackCounters counters() const {
    return {emu_->link().stats(), emu_->network().transport_stats(),
            emu_->impairment().transport_stats()};
  }

  std::uint64_t seed_;
  graph::NodeId n_;
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<pif::PifProtocol> proto_;
  std::unique_ptr<Emulation> emu_;
  std::uint64_t waves_ = 0;  // closed since setup
  bool open_ = false;
  std::uint64_t open_ns_ = 0;
  pif::Phase prev_ = pif::Phase::kC;  // root phase after the last round
  std::vector<std::uint64_t> close_rounds_;   // at the first closes
  std::vector<std::uint64_t> close_actions_;  // ditto
};

// ---------------------------------------------------------------------------
// udp_serve

/// E24's headline cell: window 8, 4 streams, adaptive RTO (min 1, cap 4),
/// coalescing on, over an impaired shim on real UDP.
struct UdpStack {
  std::unique_ptr<mp::WaveService> service;
  std::unique_ptr<mp::LinkProtocol> link;
  std::unique_ptr<mp::ImpairmentShim> shim;
  std::unique_ptr<mp::UdpTransport> udp;  // declared last: destroyed first

  UdpStack(const graph::Graph& g, std::uint64_t seed) {
    mp::ServeConfig serve;
    serve.waves = 1u << 31;  // never done(): the run is time-bounded
    serve.streams = 4;
    service = std::make_unique<mp::WaveService>(g, serve);
    mp::LinkConfig cfg;
    cfg.rto_mode = mp::RtoMode::kAdaptive;
    cfg.window = 8;
    cfg.queue_capacity = 16;
    cfg.coalesce = true;
    cfg.rto_cap = 4;
    cfg.rto_min = 1;
    link = std::make_unique<mp::LinkProtocol>(g, *service, cfg,
                                              seed ^ 0x9e3779b97f4a7c15ULL);
    shim = std::make_unique<mp::ImpairmentShim>(*link, g.n(),
                                                seed ^ 0xd1b54a32d192ed03ULL);
    shim->set_loss_rate(0.2);
    shim->set_duplication_rate(0.05);
    shim->set_reorder_rate(0.05);
    udp = std::make_unique<mp::UdpTransport>(g, *shim, mp::UdpConfig{});
    shim->bind(*udp);
  }

  [[nodiscard]] StackCounters counters() const {
    return {link->stats(), udp->transport_stats(), shim->transport_stats()};
  }
};

class UdpServe final : public Workload {
 public:
  explicit UdpServe(std::uint64_t seed) : seed_(seed) {}

  void setup(Report& report) override {
    time_setup(
        101, report,
        [&] {
          stack_.reset();
          graph_ = std::make_unique<graph::Graph>(
              graph::make_random_connected(16, 32, seed_));
        },
        [&](int) { stack_ = std::make_unique<UdpStack>(*graph_, seed_); });
    stack_->shim->start();
  }

  Phase run(double seconds, Tracer* tr, Report& report,
            std::size_t min_samples) override {
    UdpStack& s = *stack_;
    const std::uint64_t budget = 20000;  // loop steps per stream-0 wave
    int step_site = 0;
    int tick_site = 0;
    int pump_site = 0;
    int flush_site = 0;
    int oracle_site = 0;
    if (tr != nullptr) {
      step_site = tr->site("transport.step");
      tick_site = tr->site("link.tick");
      pump_site = tr->site("serve.pump");
      flush_site = tr->site("link.flush");
      oracle_site = tr->site("oracle.contract");
    }
    const StackCounters c0 = s.counters();
    const mp::ServeStats serve0 = s.service->stats();
    const std::uint64_t n = graph_->n();
    Phase ph(tr, seconds, min_samples);
    std::uint64_t wave = s.service->current_wave();
    std::uint64_t open_ns = 0;  // 0: stream 0's wave opened before this phase
    std::uint64_t since_close = 0;
    std::uint64_t steps = 0;
    while (true) {
      {
        Tracer::Scope sc(tr, step_site);
        s.shim->step();
      }
      {
        Tracer::Scope sc(tr, tick_site);
        s.link->tick();
      }
      {
        Tracer::Scope sc(tr, pump_site);
        s.service->pump(*s.link);
      }
      {
        Tracer::Scope sc(tr, flush_site);
        s.link->flush();
      }
      ++steps;
      const std::uint64_t t = now_ns();
      const std::uint64_t w = s.service->current_wave();
      if (w != wave) {
        // Stream 0's root closed `wave` and opened `w` in this step.
        if (open_ns != 0) {
          ph.close_wave(open_ns, t);
        }
        {
          // O(1) contract check on the service's public counters: every
          // completed wave was joined by all n processors.
          Tracer::Scope sc(tr, oracle_site);
          const mp::ServeStats& st = s.service->stats();
          if (st.joins < (n - 1) * st.waves_completed) {
            report.fail("udp_serve: fewer joins than completed waves need");
          }
        }
        wave = w;
        open_ns = t;
        since_close = 0;
      }
      if (++since_close > budget) {
        report.fail("udp_serve: stream 0 wave exceeded its step budget");
        break;
      }
      if (ph.finished(t, true)) {
        ph.end_ns = t;
        break;
      }
    }
    const std::uint64_t stream0_waves = ph.waves;
    // waves_per_s counts the waves of all four streams; the latency samples
    // are stream 0's.
    ph.waves = s.service->stats().waves_completed - serve0.waves_completed;
    ph.finish(report);
    report.attempted += ph.waves;
    if (s.udp->transport_stats().rx_errors != c0.inner.rx_errors) {
      report.fail("udp_serve: malformed datagrams on the wire");
    }
    if (tr != nullptr) {
      const double waves = static_cast<double>(ph.waves);
      set_link_metrics(report, c0, s.counters(), waves);
      set_oracle_metric(report, *tr, stream0_waves);
      report.set("loop.steps_per_wave", ratio(static_cast<double>(steps), waves));
      report.set("serve.deferrals_per_wave",
                 ratio(static_cast<double>(s.service->stats().deferrals -
                                           serve0.deferrals),
                       waves));
      report.set("transport.step_us", site_mean(*tr, "transport.step", 1e3));
      report.set("link.tick_us", site_mean(*tr, "link.tick", 1e3));
      report.set("serve.pump_us", site_mean(*tr, "serve.pump", 1e3));
      report.set("link.flush_us", site_mean(*tr, "link.flush", 1e3));
    }
    return ph;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<UdpStack> stack_;
};

// ---------------------------------------------------------------------------
// Output

void print_result(const Options& opt, const Report& r, const Tracer* tr) {
  std::string out = "{";
  out += "\"workload\": \"" + obs::json_escape(opt.workload) + "\"";
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + obs::json_number(opt.seconds);
  out += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  out += std::string(", \"size\": \"") + (opt.tiny ? "tiny" : "full") + "\"";
  out += ", \"build\": {\"type\": \"" + obs::json_escape(PERFBENCH_BUILD_TYPE) +
         "\", \"compiler\": \"" + obs::json_escape(PERFBENCH_COMPILER) + "\"";
#ifdef NDEBUG
  out += ", \"ndebug\": true}";
#else
  out += ", \"ndebug\": false}";
#endif
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"latency_samples\": " + std::to_string(r.latency_samples);
  out += ", \"wave_p50_ms\": " + obs::json_number(r.latency_p50_ms);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? ", \"" : "\"") + obs::json_escape(r.failures[i]) + "\"";
  }
  out += "], \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    out += first ? "" : ", ";
    first = false;
    out += std::string("\"") + m.name +
           "\": {\"value\": " + obs::json_number(r.get(m.name)) +
           ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) {
      emit(m);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      emit(m);
    }
  }
  out += "}";
  if (tr != nullptr) {
    out += ", \"traced_phase_ns\": " + obs::json_number(r.traced_phase_ns);
    out += ", \"sites\": [";
    for (std::size_t i = 0; i < tr->sites().size(); ++i) {
      const Tracer::Site& s = tr->sites()[i];
      out += (i ? ", " : "") + std::string("{\"name\": \"") + s.name +
             "\", \"count\": " + std::to_string(s.count) +
             ", \"total_ns\": " + std::to_string(s.total_ns) +
             ", \"self_ns\": " + std::to_string(s.self_ns) + "}";
    }
    out += "], \"spans\": [";
    for (std::size_t i = 0; i < tr->spans().size(); ++i) {
      const Tracer::Span& s = tr->spans()[i];
      out += (i ? ", " : "") + std::string("{\"name\": \"") + s.name +
             "\", \"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"start_ns\": " + std::to_string(s.start_ns) +
             ", \"end_ns\": " + std::to_string(s.end_ns) + "}";
    }
    out += "]";
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "sync_waves") {
    return std::make_unique<SyncWaves>(opt.seed, opt.tiny);
  }
  if (opt.workload == "central_recover") {
    return std::make_unique<CentralRecover>(opt.seed, opt.tiny);
  }
  if (opt.workload == "emu_waves") {
    return std::make_unique<EmuWaves>(opt.seed, opt.tiny);
  }
  if (opt.workload == "udp_serve") {
    return std::make_unique<UdpServe>(opt.seed);
  }
  return nullptr;
}

int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  Options opt;
  opt.workload = cli.get_string("workload", "");
  opt.seed = cli.get_u64("seed", 1);
  opt.seconds = cli.get_double("seconds", 0.0);
  opt.trace = cli.get_int("trace", 0) == 1;
  opt.tiny = cli.get_string("size", "full") == "tiny";
  if (!cli.errors().empty() || !cli.positional().empty() ||
      opt.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: wavebench --workload <sync_waves|central_recover|"
                 "emu_waves|udp_serve> --seed <n> --seconds <s> --trace <0|1> "
                 "[--size full|tiny]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) {
    std::fprintf(stderr, "wavebench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  Report report;
  w->setup(report);
  if (!opt.trace) {
    const Phase ph = w->run(opt.seconds, nullptr, report, kMinSamples);
    report.set("waves_per_s", ph.rate());
    report.latency_p50_ms = quantile(ph.latency_ms, 0.5);
    report.set("wave_p90_ms", quantile(ph.latency_ms, 0.9));
    report.latency_samples = ph.latency_ms.size();
    report.set("peak_rss_mb", status_bytes("VmHWM") / (1024.0 * 1024.0));
    print_result(opt, report, nullptr);
  } else {
    // Traced phase first, from the freshly set-up system, so the exact
    // per-wave counts cover the same waves on every run of one seed; then an
    // untraced phase of the same length for trace.overhead_ratio.
    Tracer tracer;
    const Phase traced = w->run(opt.seconds / 2, &tracer, report, 0);
    const Phase plain = w->run(opt.seconds / 2, nullptr, report, 0);
    report.set("trace.overhead_ratio", ratio(traced.rate(), plain.rate()));
    report.latency_samples = traced.latency_ms.size();
    print_result(opt, report, &tracer);
  }
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
