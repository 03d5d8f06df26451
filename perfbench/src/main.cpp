// perfbench entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt] [--commit <id>]
//   perfbench --prime           train the stage-1 checkpoints (untimed)
//   perfbench --list            print each workload's name and why
//
// Prints a fingerprint line and a host line (a fixed loop's wall and CPU
// time at start and end, hypervisor steal ticks during the run), then the
// result as the last line of standard output: {"correct", "attempted",
// "failed", "metrics"}. With --trace 1 the spans go to
// .bench_build/perfbench_traces/ and the per-layer self times to standard
// error. perfbench/run.py builds and drives this binary.
#include <sys/prctl.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "util/log.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// The workloads. Rates are fixed absolute values, chosen once from the
// saturation throughput each model reached on a 4-thread AVX-512 VNNI Xeon
// VM (3 lanes + the generator): ~10.9k req/s for tinycnn and ~885 req/s for
// ResNet50 int8 when the host was quiet, 35-45% less when neighbours were
// busy. The low rate is about a fifth of the quiet figure, the high rate
// about a third (roughly 30% and 55% of the busy figure), so neither phase
// runs near saturation when the host slows down.
std::vector<pb::Workload> workloads() {
  using fitact::core::Scheme;
  using fitact::nn::Precision;
  std::vector<pb::Workload> out;
  {
    pb::Workload w;
    w.name = "serve-tinycnn-fitact";
    w.why =
        "FitAct post-trained bounds, fp32, ~0.3 ms of model work per "
        "request so the serve front end shows; open loop at 2000 and 3800 "
        "req/s, 48 closed-loop clients, then live bit flips";
    w.kind = pb::Kind::serve;
    w.model = "tinycnn";
    w.scheme = Scheme::fitrelu;
    w.precision = Precision::fp32;
    w.train_size = 1024;
    w.train_epochs = 8;
    w.rate_low = 2000.0;
    w.rate_high = 3800.0;
    w.sat_clients = 48;
    w.phase_requests = 3000;
    w.fault_passes = 12;
    w.inject_every = 6;
    w.fault_flips = 64;
    out.push_back(w);
  }
  {
    pb::Workload w;
    w.name = "serve-resnet50-int8";
    w.why =
        "ResNet50 w0.25, per-neuron hard bounds, int8: int8 GEMM and the "
        "fp32 ops still unfused dominate, the serve layer does little; open "
        "loop at 170 and 320 req/s, 48 closed-loop clients";
    w.kind = pb::Kind::serve;
    w.model = "resnet50";
    w.width = 0.25f;
    w.scheme = Scheme::fitrelu_naive;
    w.precision = Precision::int8;
    w.train_size = 256;
    w.train_epochs = 1;
    w.rate_low = 170.0;
    w.rate_high = 320.0;
    w.sat_clients = 48;
    w.phase_requests = 1000;
    w.fault_passes = 4;
    w.inject_every = 4;
    w.fault_flips = 16;
    out.push_back(w);
  }
  {
    pb::Workload w;
    w.name = "campaign-vgg16-fitact";
    w.why =
        "Paper Fig. 5: VGG16 w0.25, FitAct with post-training, bit-flip "
        "campaign at rate 1e-5 on every core; eager fp32 evaluation plus "
        "inject/restore per trial, no server";
    w.kind = pb::Kind::campaign;
    w.model = "vgg16";
    w.width = 0.25f;
    w.scheme = Scheme::fitrelu;
    w.precision = Precision::fp32;
    w.train_size = 512;
    w.train_epochs = 4;
    w.test_size = 128;
    w.bit_error_rate = 1e-5;
    w.eval_samples = 64;
    w.chunk_trials = 16;
    w.scored_chunks = 6;
    w.campaign_share = 0.8;
    // Fault phase of the traced run's closed-loop serving probe.
    w.inject_every = 6;
    w.fault_flips = 64;
    out.push_back(w);
  }
  return out;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t pb::alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

int main(int argc, char** argv) {
  pb::Args args;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed" || a == "--seconds") {
      const std::string v = value();
      try {
        if (a == "--seed") {
          args.seed = std::stoull(v);
        } else {
          args.seconds = std::stod(v);
        }
      } catch (const std::exception&) {
        usage(("bad value for " + a + ": " + v).c_str());
      }
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--commit") {
      args.commit = value();
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--corrupt") {
      args.corrupt = true;
    } else if (a == "--prime") {
      args.prime = true;
    } else if (a == "--list") {
      list = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  fitact::ut::set_log_level(fitact::ut::LogLevel::warn);
  // Precise short sleeps for the load generator's idle naps (the default
  // 50 us slack would dominate them).
  (void)::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const std::vector<pb::Workload> all = workloads();
  if (list) {
    for (const auto& w : all) {
      std::printf("%s\t%s\n", w.name.c_str(), w.why.c_str());
    }
    return 0;
  }
  if (args.prime) {
    pb::prime(all, args);
    return 0;
  }
  const pb::Workload* w = nullptr;
  for (const auto& c : all) {
    if (c.name == args.workload) w = &c;
  }
  if (w == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());

  std::printf("{\"fingerprint\": %s, \"workload\": \"%s\", \"seed\": %llu}\n",
              pb::fingerprint(args).c_str(), w->name.c_str(),
              static_cast<unsigned long long>(args.seed));
  const double calib_cpu0 = pb::thread_cpu_s();
  const double calib_start_ms = pb::host_calibration_ms();
  const double calib_cpu_start_ms = (pb::thread_cpu_s() - calib_cpu0) * 1e3;
  const std::uint64_t steal_start = pb::steal_ticks();
  pb::Result result;
  pb::Tracer::get().enable(args.trace);
  try {
    if (w->kind == pb::Kind::serve) {
      pb::run_serve(*w, args, result);
    } else {
      pb::run_campaign(*w, args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name.c_str(),
                 e.what());
    return 1;
  }
  pb::Tracer::get().enable(false);
  const double calib_cpu1 = pb::thread_cpu_s();
  const double calib_end_ms = pb::host_calibration_ms();
  const double calib_cpu_end_ms = (pb::thread_cpu_s() - calib_cpu1) * 1e3;
  std::printf(
      "{\"host\": {\"calibration_ms_start\": %.3f, "
      "\"calibration_ms_end\": %.3f, \"calibration_cpu_ms_start\": %.3f, "
      "\"calibration_cpu_ms_end\": %.3f, \"steal_ticks\": %llu}}\n",
      calib_start_ms, calib_end_ms, calib_cpu_start_ms, calib_cpu_end_ms,
      static_cast<unsigned long long>(pb::steal_ticks() - steal_start));
  for (const auto& m : result.mismatches) {
    std::fprintf(stderr, "perfbench: correctness: %s\n", m.c_str());
  }
  if (args.trace) {
    ::mkdir(".bench_build", 0755);
    ::mkdir(args.trace_dir.c_str(), 0755);
    const std::string path = args.trace_dir + "/" + w->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    pb::Tracer::get().write(path);
    std::fprintf(stderr, "perfbench: spans written to %s\nself time (ms):\n",
                 path.c_str());
    for (const auto& [name, ms] : pb::Tracer::get().self_ms()) {
      std::fprintf(stderr, "  %-32s %12.3f\n", name.c_str(), ms);
    }
  }
  pb::emit(result);
  return 0;
}
