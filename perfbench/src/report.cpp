// Tracing, statistics, machine fingerprint and the JSON result line.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.h"
#include "tensor/kernels/kernels.h"

namespace pb {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) {
  if (on) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.reserve(std::size_t{1} << 20);
  }
  enabled_.store(on, std::memory_order_relaxed);
}

std::int64_t Tracer::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.start_ns = now_ns();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns > 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span run on the span's own thread and nest inside it,
  // so their durations are disjoint sub-intervals: subtracting their sum
  // leaves the time the span spent outside any child.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns > 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns) / 1e6 - child_ms[i];
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << "}\n";
  }
}

double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n)));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double windowed(const std::vector<double>& v, std::size_t min_window,
                double p) {
  constexpr std::size_t kMaxWindows = 8;
  const std::size_t n = v.size();
  const std::size_t windows =
      std::clamp<std::size_t>(n / std::max<std::size_t>(min_window, 1), 1,
                              kMaxWindows);
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    per.push_back(pct(std::vector<double>(
                          v.begin() + static_cast<std::ptrdiff_t>(w * n / windows),
                          v.begin() + static_cast<std::ptrdiff_t>((w + 1) * n /
                                                                  windows)),
                      p));
  }
  return median(per);
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t hw_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double host_calibration_ms() {
  // A fixed chain of dependent multiply-adds: its time tracks the speed
  // the host grants this process, independent of the library's code.
  const auto t0 = Clock::now();
  volatile double sink = 0.0;
  double x = 1.0;
  for (int i = 0; i < 20000000; ++i) x = x * 1.0000001 + 1e-9;
  sink = x;
  (void)sink;
  return seconds_since(t0) * 1e3;
}

std::uint64_t steal_ticks() {
  // Field 8 of the aggregate "cpu" line of /proc/stat: time the
  // hypervisor ran something else while this machine wanted the CPU.
  std::ifstream is("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  is >> cpu;
  for (auto& x : v) is >> x;
  return is ? v[7] : 0;
}

std::string fingerprint(const Args& args) {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) flags += "avx2,";
  if (__builtin_cpu_supports("fma")) flags += "fma,";
  if (__builtin_cpu_supports("avx512f")) flags += "avx512f,";
  if (__builtin_cpu_supports("avx512vnni")) flags += "avx512vnni,";
#endif
  if (!flags.empty()) flags.pop_back();
  namespace kern = fitact::kern;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpu_flags\": \"%s\", \"nproc\": %zu, \"kernel_backend\": \"%s\", "
      "\"int8_gemm\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\"}",
      flags.c_str(), hw_threads(),
      kern::backend_name(kern::active_backend()), kern::gemm_i8_variant(),
      PERFBENCH_BUILD_TYPE, json_escape(args.commit).c_str());
  return buf;
}

void emit(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : result.metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += json_escape(vu.second);
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace pb
