// Shared pieces of the end-to-end benchmark driver: clocks, sample
// statistics, the span tracer, the result record and small OS helpers.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's RNG so a program change cannot silently change the inputs.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

/// Timing samples; quantiles by nearest rank over the sorted values.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(s.size()));
    if (rank >= s.size()) rank = s.size() - 1;
    return s[rank];
  }
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// FNV-1a over bytes: a short printable digest for identity checks.
inline std::uint64_t digest(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}
inline std::uint64_t digest(const std::vector<std::uint8_t>& v) {
  return digest(v.data(), v.size());
}

// --- Tracing ----------------------------------------------------------------
//
// Spans (name, start, end, parent) recorded around the benchmark's calls into
// each program layer. Each thread appends to its own in-memory buffer; the
// buffers are merged and written out when the run ends. With tracing off a
// Span costs one branch.

struct SpanRecord {
  const char* name;
  double t0;
  double t1;
  std::int32_t parent;  ///< index in the same thread's buffer, -1 = root
  std::uint32_t thread;
};

class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void setEnabled(bool on) { enabled_.store(on); }

  /// Per-name summary: count, median duration and total self time
  /// (duration minus the part covered by child spans), in seconds.
  struct Summary {
    std::size_t count = 0;
    double p50 = 0.0;
    double totalSelf = 0.0;
  };
  static std::map<std::string, Summary> summarize();
  /// Writes every span as one tab-separated line; returns the span count.
  static std::size_t write(const std::string& path);

  class Span {
   public:
    explicit Span(const char* name) {
      if (enabled()) open(name);
    }
    ~Span() {
      if (index_ >= 0) close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    void open(const char* name);
    void close();
    std::int32_t index_ = -1;
  };

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> stack;
  };
  static Buffer& local();

  static inline std::atomic<bool> enabled_{false};
  static inline std::mutex m_;
  static inline std::vector<std::unique_ptr<Buffer>> buffers_;
};

// --- Results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< refused, errored or mismatching ops
  std::uint64_t mismatches = 0;  ///< correctness failures (subset of failed)
  std::vector<std::string> notes;
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;
  /// End-to-end figures printed every run but left out of the result JSON:
  /// their run-to-run spread on a shared machine is wider than any bound a
  /// gate could use (see perfbench/NOTES.md).
  std::map<std::string, Metric> printed;

  void e2e(const std::string& name, double v, const std::string& unit) {
    endToEnd[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    perLayer[name] = {v, unit};
  }
  void printOnly(const std::string& name, double v, const std::string& unit) {
    printed[name] = {v, unit};
  }
  /// Records a correctness failure with a printable reason.
  void mismatch(const std::string& what) {
    ++mismatches;
    ++failed;
    if (notes.size() < 20) notes.push_back("MISMATCH: " + what);
  }
};

/// Options every workload receives from the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string eslBinary;  ///< path of the built `esl` executable
  std::string workDir;    ///< scratch directory for sockets, spools, traces
  unsigned nproc = 1;
};

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double peakRssMb(int pid = 0);

/// Reads a whole file; empty string when unreadable.
std::string readFile(const std::string& path);

/// Removes a directory tree (best effort).
void removeTree(const std::string& path);

}  // namespace perfbench
