#include "bench_util.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lk(m_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

void Tracer::Span::open(const char* name) {
  Buffer& b = local();
  const std::int32_t parent = b.stack.empty() ? -1 : b.stack.back();
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back({name, now(), 0.0, parent, b.thread});
  b.stack.push_back(index_);
}

void Tracer::Span::close() {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index_)].t1 = now();
  b.stack.pop_back();
}

std::map<std::string, Tracer::Summary> Tracer::summarize() {
  std::lock_guard<std::mutex> lk(m_);
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self;
  for (const auto& buf : buffers_) {
    std::vector<double> childTime(buf->spans.size(), 0.0);
    for (const SpanRecord& s : buf->spans)
      if (s.parent >= 0) childTime[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& s = buf->spans[i];
      durations[s.name].push_back(s.t1 - s.t0);
      self[s.name] += (s.t1 - s.t0) - childTime[i];
    }
  }
  std::map<std::string, Summary> out;
  for (auto& [name, d] : durations) {
    Summary& sum = out[name];
    sum.count = d.size();
    std::sort(d.begin(), d.end());
    sum.p50 = d[d.size() / 2];
    sum.totalSelf = self[name];
  }
  return out;
}

std::size_t Tracer::write(const std::string& path) {
  std::lock_guard<std::mutex> lk(m_);
  std::ofstream out(path);
  out << "# thread\tindex\tparent\tname\tstart_s\tend_s\n";
  std::size_t n = 0;
  char line[256];
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < buf->spans.size(); ++i, ++n) {
      const SpanRecord& s = buf->spans[i];
      std::snprintf(line, sizeof line, "%u\t%zu\t%d\t%s\t%.9f\t%.9f\n", s.thread,
                    i, s.parent, s.name, s.t0, s.t1);
      out << line;
    }
  }
  return n;
}

double peakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::istringstream in(readFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void removeTree(const std::string& path) {
  if (DIR* d = ::opendir(path.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st {};
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        removeTree(child);
      else
        ::unlink(child.c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

}  // namespace perfbench
