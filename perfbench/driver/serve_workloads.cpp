// serve-churn and serve-hot: a real `esl serve` daemon driven over its Unix
// socket by serve::Client connections, closed loop.
//
// Each connection owns a fixed partition of the sessions, so every session's
// operations happen in one recorded order. After the timed window the daemon
// is stopped with SIGTERM and restarted on the same spool; every session is
// answered once. Then each session's recorded operations are replayed
// serially on an in-process SimSession, and every reply — step reports,
// queries, transform output, snapshots, and the post-restart report — must
// match byte for byte.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "netlist/synth.h"
#include "serve/client.h"
#include "serve/service.h"
#include "serve/spool.h"
#include "shell/session.h"
#include "workloads.h"

namespace perfbench {

using esl::serve::Client;
using esl::serve::SimSession;
using Span = Tracer::Span;

namespace {

// --- The daemon process ------------------------------------------------------

/// An `esl serve` child process. Output goes to a log file, which is polled
/// for the "listening" line. The destructor kills and reaps a daemon that
/// was not terminated cleanly.
class Daemon {
 public:
  Daemon(const std::string& esl, const std::vector<std::string>& args,
         const std::string& logPath)
      : logPath_(logPath) {
    std::vector<std::string> all{esl};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    const double deadline = now() + 60.0;
    while (readFile(logPath_).find("listening on") == std::string::npos) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("esl serve exited at startup: " + readFile(logPath_));
      }
      if (now() > deadline) throw std::runtime_error("esl serve did not start");
      ::usleep(500);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// SIGTERM (graceful drain) and wait for exit; throws unless it exits 0.
  void terminate() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now() + 60.0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (now() > deadline) throw std::runtime_error("esl serve did not drain");
      ::usleep(500);
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("esl serve exited uncleanly: " + readFile(logPath_));
  }

 private:
  std::string logPath_;
  pid_t pid_ = -1;
};

// --- Workload shape ----------------------------------------------------------

struct Design {
  std::string name;  ///< builtin design name, or the origin of generated text
  std::string text;  ///< `.esl` text (sent for generated designs)
  bool builtin = false;
  std::string openCmd;  ///< transform each session applies right after open
  std::string tputChannel;  ///< a channel feeding a sink
};

struct SessionPlan {
  std::string sid;
  std::size_t design = 0;
};

/// Percent weights of each operation kind and the step size range. The
/// `cmd` op is the read-only shell query `area`: mid-run transforms are left
/// out because of the defects described in perfbench/NOTES.md.
struct Mix {
  unsigned step, sinks, tput, cycle, snapshot, cmd;
  std::uint64_t stepLo, stepHi;
};

struct ServeShape {
  bool durable = false;
  std::size_t maxResident = 0;  ///< 0 = the daemon's default
  /// Client connections per CPU (at most 8 in all). Ops that only burn CPU
  /// use half a connection per CPU: with one client thread per CPU plus the
  /// daemon's connection and executor threads, tail latency would measure
  /// the OS scheduler. Ops that wait on fsync use one per CPU.
  double connsPerCpu = 0.5;
  Mix mix{};
  std::vector<Design> designs;
  std::vector<SessionPlan> sessions;
};

/// Finds a channel feeding a sink, as a session sees the design after its
/// open-time transform.
Design analyze(Design d) {
  esl::shell::Session shell;
  shell.loadSpec(d.builtin ? esl::patterns::designSpec(d.name)
                           : esl::frontend::parseEsl(d.text, d.name),
                 d.name);
  if (!d.openCmd.empty()) shell.execute(d.openCmd);
  const esl::Netlist& nl = *shell.netlist();
  for (const esl::ChannelId id : nl.channelIds()) {
    const esl::Channel& ch = nl.channel(id);
    if (dynamic_cast<const esl::TokenSink*>(&nl.node(ch.consumer)) != nullptr) {
      d.tputChannel = ch.name;
      break;
    }
  }
  return d;
}

ServeShape shapeFor(const std::string& workload, std::uint64_t seed) {
  ServeShape s;
  SeedRng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  if (workload == "serve-churn") {
    // Three designs shared by 8 sessions each, 12 more used by one session
    // each: 36 sessions over an 8-session resident cap, durable checkpoints
    // after every op. All are ~1k-node speculation ladders, so the seed
    // varies design contents and the op sequence but not the cost mix.
    // Steps are short (20-80 cycles) so that spool save, restore and fsync
    // weigh as much as simulation.
    s.durable = true;
    s.maxResident = 8;
    s.connsPerCpu = 1.0;
    s.mix = {72, 10, 8, 0, 6, 4, 20, 80};
    for (int i = 0; i < 15; ++i) {
      esl::synth::SynthConfig cfg;
      cfg.topology = esl::synth::Topology::kSpecLadder;
      cfg.targetNodes = 1000;
      cfg.seed = rng.below(1u << 30);
      Design d;
      d.name = "churn-" + std::to_string(i) + ".esl";
      d.text = esl::frontend::printEsl(esl::synth::spec(cfg));
      s.designs.push_back(analyze(std::move(d)));
    }
    for (int i = 0; i < 36; ++i)
      s.sessions.push_back({"c" + std::to_string(i),
                            static_cast<std::size_t>(i < 24 ? i % 3 : i - 21)});
  } else {
    // The paper's builtin designs, fig1a also with its mux speculated at
    // open, six sessions each. The resident cap stays above the session
    // count. The seed varies the op sequence.
    s.mix = {68, 10, 8, 7, 5, 2, 20, 20};
    const std::vector<std::pair<std::string, std::string>> variants = {
        {"fig1a", ""},       {"fig1a", "speculate mux F"},
        {"fig1b", ""},       {"fig1c", ""},
        {"fig1d", ""},       {"table1", ""},
        {"vlu-spec", ""},    {"secded-spec", ""}};
    for (const auto& [name, openCmd] : variants) {
      Design d;
      d.name = name;
      d.builtin = true;
      d.openCmd = openCmd;
      d.text = esl::frontend::printEsl(esl::patterns::designSpec(name));
      s.designs.push_back(analyze(std::move(d)));
    }
    for (int i = 0; i < 48; ++i)
      s.sessions.push_back({"h" + std::to_string(i), i % variants.size()});
  }
  return s;
}

/// The stats-op figures reported as per-layer metrics.
void statsLayers(const esl::serve::json::Value& stats, double recordKb, Result& r) {
  const auto stat = [&](const char* key) {
    return static_cast<double>(stats.find(key)->asU64());
  };
  r.layer("serve.record_kb", recordKb, "KiB");
  r.layer("serve.evictions_per_op", stat("evictions") / stat("ops"), "count");
  r.layer("serve.restores_per_op", stat("restores") / stat("ops"), "count");
  r.layer("serve.denied_frac", stat("denied") / (stat("ops") + stat("denied")),
          "count");
}

// --- Recorded operations -----------------------------------------------------

enum class OpKind { kCmd, kStep, kSinks, kTput, kCycle, kSnapshot };

struct OpRecord {
  OpKind kind = OpKind::kStep;
  std::uint64_t cycles = 0;
  std::string arg;
  std::string reply;
  std::vector<std::uint8_t> bytes;
};

/// Everything one connection thread observed in one phase.
struct PhaseStats {
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  Samples latency;  ///< seconds per completed op
  std::vector<std::pair<double, std::uint64_t>> done;  ///< (time, cycles) per op
  double start = 0.0, secs = 0.0;  ///< wall-clock span of the phase
  std::vector<std::string> errors;

  void merge(const PhaseStats& o) {
    ops += o.ops;
    cycles += o.cycles;
    failed += o.failed;
    refused += o.refused;
    secs += o.secs;
    latency.append(o.latency);
    done.insert(done.end(), o.done.begin(), o.done.end());
    for (const std::string& e : o.errors)
      if (errors.size() < 10) errors.push_back(e);
  }
};

/// Median over half-second slices of a phase of (ops/s, cycles/s): a burst
/// of load from other processes on the machine moves a few slices only.
std::pair<double, double> sliceRates(const PhaseStats& st) {
  constexpr double kSlice = 0.5;
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(st.secs / kSlice));
  std::vector<double> ops(n, 0.0), cycles(n, 0.0);
  for (const auto& [t, c] : st.done) {
    const auto i = static_cast<std::size_t>((t - st.start) / kSlice);
    if (i >= n) continue;
    ops[i] += 1;
    cycles[i] += static_cast<double>(c);
  }
  Samples o, c;
  for (std::size_t i = 0; i < n; ++i) {
    o.add(ops[i] / kSlice);
    c.add(cycles[i] / kSlice);
  }
  return {o.median(), c.median()};
}

/// What replay workers found: mismatches and checks made.
struct ReplayTally {
  std::vector<std::string> bad;
  std::uint64_t checks = 0;
};

class ServeRun {
 public:
  ServeRun(const RunArgs& args, ServeShape shape)
      : args_(args), shape_(std::move(shape)), logs_(shape_.sessions.size()) {
    conns_ = std::max(1u, std::min(static_cast<unsigned>(args.nproc * shape_.connsPerCpu), 8u));
  }

  Result run();

 private:
  std::vector<std::string> daemonArgs(const std::string& dir) const {
    std::vector<std::string> a{"serve", "--socket", dir + "/esl.sock",
                               "--spool-dir", dir + "/spool"};
    if (shape_.durable) a.push_back("--durable");
    if (shape_.maxResident > 0) {
      a.push_back("--max-resident");
      a.push_back(std::to_string(shape_.maxResident));
    }
    return a;
  }

  /// Runs `fn(c)` on one thread per connection and merges their stats.
  template <typename F>
  PhaseStats onConnections(F fn) {
    std::vector<PhaseStats> per(conns_);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns_; ++c)
      threads.emplace_back([&, c] {
        try {
          fn(c, per[c]);
        } catch (const std::exception& e) {
          ++per[c].failed;
          per[c].errors.push_back(e.what());
        }
      });
    for (std::thread& t : threads) t.join();
    PhaseStats all;
    for (const PhaseStats& p : per) all.merge(p);
    return all;
  }

  std::vector<std::size_t> owned(unsigned c) const {
    std::vector<std::size_t> out;
    for (std::size_t i = c; i < shape_.sessions.size(); i += conns_) out.push_back(i);
    return out;
  }

  /// Connects every client and opens every session (plus its open-time
  /// transform), recording the transform replies.
  PhaseStats connectAndOpen(const std::string& sock);
  /// Closed-loop mixed operations on every connection for `seconds`.
  PhaseStats traffic(double seconds, std::uint64_t salt);
  /// One operation on session `idx`; appends its record on success.
  void oneOp(Client& client, std::size_t idx, SeedRng& rng, PhaseStats& st);
  /// Serial in-process replay of every session on both backends; checks
  /// every reply.
  void replay(Result& r);
  /// Compiled-backend simulation rate over the workload's designs.
  double compiledCyclesPerS() const;
  /// Replays one session's recorded ops on a fresh SimSession.
  void replaySession(std::size_t idx, bool compiled, ReplayTally& t);
  /// In-process Service with the daemon's configuration, no socket.
  void probeInprocService(const std::string& dir, double seconds);

  const RunArgs& args_;
  ServeShape shape_;
  unsigned conns_ = 1;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::vector<OpRecord>> logs_;       ///< per session, in order
  std::vector<std::string> afterRestart_;         ///< report after restart
  std::vector<std::vector<std::uint8_t>> restartSnaps_;  ///< sampled
  std::vector<std::vector<std::uint8_t>> spoolRecords_;  ///< trace probes
};

PhaseStats ServeRun::connectAndOpen(const std::string& sock) {
  clients_.clear();
  clients_.resize(conns_);
  return onConnections([&](unsigned c, PhaseStats& st) {
    clients_[c] = std::make_unique<Client>(sock);
    for (const std::size_t idx : owned(c)) {
      const SessionPlan& p = shape_.sessions[idx];
      const Design& d = shape_.designs[p.design];
      {
        Span s("serve.open");
        if (d.builtin)
          clients_[c]->openDesign(p.sid, d.name);
        else
          clients_[c]->openEsl(p.sid, d.text, d.name);
      }
      if (!d.openCmd.empty()) {
        OpRecord rec{OpKind::kCmd, 0, d.openCmd, {}, {}};
        {
          Span s("serve.cmd");
          rec.reply = clients_[c]->cmd(p.sid, d.openCmd);
        }
        if (rec.reply.rfind("error:", 0) == 0) ++st.failed;
        logs_[idx].push_back(std::move(rec));
      }
      ++st.ops;
    }
  });
}

void ServeRun::oneOp(Client& client, std::size_t idx, SeedRng& rng,
                     PhaseStats& st) {
  SessionPlan& p = shape_.sessions[idx];
  const Design& d = shape_.designs[p.design];
  const Mix& m = shape_.mix;
  unsigned pick = static_cast<unsigned>(rng.below(100));
  OpKind kind = OpKind::kStep;
  for (const auto& [w, k] :
       {std::pair{m.step, OpKind::kStep}, std::pair{m.sinks, OpKind::kSinks},
        std::pair{m.tput, OpKind::kTput}, std::pair{m.cycle, OpKind::kCycle},
        std::pair{m.snapshot, OpKind::kSnapshot}, std::pair{m.cmd, OpKind::kCmd}}) {
    if (pick < w) {
      kind = k;
      break;
    }
    pick -= w;
  }
  OpRecord rec;
  rec.kind = kind;
  const double t0 = now();
  try {
    switch (kind) {
      case OpKind::kStep: {
        rec.cycles = rng.between(m.stepLo, m.stepHi);
        Span s("serve.step");
        rec.reply = client.step(p.sid, rec.cycles);
        break;
      }
      case OpKind::kSinks: {
        Span s("serve.query");
        rec.reply = client.sinks(p.sid);
        break;
      }
      case OpKind::kTput: {
        rec.arg = d.tputChannel;
        Span s("serve.query");
        rec.reply = client.tput(p.sid, rec.arg);
        break;
      }
      case OpKind::kCycle: {
        Span s("serve.query");
        rec.reply = std::to_string(client.cycle(p.sid));
        break;
      }
      case OpKind::kSnapshot: {
        Span s("serve.snapshot");
        rec.bytes = client.snapshot(p.sid);
        break;
      }
      case OpKind::kCmd: {
        rec.arg = "area";
        Span s("serve.cmd");
        rec.reply = client.cmd(p.sid, rec.arg);
        break;
      }
    }
  } catch (const esl::serve::ServerError& e) {
    ++st.failed;
    if (e.kind() == "admission") ++st.refused;
    if (st.errors.size() < 5) st.errors.push_back(p.sid + ": " + e.what());
    return;
  }
  const double t1 = now();
  st.latency.add(t1 - t0);
  st.done.push_back({t1, rec.cycles});
  ++st.ops;
  st.cycles += rec.cycles;
  if (kind == OpKind::kCmd && rec.reply.rfind("error:", 0) == 0) {
    ++st.failed;
    if (st.errors.size() < 5) st.errors.push_back(p.sid + ": " + rec.reply);
  }
  logs_[idx].push_back(std::move(rec));
}

PhaseStats ServeRun::traffic(double seconds, std::uint64_t salt) {
  const double start = now();
  const double end = start + seconds;
  PhaseStats st = onConnections([&](unsigned c, PhaseStats& mine) {
    SeedRng rng(args_.seed * 0x9e3779b97f4a7c15ULL + salt * 131 + c);
    const std::vector<std::size_t> own = owned(c);
    while (now() < end) oneOp(*clients_[c], own[rng.below(own.size())], rng, mine);
  });
  st.start = start;
  st.secs = now() - start;
  return st;
}

void ServeRun::replaySession(std::size_t idx, bool compiled, ReplayTally& t) {
  const SessionPlan& p = shape_.sessions[idx];
  const Design& d = shape_.designs[p.design];
  SimSession::Options opts;
  if (compiled) opts.backend = esl::SimContext::Backend::kCompiled;
  SimSession ss(d.builtin ? esl::patterns::designSpec(d.name)
                          : esl::frontend::parseEsl(d.text, d.name),
                d.name, opts);
  const std::string tag = p.sid + " [" + d.name +
                          (d.openCmd.empty() ? "" : ", " + d.openCmd) + "]" +
                          (compiled ? " (compiled)" : "");
  const auto expect = [&](bool same, const std::string& what) {
    ++t.checks;
    if (!same) t.bad.push_back(tag + ": " + what);
  };
  std::size_t n = 0;
  for (const OpRecord& rec : logs_[idx]) {
    const std::string at = " differs at op " + std::to_string(n++);
    switch (rec.kind) {
      case OpKind::kCmd:
        expect(ss.command(rec.arg) == rec.reply, "'" + rec.arg + "' output" + at);
        break;
      case OpKind::kStep: {
        {
          Span s(compiled ? "serve.session_step_compiled" : "serve.session_step");
          ss.step(rec.cycles);
        }
        expect(ss.report() == rec.reply, "step report" + at);
        break;
      }
      case OpKind::kSinks:
        expect(ss.report() == rec.reply, "sinks report" + at);
        break;
      case OpKind::kTput:
        expect(ss.tputLine(rec.arg) == rec.reply, "tput line" + at);
        break;
      case OpKind::kCycle:
        expect(std::to_string(ss.cycle()) == rec.reply, "cycle" + at);
        break;
      case OpKind::kSnapshot:
        expect(ss.snapshot() == rec.bytes, "snapshot bytes" + at);
        break;
    }
  }
  expect(ss.report() == afterRestart_[idx], "report after daemon restart");
  if (!restartSnaps_[idx].empty())
    expect(ss.snapshot() == restartSnaps_[idx], "snapshot after daemon restart");
  expect(ss.violationCount() == 0, "protocol violations reported");
  if (!compiled && idx < spoolRecords_.size()) {
    std::vector<std::uint8_t>& record = spoolRecords_[idx];
    {
      Span s("serve.spool_save");
      record = ss.spoolSave();
    }
    Span s("serve.spool_load");
    expect(SimSession::spoolLoad(record)->report() == ss.report(),
           "report after spool round trip");
  }
}

void ServeRun::replay(Result& r) {
  spoolRecords_.assign(
      args_.trace ? std::min<std::size_t>(8, shape_.sessions.size()) : 0, {});
  // Every session on the interpreted backend (the daemon's configuration),
  // then again on the compiled backend, which must give the same replies.
  for (const bool compiled : {false, true}) {
    std::atomic<std::size_t> next{0};
    std::mutex m;
    ReplayTally all;
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < std::max(1u, args_.nproc - 1); ++i)
      threads.emplace_back([&] {
        ReplayTally mine;
        for (std::size_t idx; (idx = next.fetch_add(1)) < shape_.sessions.size();)
          replaySession(idx, compiled, mine);
        std::lock_guard<std::mutex> lk(m);
        all.checks += mine.checks;
        all.bad.insert(all.bad.end(), mine.bad.begin(), mine.bad.end());
      });
    for (std::thread& t : threads) t.join();
    r.attempted += all.checks;
    for (const std::string& s : all.bad) r.mismatch(s);
  }
}

double ServeRun::compiledCyclesPerS() const {
  // Every design on a compiled SimSession (after its open-time transform),
  // stepped in the workload's mean step size. Designs take turns in 50 ms
  // slices for half the run's seconds, on one thread per CPU but one, so
  // each design's time is spread over the whole phase (shorter phases gave
  // run-to-run spreads above 0.25). Seconds per cycle are averaged over
  // designs, so the figure keeps the workload's design mix.
  const std::uint64_t chunk = (shape_.mix.stepLo + shape_.mix.stepHi) / 2;
  const unsigned threadCount = std::max(1u, args_.nproc - 1);
  std::vector<double> secs(shape_.designs.size(), 0.0);
  std::vector<std::uint64_t> cycles(shape_.designs.size(), 0);
  const double end = now() + args_.seconds / 2;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < threadCount; ++t)
    threads.emplace_back([&, t] {
      std::vector<std::pair<std::size_t, std::unique_ptr<SimSession>>> mine;
      for (std::size_t d = t; d < shape_.designs.size(); d += threadCount) {
        const Design& design = shape_.designs[d];
        SimSession::Options opts;
        opts.backend = esl::SimContext::Backend::kCompiled;
        auto ss = std::make_unique<SimSession>(
            design.builtin ? esl::patterns::designSpec(design.name)
                           : esl::frontend::parseEsl(design.text, design.name),
            design.name, opts);
        if (!design.openCmd.empty()) ss->command(design.openCmd);
        ss->step(chunk);  // lowering and first-touch costs stay out
        mine.push_back({d, std::move(ss)});
      }
      while (now() < end) {
        for (auto& [d, ss] : mine) {
          const double t0 = now();
          do {
            ss->step(chunk);
            cycles[d] += chunk;
          } while (now() - t0 < 0.05);
          secs[d] += now() - t0;
        }
      }
    });
  for (std::thread& t : threads) t.join();
  double perCycle = 0.0;
  for (std::size_t d = 0; d < secs.size(); ++d)
    perCycle += secs[d] / static_cast<double>(cycles[d]);
  return static_cast<double>(secs.size()) / perCycle;
}

void ServeRun::probeInprocService(const std::string& dir, double seconds) {
  esl::serve::Service::Config cfg;
  cfg.spoolDir = dir;
  cfg.durable = shape_.durable;
  if (shape_.maxResident > 0) cfg.maxResident = shape_.maxResident;
  esl::serve::Service svc(cfg);
  const double end = now() + seconds;
  onConnections([&](unsigned c, PhaseStats&) {
    const std::vector<std::size_t> mine = owned(c);
    for (const std::size_t idx : mine) {
      const SessionPlan& p = shape_.sessions[idx];
      const Design& d = shape_.designs[p.design];
      svc.open(p.sid,
               d.builtin ? esl::patterns::designSpec(d.name)
                         : esl::frontend::parseEsl(d.text, d.name),
               d.name, {});
    }
    // Replays the recorded steps of this connection's sessions round robin.
    for (std::size_t k = 0; now() < end; ++k) {
      bool any = false;
      for (const std::size_t idx : mine) {
        if (k >= logs_[idx].size()) continue;
        any = true;
        const OpRecord& rec = logs_[idx][k];
        if (rec.kind == OpKind::kCmd) {
          svc.command(shape_.sessions[idx].sid, rec.arg);
        } else if (rec.kind == OpKind::kStep) {
          Span s("serve.inproc_step");
          svc.step(shape_.sessions[idx].sid, rec.cycles);
        }
        if (now() >= end) break;
      }
      if (!any) break;
    }
  });
}

Result ServeRun::run() {
  Result r;
  const std::string base = args_.workDir + "/" + args_.workload;
  ::mkdir(base.c_str(), 0755);

  // setup_s: daemon exec → listening → every connection's handshake → every
  // session opened. The last of the setups carries the workload.
  constexpr int kSetups = 5;
  Samples setup;
  std::unique_ptr<Daemon> daemon;
  std::string dir;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (daemon) {
      clients_.clear();
      daemon->terminate();
      daemon.reset();
      removeTree(dir);
    }
    dir = base + "/rep" + std::to_string(rep);
    ::mkdir(dir.c_str(), 0755);
    for (auto& log : logs_) log.clear();
    const double t0 = now();
    daemon = std::make_unique<Daemon>(args_.eslBinary, daemonArgs(dir), dir + "/daemon.log");
    const PhaseStats opened = connectAndOpen(dir + "/esl.sock");
    setup.add(now() - t0);
    r.attempted += opened.ops;
    r.failed += opened.failed;
    for (const std::string& e : opened.errors) r.notes.push_back("open error: " + e);
  }

  // The daemon's peak memory once every session is open: measured before
  // the window so it does not grow with throughput (sinks log every
  // transfer).
  const double peakRss = peakRssMb(daemon->pid());

  // Timed window; with --trace 1 the second half is traced.
  const bool traceWas = Tracer::enabled();
  Tracer::setEnabled(false);
  const double untracedSecs = args_.trace ? args_.seconds / 2 : args_.seconds;
  PhaseStats win = traffic(untracedSecs, 1);
  Tracer::setEnabled(traceWas);
  const auto [opsPerS, cyclesPerS] = sliceRates(win);
  PhaseStats all = win;
  if (args_.trace) {
    const PhaseStats traced = traffic(args_.seconds / 2, 2);
    const double tracedOps = sliceRates(traced).first;
    r.layer("trace.overhead_pct", (opsPerS - tracedOps) / opsPerS * 100.0, "%");
    char line[160];
    std::snprintf(line, sizeof line, "tracing overhead: %.1f ops/s untraced, %.1f traced",
                  opsPerS, tracedOps);
    r.notes.push_back(line);
    all.merge(traced);
  }
  r.attempted += all.ops + all.failed;
  r.failed += all.failed;
  for (const std::string& e : all.errors) r.notes.push_back("op error: " + e);

  const esl::serve::json::Value stats = clients_[0]->stats();
  const auto stat = [&](const char* key) {
    return static_cast<double>(stats.find(key)->asU64());
  };

  // restart_s: SIGTERM drain → new daemon on the same spool → every session
  // answered once. Nine restarts; the median is reported.
  clients_.clear();
  afterRestart_.assign(shape_.sessions.size(), {});
  restartSnaps_.assign(shape_.sessions.size(), {});
  Samples restart;
  for (int k = 0; k < 9; ++k) {
    clients_.clear();
    const double r0 = now();
    daemon->terminate();
    daemon = std::make_unique<Daemon>(args_.eslBinary, daemonArgs(dir),
                                      dir + "/restart" + std::to_string(k) + ".log");
    clients_.resize(conns_);
    const PhaseStats touched = onConnections([&](unsigned c, PhaseStats& st) {
      clients_[c] = std::make_unique<Client>(dir + "/esl.sock");
      for (const std::size_t idx : owned(c)) {
        afterRestart_[idx] = clients_[c]->sinks(shape_.sessions[idx].sid);
        ++st.ops;
      }
    });
    restart.add(now() - r0);
    r.attempted += touched.ops + touched.failed;
    r.failed += touched.failed;
    for (const std::string& e : touched.errors) r.notes.push_back("restart error: " + e);
  }
  std::uint64_t recovered = 0;
  {
    Client probe(dir + "/esl.sock");
    for (std::size_t idx = 0; idx < shape_.sessions.size(); idx += 4) {
      r.attempted += 1;
      try {
        restartSnaps_[idx] = probe.snapshot(shape_.sessions[idx].sid);
      } catch (const esl::serve::ServerError& e) {
        r.mismatch(std::string("snapshot after restart: ") + e.what());
      }
    }
    recovered = probe.stats().find("recovered")->asU64();
  }
  r.attempted += 1;
  if (recovered != shape_.sessions.size())
    r.mismatch("restarted daemon recovered " + std::to_string(recovered) + " of " +
               std::to_string(shape_.sessions.size()) + " sessions");
  clients_.clear();
  daemon->terminate();
  daemon.reset();

  replay(r);

  if (args_.trace) {
    const std::string probeDir = base + "/probe";
    ::mkdir(probeDir.c_str(), 0755);
    probeInprocService(probeDir + "/inproc", args_.seconds / 6);
    esl::serve::SpoolDir spool;
    spool.open(probeDir + "/spool", /*persistent=*/true);
    double recordKb = 0.0;
    for (std::size_t i = 0; i < spoolRecords_.size(); ++i) {
      const std::string sid = "p" + std::to_string(i);
      {
        Span s("serve.spool_write");
        spool.writeRecord(sid, spoolRecords_[i]);
      }
      Span s("serve.spool_read");
      if (spool.readRecord(sid) != spoolRecords_[i]) r.mismatch("spool record read back differs");
      recordKb += static_cast<double>(spoolRecords_[i].size()) / 1024.0;
    }
    std::vector<std::string> texts;
    for (const Design& d : shape_.designs) texts.push_back(d.text);
    SimPair pair = makeSimPair(texts[0]);
    pair.interp->run(200);
    pair.compiled->run(200);
    const WorkCounts counts = countedRun(pair, 1000);
    probeCycles(pair, args_.seconds / 10);
    for (int i = 0; i < 3; ++i) timeCompiledSetup(texts[0]);
    const SizeStats sizes = probeFrontendElastic(texts);
    layerMetricsFromSpans(counts, sizes, r);
    statsLayers(stats, recordKb / static_cast<double>(spoolRecords_.size()), r);
  }
  removeTree(base);

  r.notes.push_back(
      "timed window: " + std::to_string(win.ops) + " ops over " +
      std::to_string(conns_) + " connections, " + std::to_string(win.cycles) +
      " cycles stepped, " + std::to_string(shape_.sessions.size()) + " sessions" +
      ", " + std::to_string(win.refused) + " refused" +
      " (samples: " + std::to_string(win.latency.size()) + " op latencies, " +
      std::to_string(setup.size()) + " setups, " + std::to_string(restart.size()) +
      " restarts)");
  char line[200];
  std::snprintf(line, sizeof line,
                "daemon stats: ops=%.0f evictions=%.0f restores=%.0f denied=%.0f",
                stat("ops"), stat("evictions"), stat("restores"), stat("denied"));
  r.notes.push_back(line);
  r.e2e("setup_s", setup.median(), "s");
  r.e2e("cycles_per_s", cyclesPerS, "1/s");
  r.e2e("cycles_per_s.compiled", compiledCyclesPerS(), "1/s");
  r.e2e("ops_per_s", opsPerS, "1/s");
  r.printOnly("op_p50_ms", win.latency.median() * 1e3, "ms");
  r.printOnly("op_p99_ms", win.latency.quantile(0.99) * 1e3, "ms");
  r.printOnly("restart_s", restart.median(), "s");
  r.e2e("peak_rss_mb", peakRss, "MiB");
  return r;
}

}  // namespace

void probeServeLayers(const RunArgs& args, const std::string& text,
                      std::uint64_t stepCycles, Result& r) {
  const std::string dir = args.workDir + "/serve-probe";
  ::mkdir(dir.c_str(), 0755);
  const Design d{"probe.esl", text, false, {}, {}};
  esl::serve::json::Value stats;
  {
    Daemon daemon(args.eslBinary,
                  {"serve", "--socket", dir + "/esl.sock", "--spool-dir",
                   dir + "/spool"},
                  dir + "/daemon.log");
    Client client(dir + "/esl.sock");
    for (const char* sid : {"p0", "p1"}) {
      Span s("serve.open");
      client.openEsl(sid, text, d.name);
    }
    for (int i = 0; i < 10; ++i) {
      Span s("serve.step");
      client.step("p0", stepCycles);
    }
    for (int i = 0; i < 10; ++i) {
      Span s("serve.query");
      client.sinks("p0");
    }
    for (int i = 0; i < 3; ++i) {
      Span s("serve.snapshot");
      client.snapshot("p0");
    }
    for (int i = 0; i < 2; ++i) {
      Span s("serve.cmd");
      client.cmd("p1", "area");
    }
    stats = client.stats();
    daemon.terminate();
  }
  {
    esl::serve::Service::Config cfg;
    cfg.spoolDir = dir + "/inproc";
    esl::serve::Service svc(cfg);
    svc.open("q", esl::frontend::parseEsl(text, d.name), d.name, {});
    for (int i = 0; i < 10; ++i) {
      Span s("serve.inproc_step");
      svc.step("q", stepCycles);
    }
  }
  SimSession ss(esl::frontend::parseEsl(text, d.name), d.name, {});
  for (int i = 0; i < 10; ++i) {
    Span s("serve.session_step");
    ss.step(stepCycles);
  }
  esl::serve::SpoolDir spool;
  spool.open(dir + "/records", /*persistent=*/true);
  std::vector<std::uint8_t> record;
  for (int i = 0; i < 3; ++i) {
    {
      Span s("serve.spool_save");
      record = ss.spoolSave();
    }
    {
      Span s("serve.spool_load");
      if (SimSession::spoolLoad(record)->report() != ss.report())
        r.mismatch("report differs after a spool round trip");
    }
    {
      Span s("serve.spool_write");
      spool.writeRecord("p", record);
    }
    Span s("serve.spool_read");
    if (spool.readRecord("p") != record) r.mismatch("spool record read back differs");
  }
  statsLayers(stats, static_cast<double>(record.size()) / 1024.0, r);
  removeTree(dir);
}

Result runServeWorkload(const RunArgs& args) {
  ServeRun run(args, shapeFor(args.workload, args.seed));
  return run.run();
}

}  // namespace perfbench
