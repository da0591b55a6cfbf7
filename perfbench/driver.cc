// perfbench_driver — one run of the serving-path benchmark.
//
// A run boots the stock pinocchio_server once per round, each round on a
// fresh instance generated from (seed, round), drives it over loopback
// TCP from this single-threaded process, checks every answer against an
// in-process reference computed outside the timed sections, and prints
// one JSON object as its last stdout line. A human-readable report goes
// to stderr. perfbench/run.py builds the binaries and calls this; see
// perfbench/README.md for the workloads and metric definitions.
//
// Why rounds: the cost of one PIN-VO top-k differs by up to 2x between
// two synthetic instances of the same profile (the size of the densest
// hotspot decides how many candidates Strategy 1 must validate). Pooling
// the samples of many independently generated instances per run is what
// keeps a run's medians repeatable across seeds.
//
//   --trace=0  end-to-end metrics from every round, untimed checks.
//   --trace=1  the first half of the rounds, each measured twice on the
//              same server (untraced, then traced with spans), followed by
//              in-process replays that time each layer's public calls.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/approx_solver.h"
#include "core/influence_query.h"
#include "core/pinocchio_solver.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "core/streaming.h"
#include "data/binary_io.h"
#include "data/checkin_dataset.h"
#include "parallel/morsel_scheduler.h"
#include "parallel/parallel_query.h"
#include "parallel/parallel_solvers.h"
#include "prob/influence_kernel.h"
#include "prob/power_law.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket_io.h"
#include "util/flags.h"
#include "util/quantile.h"
#include "util/random.h"

namespace {

using namespace pinocchio;
using namespace pinocchio::serve;

// ------------------------------------------------------------------ clock

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

/// Seconds since the driver started (monotonic).
double Now() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// -------------------------------------------------------------- workloads

// Server parameters the in-process references must mirror. They are the
// server's own defaults, passed explicitly so a default change cannot
// silently desynchronise the checks.
constexpr double kTau = 0.7;
constexpr double kRho = 0.9;
constexpr double kLambda = 1.0;
constexpr double kUnitMeters = 100.0;
constexpr size_t kPreparedTopK = 16;
constexpr uint32_t kTopK = 10;

struct WorkloadSpec {
  std::string name;
  double scale = 0.03;
  size_t candidates = 300;
  size_t rounds = 1;
  size_t workers = 1;
  size_t solve_threads = 1;
  // Streaming (stream-ingest).
  double stream_window = 0.0;   // seconds of stream time
  double stream_dt = 0.0;       // stream seconds between observations
  size_t stream_objects = 0;    // distinct moving objects
  size_t observe_batch = 0;     // observations per observe frame
  size_t advance_every = 0;     // one advance per this many frames
};

// The single source of each workload's shape; BENCHMARK.json and
// perfbench/README.md describe the same numbers.
std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "vo-topk") {
    w.scale = 0.05;
    w.candidates = 400;
    w.rounds = 12;
    w.workers = 1;
    w.solve_threads = 2;
  } else if (name == "stream-ingest") {
    w.scale = 0.03;
    w.candidates = 300;
    w.rounds = 12;
    w.workers = 1;
    w.solve_threads = 1;
    w.stream_window = 20.0;
    w.stream_dt = 0.001;
    w.stream_objects = 400;
    w.observe_batch = 1024;
    w.advance_every = 4;
  } else {
    return std::nullopt;
  }
  return w;
}

// ------------------------------------------------------------- request log

enum Cls : uint8_t {
  kTopKCls,
  kProbeCls,
  kObserveCls,
  kAdvanceCls,
  kStatsCls,
  kUpdateCls,
  kNumCls,
};
const char* const kClsName[kNumCls] = {"topk",    "probe", "observe",
                                       "advance", "stats", "update"};

/// One request of the schedule and what became of it.
struct Call {
  Cls cls = kStatsCls;
  Request request;
  uint32_t probe_index = 0;  // kProbeCls: index into the round's points
  double due = 0, sent = 0, done = 0;
  bool ok = false;           // answered with the expected response type
  std::optional<Response> response;
  // Traced calls only.
  double encode_end = 0, send_end = 0, recv_end = 0, decode_end = 0;
};

Cls MainClass(const WorkloadSpec& w) {
  return w.stream_window > 0.0 ? kObserveCls : kTopKCls;
}

Cls LightClass(const WorkloadSpec& w) {
  return w.stream_window > 0.0 ? kAdvanceCls : kProbeCls;
}

double ServerSeconds(const Response& r) {
  switch (r.type) {
    case ResponseType::kSolve: return r.solve.solve_seconds;
    case ResponseType::kProbe: return r.probe.solve_seconds;
    default: return 0.0;  // stats / update / stream carry no server time
  }
}

ResponseType ExpectedType(Cls cls) {
  switch (cls) {
    case kTopKCls: return ResponseType::kSolve;
    case kProbeCls: return ResponseType::kProbe;
    case kObserveCls:
    case kAdvanceCls: return ResponseType::kStream;
    case kStatsCls: return ResponseType::kStats;
    case kUpdateCls: return ResponseType::kUpdate;
    default: return ResponseType::kError;
  }
}

// ------------------------------------------------------------------ spans

/// One traced interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span or -1.
struct Span {
  std::string name;
  double start = 0, end = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

std::vector<Span> g_spans;  // kept in memory, written at exit

// Results of timed calls land here so the compiler cannot drop the work.
volatile size_t g_sink = 0;

int64_t AddSpan(std::string name, double start, double end, int64_t parent,
                int64_t request) {
  g_spans.push_back({std::move(name), start, end, parent, request});
  return static_cast<int64_t>(g_spans.size()) - 1;
}

/// Times `fn` as a root span of no request and returns its duration in
/// seconds (the in-process replays).
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  const double start = Now();
  fn();
  const double end = Now();
  AddSpan(name, start, end, -1, -1);
  return end - start;
}

void WriteSpans(const std::string& path) {
  std::ofstream out(path);
  out.precision(9);
  for (const Span& s : g_spans) {
    out << "{\"name\": \"" << s.name << "\", \"start\": " << s.start
        << ", \"end\": " << s.end << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
}

// ---------------------------------------------------------- server process

/// Restricts the calling thread to CPUs [first, last). The generator runs
/// on CPU 0 and the server on the others: the generator spins on its
/// socket (see RoundTrip), and a server thread woken onto the spinning
/// CPU would wait behind it. Measured on five seeds of stream-ingest, the
/// 25 us advance round trip's p50 then varied by 10% (max-min over
/// median) against 37-47% with a sleeping, unpinned generator.
void PinToCpus(size_t first, size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t c = first; c < last && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// A loopback port nothing listens on right now (bound, read, released).
uint16_t FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (fd >= 0 && bind(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) close(fd);
  return port;
}

/// The stock pinocchio_server as a child process, its output in a log
/// file; stopped with SIGTERM and reaped before the round ends.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, std::vector<std::string> args,
             const std::string& log_path, std::string* error) {
    port_ = FreePort();
    if (port_ == 0) {
      *error = "no free loopback port";
      return false;
    }
    args.push_back("--port=" + std::to_string(port_));
    std::vector<std::string> argv_store = {binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Dies with the driver, even when the driver is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      PinToCpus(1, std::thread::hardware_concurrency());
      const int log_fd =
          open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        dup2(log_fd, STDOUT_FILENO);
        dup2(log_fd, STDERR_FILENO);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    return true;
  }

  /// Connects to the server, retrying every millisecond while it boots
  /// (a coarser retry would quantise setup_s). -1 if it died or timed out.
  int Connect() {
    const double deadline = Now() + 60.0;
    while (Now() < deadline) {
      const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return -1;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return fd;
      }
      close(fd);
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;  // exited during boot; see its log
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }

  /// Peak resident set (VmHWM) in MB, or 0 when unreadable.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }

  /// SIGTERM and reap; SIGKILL after 20 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double deadline = Now() + 20.0;
    bool killed = false;
    for (;;) {
      int status = 0;
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || r < 0) break;
      if (!killed && Now() > deadline) {
        kill(pid_, SIGKILL);
        killed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ------------------------------------------------------------- connections

/// The client connection: requests are written whole, and responses
/// assembled from what the socket delivers.
struct Conn {
  int fd = -1;
  FrameAssembler assembler;
  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

/// Encodes and writes `call`'s request; stamps `sent`.
bool SendCall(Conn* conn, Call* call, bool traced) {
  call->sent = Now();
  const std::vector<uint8_t> frame = EncodeRequest(call->request);
  if (traced) call->encode_end = Now();
  const bool ok = SendAll(conn->fd, frame);
  if (traced) call->send_end = Now();
  return ok;
}

/// Decodes a completed response frame into `call`; stamps `done`.
void FinishCall(Call* call, const std::vector<uint8_t>& body, bool traced) {
  if (traced) call->recv_end = Now();
  call->response = DecodeResponse(body);
  call->done = Now();
  if (traced) call->decode_end = call->done;
  call->ok = call->response.has_value() &&
             call->response->type == ExpectedType(call->cls);
}

/// Blocking round trip. The answer is awaited
/// by spinning on a non-blocking read, so the generator's own wake-up
/// latency stays out of every round trip.
bool RoundTrip(Conn* conn, Call* call, bool traced) {
  if (!SendCall(conn, call, traced)) return false;
  uint8_t buf[65536];
  for (;;) {
    if (auto body = conn->assembler.NextFrame(); body.has_value()) {
      FinishCall(call, *body, traced);
      return true;
    }
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->assembler.Append(std::span<const uint8_t>(buf, size_t(n)));
    } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
      call->done = Now();
      return false;
    }
  }
}

/// Records the span tree of one traced call: the request span with the
/// client codec, the socket write and the wait for the answer as
/// children; the server's reported solve time is a child of the wait,
/// placed at its end (the server does not report when it started).
void RecordCallSpans(const Call& call, int64_t request_id) {
  const std::string root_name = std::string("rpc.") + kClsName[call.cls];
  const int64_t root =
      AddSpan(root_name, call.sent, call.decode_end, -1, request_id);
  AddSpan("protocol.encode", call.sent, call.encode_end, root, request_id);
  AddSpan("socket.send", call.encode_end, call.send_end, root, request_id);
  const int64_t wait =
      AddSpan("socket.wait", call.send_end, call.recv_end, root, request_id);
  if (call.response.has_value()) {
    const double server = std::min(ServerSeconds(*call.response),
                                   call.recv_end - call.send_end);
    AddSpan("server.solve", call.recv_end - server, call.recv_end, wait,
            request_id);
  }
  AddSpan("protocol.decode", call.recv_end, call.decode_end, root, request_id);
}

// ---------------------------------------------------------- round inputs

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

SolverConfig ServerConfig() {
  SolverConfig config;
  config.tau = kTau;
  config.pf = std::make_shared<PowerLawPF>(kRho, kLambda, 1.0, kUnitMeters);
  config.top_k = kPreparedTopK;
  return config;
}

/// Everything a round derives from (seed, round).
struct RoundInputs {
  uint64_t seed = 0;         // candidate-sampling and traffic seed
  std::string pino_path;     // the instance file the server loads
  ProblemInstance instance;  // the server's instance, rebuilt in-process
  Point lo{0, 0}, hi{0, 0};  // bounding box of all positions
  std::vector<Point> probe_points;
};

RoundInputs MakeRoundInputs(const WorkloadSpec& w, uint64_t seed, size_t round,
                            const std::string& workdir) {
  RoundInputs in;
  in.seed = Mix64(seed * 1000003ull + round) % 1000000007ull;
  // Round r's check-ins come from a fixed suite (generator seed = profile
  // seed + r), as the paper fixes its datasets and samples candidates:
  // measured, the check-in draw alone moves a PIN-VO top-k by ~50% IQR
  // between instances, the candidate draw by ~12%. The run's seed draws
  // the candidate venues written into the .pino, and all traffic.
  DatasetSpec spec = DatasetSpec::Gowalla().Scaled(w.scale);
  spec.seed += round;
  const CheckinDataset suite = GenerateCheckinDataset(spec);
  const size_t count = std::min(w.candidates, suite.venues.size());
  const CandidateSample venues = SampleCandidates(suite, count, in.seed);
  CheckinDataset dataset;
  dataset.spec = suite.spec;
  dataset.objects = suite.objects;
  dataset.venues = venues.points;
  dataset.venue_checkins = venues.ground_truth;
  in.pino_path = workdir + "/round" + std::to_string(round) + ".pino";
  SaveDatasetBinaryFile(dataset, in.pino_path);
  // Mirrors pinocchio_server's --in=*.pino path: objects verbatim,
  // candidates sampled from the venues with --seed (here: all of them,
  // in the sampler's order).
  in.instance.objects = dataset.objects;
  in.instance.candidates = SampleCandidates(dataset, count, in.seed).points;
  in.lo = {1e300, 1e300};
  in.hi = {-1e300, -1e300};
  for (const MovingObject& o : in.instance.objects) {
    for (const Point& p : o.positions) {
      in.lo = {std::min(in.lo.x, p.x), std::min(in.lo.y, p.y)};
      in.hi = {std::max(in.hi.x, p.x), std::max(in.hi.y, p.y)};
    }
  }
  // Probe cost depends on where the point falls (a hotspot validates many
  // objects), so a round draws far more points than it probes: with few
  // points the light class's p90 was the cost of whichever one or two
  // points landed in a hotspot.
  Rng rng(in.seed ^ 0x5eedull);
  for (int i = 0; i < 256; ++i) {
    in.probe_points.push_back({rng.Uniform(in.lo.x, in.hi.x),
                               rng.Uniform(in.lo.y, in.hi.y)});
  }
  return in;
}

std::vector<std::string> ServerArgs(const WorkloadSpec& w,
                                    const RoundInputs& in) {
  std::vector<std::string> args = {
      "--in=" + in.pino_path,
      "--candidates=" + std::to_string(w.candidates),
      "--seed=" + std::to_string(in.seed),
      "--workers=" + std::to_string(w.workers),
      "--solve_threads=" + std::to_string(w.solve_threads),
      "--topk-limit=" + std::to_string(kPreparedTopK),
      "--tau=0.7", "--rho=0.9", "--lambda=1", "--unit-km=0.1"};
  if (w.stream_window > 0.0) {
    std::ostringstream os;
    os << "--stream-window=" << w.stream_window;
    args.push_back(os.str());
  }
  return args;
}

// ----------------------------------------------------- request generators

Call MakeTopK() {
  Call c;
  c.cls = kTopKCls;
  c.request.type = RequestType::kTopK;
  c.request.top_k.k = kTopK;
  return c;
}

Call MakeProbe(const RoundInputs& in, uint32_t index) {
  Call c;
  c.cls = kProbeCls;
  c.probe_index = index % in.probe_points.size();
  c.request.type = RequestType::kProbe;
  c.request.probe.location = in.probe_points[c.probe_index];
  return c;
}

/// One appended object: 12 positions around a random existing position
/// (so it overlaps the candidates' influence regions).
Call MakeUpdate(const RoundInputs& in, Rng& rng, uint32_t object_id) {
  Call c;
  c.cls = kUpdateCls;
  c.request.type = RequestType::kUpdate;
  const MovingObject& anchor_object = in.instance.objects[rng.UniformInt(
      0, static_cast<int64_t>(in.instance.objects.size()) - 1)];
  const Point anchor = anchor_object.positions[rng.UniformInt(
      0, static_cast<int64_t>(anchor_object.positions.size()) - 1)];
  UpdateObject object;
  object.object_id = object_id;
  for (int i = 0; i < 12; ++i) {
    object.positions.push_back({anchor.x + rng.Gaussian(0.0, 800.0),
                                anchor.y + rng.Gaussian(0.0, 800.0)});
  }
  c.request.update.objects.push_back(std::move(object));
  return c;
}

/// The stream-ingest traffic of one round: observe frames of seeded
/// random-walker observations, one per `stream_dt` of stream time and
/// strictly increasing, and after every `advance_every` frames one advance
/// of the clock.
///
/// Each walker starts at a seeded position of a seeded instance object, so
/// walkers crowd where the check-ins (and the candidates) do. Started
/// uniformly over the extent instead, the few walkers that happened to
/// start near candidates did most of the work, and one instance's observe
/// cost moved by +-15% with the seed, against +-3% from check-in positions
/// (measured in-process).
///
/// An advance goes one frame's worth of stream time past the last
/// observation: it expires about a frame of observations and reads the
/// best, so its round trip is mostly expiry work. An advance to the last
/// observation's own time expired nothing, and its 25 us round trip (all
/// loopback) varied by 30% IQR between runs. The observations after an
/// advance continue from its time, so the window holds a gap per advance.
class StreamTraffic {
 public:
  StreamTraffic(const WorkloadSpec& w, const RoundInputs& in)
      : rng_(in.seed ^ 0x57ea4ull),
        dt_(w.stream_dt),
        batch_(w.observe_batch),
        advance_every_(w.advance_every),
        lo_(in.lo),
        hi_(in.hi) {
    const auto& objects = in.instance.objects;
    for (size_t i = 0; i < w.stream_objects; ++i) {
      const MovingObject& o = objects[rng_.UniformInt(
          0, static_cast<int64_t>(objects.size()) - 1)];
      walkers_.push_back(o.positions[rng_.UniformInt(
          0, static_cast<int64_t>(o.positions.size()) - 1)]);
    }
  }

  /// The next request of the cycle: `advance_every` observe frames, then
  /// one advance.
  Call Next() {
    Call c;
    if (++calls_ % (advance_every_ + 1) == 0) {
      c.cls = kAdvanceCls;
      c.request.type = RequestType::kAdvance;
      slot_ += batch_;
      c.request.advance.time = time();
      return c;
    }
    c.cls = kObserveCls;
    c.request.type = RequestType::kObserve;
    c.request.observe.observations.reserve(batch_);
    for (size_t i = 0; i < batch_; ++i) {
      const auto id = static_cast<uint32_t>(
          rng_.UniformInt(0, static_cast<int64_t>(walkers_.size()) - 1));
      Point& p = walkers_[id];
      p.x = std::clamp(p.x + rng_.Gaussian(0.0, 300.0), lo_.x, hi_.x);
      p.y = std::clamp(p.y + rng_.Gaussian(0.0, 300.0), lo_.y, hi_.y);
      ++slot_;
      c.request.observe.observations.push_back({id, time(), p});
    }
    return c;
  }

  /// Stream time of the latest request.
  double time() const { return static_cast<double>(slot_) * dt_; }

 private:
  Rng rng_;
  double dt_;
  size_t batch_, advance_every_;
  Point lo_, hi_;
  std::vector<Point> walkers_;
  uint64_t slot_ = 0;   // observation slots used, skipped ones included
  uint64_t calls_ = 0;
};

// ------------------------------------------------------------ round state

/// What one measured slice produced.
struct Slice {
  std::vector<Call> calls;  // every request, in sending order
  double seconds = 0;       // slice start to last completion
  double late_p90_ms = 0;   // generator lateness
  std::optional<StatsResponse> stats_before, stats_after;
};

struct RoundResult {
  double setup_s = 0;
  double rss_mb = 0;
  std::vector<Call> setup_calls;   // the stream fill + first main call
  Slice untraced, traced;
  uint64_t swaps = 0;
  // Traced vo-topk rounds: the publication probe's calls and lags.
  std::vector<Call> publication_calls;
  std::vector<double> publish_lag_ms;
};

std::optional<StatsResponse> FetchStats(Conn* conn) {
  Call c;
  c.cls = kStatsCls;
  c.request.type = RequestType::kStats;
  if (!RoundTrip(conn, &c, false) || !c.ok) return std::nullopt;
  return c.response->stats;
}

/// p90 of how late the calls went out (send - due: in a closed loop the
/// generator's own time between an answer and the next request), in ms.
double LateP90Ms(const std::vector<Call>& calls) {
  std::vector<double> late;
  for (const Call& c : calls) {
    if (c.sent > 0) late.push_back((c.sent - c.due) * 1e3);
  }
  SortForQuantiles(late);
  return QuantileOfSorted(late, 0.9);
}

/// Closed loop on one connection for `seconds`: the next request of
/// `next()` goes out when the previous answer is in.
Slice RunClosedLoop(Conn* conn, double seconds, bool traced,
                    const std::function<Call()>& next) {
  Slice slice;
  const double start = Now();
  double prev_done = start;
  while (Now() - start < seconds) {
    Call c = next();
    c.due = prev_done;  // in a closed loop a request is due on the answer
    if (!RoundTrip(conn, &c, traced)) {
      slice.calls.push_back(std::move(c));
      break;
    }
    prev_done = c.done;
    slice.calls.push_back(std::move(c));
  }
  slice.seconds = Now() - start;
  slice.late_p90_ms = LateP90Ms(slice.calls);
  return slice;
}

// ----------------------------------------------------------------- checks

/// Compares answers with in-process references. Counts mismatches; the
/// references are computed after the server is stopped, outside every
/// timed section.
struct Checker {
  int64_t mismatches = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    ++mismatches;
    if (notes.size() < 8) notes.push_back(what);
  }

  /// Top-k and probe answers of a snapshot-path round. `updates` are the
  /// round's appended objects in send order: an answer reporting
  /// num_objects = base + j was computed on the base instance plus the
  /// first j updates.
  void CheckSnapshotAnswers(const RoundInputs& in,
                            const std::vector<const Call*>& answers,
                            const std::vector<Call>& updates) {
    std::map<uint64_t, std::vector<const Call*>> by_epoch;
    for (const Call* c : answers) {
      if (!c->ok) continue;
      const uint64_t n = c->cls == kTopKCls ? c->response->solve.num_objects
                                            : c->response->probe.num_objects;
      by_epoch[n].push_back(c);
    }
    const size_t base = in.instance.objects.size();
    for (const auto& [n, calls] : by_epoch) {
      if (n < base || n - base > updates.size()) {
        Fail("answer reports " + std::to_string(n) + " objects");
        continue;
      }
      ProblemInstance instance = in.instance;
      for (size_t j = 0; j < n - base; ++j) {
        for (const UpdateObject& o : updates[j].request.update.objects) {
          instance.objects.push_back({o.object_id, o.positions});
        }
      }
      const PreparedInstance prepared(instance, ServerConfig());
      std::optional<SolverResult> exact;
      std::map<uint32_t, int64_t> probe_refs;
      for (const Call* c : calls) {
        if (c->cls == kTopKCls) {
          if (!exact.has_value()) exact = PinocchioSolver().Solve(prepared);
          CheckTopK(*exact, prepared, c->response->solve);
        } else {
          auto it = probe_refs.find(c->probe_index);
          if (it == probe_refs.end()) {
            it = probe_refs
                     .emplace(c->probe_index,
                              InfluenceOfCandidate(
                                  prepared, in.probe_points[c->probe_index]))
                     .first;
          }
          if (c->response->probe.influence != it->second) {
            Fail("probe influence " +
                 std::to_string(c->response->probe.influence) + " != " +
                 std::to_string(it->second));
          }
        }
      }
    }
  }

  void CheckTopK(const SolverResult& exact, const PreparedInstance& prepared,
                 const SolveResponse& got) {
    const size_t k = std::min<size_t>(kTopK, exact.ranking.size());
    if (got.topk.size() != k ||
        got.num_candidates != prepared.num_candidates()) {
      Fail("top-k size " + std::to_string(got.topk.size()));
      return;
    }
    for (size_t i = 0; i < k; ++i) {
      const uint32_t j = exact.ranking[i];
      if (got.topk[i].candidate != j ||
          got.topk[i].influence != exact.influence[j] || !got.topk[i].exact) {
        Fail("top-k rank " + std::to_string(i) + ": got candidate " +
             std::to_string(got.topk[i].candidate) + " influence " +
             std::to_string(got.topk[i].influence) + ", want " +
             std::to_string(j) + " / " + std::to_string(exact.influence[j]));
        return;
      }
    }
  }

  /// Replays every observation the server saw into an in-process
  /// StreamingPrimeLS and compares each stream response (clock, live
  /// counts, best) with the replay's state after the same request.
  /// `observe_us` / `advance_us` receive per-call engine times when
  /// non-null (the traced run's core.stream metrics).
  void CheckStream(const WorkloadSpec& w, const RoundInputs& in,
                   const std::vector<const Call*>& calls,
                   std::vector<double>* observe_us,
                   std::vector<double>* advance_us) {
    StreamingPrimeLS::Options options;
    options.config = ServerConfig();
    options.window_seconds = w.stream_window;
    StreamingPrimeLS stream(in.instance.candidates, options);
    for (const Call* c : calls) {
      const double start = Now();
      if (c->cls == kObserveCls) {
        for (const Observation& o : c->request.observe.observations) {
          stream.Observe(o.object_id, o.time, o.position);
        }
        if (observe_us != nullptr) {
          observe_us->push_back(
              (Now() - start) * 1e6 /
              static_cast<double>(c->request.observe.observations.size()));
        }
      } else {
        stream.AdvanceTo(c->request.advance.time);
        if (advance_us != nullptr) advance_us->push_back((Now() - start) * 1e6);
      }
      if (!c->ok) continue;
      const StreamResponse& got = c->response->stream;
      const auto best = stream.Best();
      const bool same =
          got.now == stream.now() &&
          got.live_objects == stream.NumLiveObjects() &&
          got.live_positions == stream.NumLivePositions() &&
          got.has_best == best.has_value() &&
          (!best.has_value() || (got.best_candidate == best->first &&
                                 got.best_influence == best->second));
      if (!same) {
        Fail("stream state differs at t=" + std::to_string(got.now));
      }
    }
  }
};

// --------------------------------------------------------------- one round

struct RunOptions {
  WorkloadSpec workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;
  std::string workdir;
};

/// Boots the server on the round's instance and measures setup: spawn to
/// the first answered main-class request (stream window fill included).
/// The rest of the round's traffic continues on `conn`.
bool BootAndSetup(const RunOptions& opt, const RoundInputs& in,
                  size_t round, ServerProcess* server, Conn* conn,
                  StreamTraffic* stream, RoundResult* result,
                  std::string* error) {
  const WorkloadSpec& w = opt.workload;
  const double start = Now();
  if (!server->Start(opt.server_binary, ServerArgs(w, in),
                     opt.workdir + "/server" + std::to_string(round) + ".log",
                     error)) {
    return false;
  }
  conn->fd = server->Connect();
  if (conn->fd < 0) {
    *error = "cannot connect to the server";
    return false;
  }
  if (w.stream_window > 0.0) {
    // Fill the window to steady state with the workload's own cycle of
    // frames and advances, for 1.25 windows of stream time, so expiries
    // balance arrivals and the window holds the gaps the advances leave,
    // as it does for the rest of the round. Filled with frames alone, the
    // first advances of every slice expired gap-free stretches and cost
    // twice what later ones did. Set-up ends with an observe frame.
    for (;;) {
      Call c = stream->Next();
      const bool main = c.cls == kObserveCls;
      if (!RoundTrip(conn, &c, false) || !c.ok) {
        *error = "stream fill failed";
        return false;
      }
      result->setup_calls.push_back(std::move(c));
      if (main && stream->time() >= 1.25 * w.stream_window) break;
    }
  } else {
    Call first = MakeTopK();
    if (!RoundTrip(conn, &first, false) || !first.ok) {
      *error = "first top-k failed";
      return false;
    }
    result->setup_calls.push_back(std::move(first));
  }
  result->setup_s = Now() - start;
  return true;
}

/// Drives one measured slice of the workload's traffic.
Slice DriveSlice(const RunOptions& opt, const RoundInputs& in, Conn* conn,
                 StreamTraffic* stream, double seconds, bool traced) {
  const WorkloadSpec& w = opt.workload;
  if (w.stream_window > 0.0) {
    return RunClosedLoop(conn, seconds, traced, [&] { return stream->Next(); });
  }
  uint32_t i = 0;
  return RunClosedLoop(conn, seconds, traced, [&] {
    const uint32_t n = i++;
    return n % 2 == 0 ? MakeTopK() : MakeProbe(in, n / 2);
  });
}

/// vo-topk's traffic never appends objects, so its traced run appends
/// three, one at a time, after the traced slice and probes until an answer
/// reports each: the serve.snapshot metrics. The calls go to `calls`,
/// checked with the rest (each probe at its epoch) but kept out of the
/// traced slice's serving samples, since these probes meet the rebuilds;
/// each update's publication lag (update sent to the first answer that
/// reports it) goes to `lag_ms`.
void MeasurePublication(Conn* conn, const RoundInputs& in,
                        std::vector<Call>* calls, std::vector<double>* lag_ms) {
  Rng rng(in.seed ^ 0x5a5ull);
  uint64_t want = in.instance.objects.size();
  uint32_t probes = 0;
  for (uint32_t j = 0; j < 3; ++j) {
    Call update = MakeUpdate(in, rng, 1200000 + j);
    const bool sent = RoundTrip(conn, &update, true);
    update.due = update.sent;
    const double update_sent = update.sent;
    calls->push_back(std::move(update));
    if (!sent) return;
    ++want;
    for (int tries = 0; tries < 2000; ++tries) {
      Call probe = MakeProbe(in, probes++);
      const bool answered = RoundTrip(conn, &probe, true);
      probe.due = probe.sent;
      const bool grown = answered && probe.ok &&
                         probe.response->probe.num_objects >= want;
      if (grown) lag_ms->push_back((probe.done - update_sent) * 1e3);
      calls->push_back(std::move(probe));
      if (!answered || grown) break;
    }
  }
}

// --------------------------------------------------------------- metrics

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

double Median(std::vector<double> v) {
  SortForQuantiles(v);
  return QuantileOfSorted(v, 0.5);
}

double GeometricMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Everything the traced run measures in-process, pooled over rounds.
struct LayerSamples {
  std::vector<double> load_ms, prepare_ms, store_ms, rtree_ms, memo_hits;
  std::vector<double> prune_ms, order_ms, solve_ms, validate_ms;
  std::vector<double> pairs_ia, pairs_nib, remnant, total_pairs, validated,
      positions, early_stops, heap_pops, cutoffs;
  std::vector<double> probe_ms, reprepare_ms, approx_ms, refined_share,
      skyline_ms, bound_skipped, diverse_ms, gain_evals;
  std::vector<double> observe_us, advance_us, live_positions, live_objects;
  std::vector<double> execute_main_ms, execute_light_ms;
  std::vector<double> encode_main_us, decode_main_us, encode_light_us,
      decode_light_us, req_bytes_main, resp_bytes_main, req_bytes_light,
      resp_bytes_light;
  std::vector<double> busy_s, utilisation, swaps, publish_lag_ms;
  std::vector<double> late_ms;
  std::vector<double> self_codec, self_socket, self_server;
  std::vector<double> main_untraced_ms, main_traced_ms;
  // Round trip minus the server's reported solve time, by class.
  std::vector<double> wait_main_ms, wait_light_ms;
};

/// Times the codec on the run's own frames: Encode/Decode of each request
/// and its response, repeated for resolution.
void TimeCodec(const std::vector<const Call*>& calls, std::vector<double>* enc,
               std::vector<double>* dec, std::vector<double>* req_bytes,
               std::vector<double>* resp_bytes) {
  constexpr int kReps = 20;
  for (const Call* c : calls) {
    if (!c->ok) continue;
    const std::vector<uint8_t> req = EncodeRequest(c->request);
    const std::vector<uint8_t> resp = EncodeResponse(*c->response);
    const std::span<const uint8_t> req_body(req.data() + 4, req.size() - 4);
    const std::span<const uint8_t> resp_body(resp.data() + 4, resp.size() - 4);
    size_t sink = 0;
    const double e = Timed("protocol.encode", [&] {
      for (int i = 0; i < kReps; ++i) {
        sink += EncodeRequest(c->request).size();
        sink += EncodeResponse(*c->response).size();
      }
    });
    const double d = Timed("protocol.decode", [&] {
      for (int i = 0; i < kReps; ++i) {
        sink += DecodeRequest(req_body).has_value();
        sink += DecodeResponse(resp_body).has_value();
      }
    });
    g_sink = sink;
    enc->push_back(e * 1e6 / kReps);
    dec->push_back(d * 1e6 / kReps);
    req_bytes->push_back(static_cast<double>(req.size()));
    resp_bytes->push_back(static_cast<double>(resp.size()));
  }
}

/// In-process replays of one traced round: each layer's public entry
/// point timed on the round's own instance and requests.
void ReplayLayers(const RunOptions& opt, const RoundInputs& in,
                  const RoundResult& round, LayerSamples* L) {
  const WorkloadSpec& w = opt.workload;
  const bool snapshot_path = w.stream_window == 0.0;

  CheckinDataset loaded;
  std::string error;
  bool load_ok = false;
  L->load_ms.push_back(1e3 * Timed("data.load", [&] {
    load_ok = LoadDatasetBinaryFile(in.pino_path, &loaded, &error);
  }));
  if (!load_ok) std::cerr << "data.load replay failed: " << error << "\n";
  std::optional<PreparedInstance> prepared;
  L->prepare_ms.push_back(1e3 * Timed("core.prepare", [&] {
    prepared.emplace(in.instance, ServerConfig());
  }));
  const PreparedBuildStats& build = prepared->build_stats();
  L->store_ms.push_back(build.store_seconds * 1e3);
  L->rtree_ms.push_back(build.rtree_seconds * 1e3);
  L->memo_hits.push_back(static_cast<double>(build.radius_memo_hits));

  // The calls of the traced slice, by class, for service and codec replay.
  std::vector<const Call*> main_calls, light_calls;
  const Cls main_cls = MainClass(w);
  const Cls light_cls = LightClass(w);
  // A few calls per class per round: the codec and service replays time
  // the same code paths the server ran, not new ones.
  constexpr size_t kReplayCalls = 4;
  for (const Call& c : round.traced.calls) {
    if (c.cls == main_cls && main_calls.size() < kReplayCalls) {
      main_calls.push_back(&c);
    }
    if (c.cls == light_cls && light_calls.size() < kReplayCalls) {
      light_calls.push_back(&c);
    }
  }
  TimeCodec(main_calls, &L->encode_main_us, &L->decode_main_us,
            &L->req_bytes_main, &L->resp_bytes_main);
  TimeCodec(light_calls, &L->encode_light_us, &L->decode_light_us,
            &L->req_bytes_light, &L->resp_bytes_light);

  if (snapshot_path) {
    // Prune, order and the whole solve, exactly as the server's top-k
    // runs them (ParallelPinocchioVOSolver at the server's budget).
    const InfluenceKernel kernel(prepared->pf(), prepared->tau());
    const MorselScheduler scheduler(w.solve_threads);
    for (int rep = 0; rep < 3; ++rep) {
      SolverStats prune_stats;
      query::CandidateBrackets brackets;
      const double prune = Timed("core.prune", [&] {
        brackets = query::BuildCandidateBracketsParallel(*prepared, kernel,
                                                         scheduler,
                                                         &prune_stats);
      });
      std::vector<uint32_t> order;
      const double order_s = Timed("core.order", [&] {
        order = query::BoundDominationOrderParallel(brackets, scheduler);
      });
      SolverResult result;
      const double solve = Timed("core.solve", [&] {
        result = ParallelPinocchioVOSolver(w.solve_threads).Solve(*prepared);
      });
      const double validate = std::max(0.0, solve - prune - order_s);
      L->prune_ms.push_back(prune * 1e3);
      L->order_ms.push_back(order_s * 1e3);
      L->solve_ms.push_back(solve * 1e3);
      L->validate_ms.push_back(validate * 1e3);
      L->pairs_ia.push_back(double(prune_stats.pairs_pruned_by_ia));
      L->pairs_nib.push_back(double(prune_stats.pairs_pruned_by_nib));
      L->remnant.push_back(double(brackets.vs_data.size()));
      L->total_pairs.push_back(double(prepared->num_objects()) *
                               double(prepared->num_candidates()));
      L->validated.push_back(double(result.stats.pairs_validated));
      L->positions.push_back(double(result.stats.positions_scanned));
      L->early_stops.push_back(double(result.stats.early_stops));
      L->heap_pops.push_back(double(result.stats.heap_pops));
      L->cutoffs.push_back(double(result.stats.strategy1_cutoffs));
    }
    for (const Point& p : in.probe_points) {
      int64_t sink = 0;
      L->probe_ms.push_back(1e3 * Timed("core.probe", [&] {
        sink = InfluenceOfCandidate(*prepared, p);
      }));
      g_sink = static_cast<size_t>(sink);
    }
  }

  if (snapshot_path) {
    // The server's other query families, on the round's instance.
    PreparedInstance scratch(in.instance, ServerConfig());
    SolverConfig whatif = ServerConfig();
    whatif.tau = 0.6;
    L->reprepare_ms.push_back(
        1e3 * Timed("core.reprepare", [&] { scratch.Reprepare(whatif); }));
    ApproxTopKResult approx;
    L->approx_ms.push_back(1e3 * Timed("core.approx", [&] {
      approx = query::SolveApproxTopKParallel(*prepared, kTopK,
                                              SketchParams{0.25, 0.05, 1},
                                              w.solve_threads);
    }));
    const double decided =
        double(approx.pairs_refined + approx.stats.pairs_validated);
    L->refined_share.push_back(
        decided > 0 ? double(approx.pairs_refined) / decided : 0.0);
    std::vector<double> cost(prepared->num_candidates());
    for (size_t j = 0; j < cost.size(); ++j) {
      cost[j] = Distance(prepared->candidate(j), in.probe_points[0]);
    }
    query::SkylineResult skyline;
    L->skyline_ms.push_back(1e3 * Timed("core.skyline", [&] {
      skyline = query::SolveSkylineParallel(*prepared, cost, w.solve_threads);
    }));
    L->bound_skipped.push_back(double(skyline.bound_skipped));
    query::DiversifiedResult diverse;
    L->diverse_ms.push_back(1e3 * Timed("core.diverse", [&] {
      diverse = query::SelectDiversifiedParallel(*prepared, 5, 500.0,
                                                 w.solve_threads);
    }));
    L->gain_evals.push_back(double(diverse.gain_evaluations));
  }

  // InfluenceService::Execute on the traced slice's own requests; the gap
  // to the round trip is transport. The stream service first replays the
  // window fill and everything before each timed frame (untimed), so every
  // frame meets the state it met on the server.
  ServiceOptions service_options;
  service_options.prepared_top_k = kPreparedTopK;
  service_options.pf_unit_meters = kUnitMeters;
  service_options.solve_threads = w.solve_threads;
  service_options.stream_window_seconds = w.stream_window;
  InfluenceService service(in.instance, ServerConfig(), service_options);
  if (snapshot_path) {
    for (const Call* c : main_calls) {
      L->execute_main_ms.push_back(1e3 * Timed("service.execute.main", [&] {
        service.Execute(c->request);
      }));
    }
    for (const Call* c : light_calls) {
      L->execute_light_ms.push_back(1e3 * Timed("service.execute.light", [&] {
        service.Execute(c->request);
      }));
    }
  } else {
    for (const Call& c : round.setup_calls) service.Execute(c.request);
    for (const Call& c : round.untraced.calls) service.Execute(c.request);
    for (const Call& c : round.traced.calls) {
      const double ms = 1e3 * Timed(c.cls == kObserveCls
                                        ? "service.execute.main"
                                        : "service.execute.light",
                                    [&] { service.Execute(c.request); });
      (c.cls == kObserveCls ? L->execute_main_ms : L->execute_light_ms)
          .push_back(ms);
    }
  }
}

/// Self time of each span in g_spans[first, end): its duration minus the
/// durations of its children (children of one span never overlap here).
std::vector<double> SelfTimes(size_t first) {
  std::vector<double> self(g_spans.size() - first);
  for (size_t i = first; i < g_spans.size(); ++i) {
    self[i - first] += g_spans[i].end - g_spans[i].start;
    const int64_t parent = g_spans[i].parent;
    if (parent >= static_cast<int64_t>(first)) {
      self[static_cast<size_t>(parent) - first] -=
          g_spans[i].end - g_spans[i].start;
    }
  }
  return self;
}

/// Adds the traced slice's per-call serving samples and, from its span
/// trees, the main class's self time per layer.
void CollectTracedServing(const WorkloadSpec& w, const RoundResult& round,
                          LayerSamples* L) {
  const Cls main_cls = MainClass(w);
  const Cls light_cls = LightClass(w);
  const size_t first_span = g_spans.size();
  for (size_t i = 0; i < round.traced.calls.size(); ++i) {
    const Call& c = round.traced.calls[i];
    if (!c.ok) continue;
    RecordCallSpans(c, static_cast<int64_t>(i));
    const double wait_ms =
        (c.decode_end - c.sent - ServerSeconds(*c.response)) * 1e3;
    if (c.cls == main_cls) L->wait_main_ms.push_back(wait_ms);
    if (c.cls == light_cls) L->wait_light_ms.push_back(wait_ms);
  }
  const std::vector<double> self = SelfTimes(first_span);
  const std::string main_root = std::string("rpc.") + kClsName[main_cls];
  std::map<int64_t, std::map<std::string, double>> by_request;
  for (size_t i = first_span; i < g_spans.size(); ++i) {
    by_request[g_spans[i].request][g_spans[i].name] += self[i - first_span];
  }
  for (auto& [request, layer] : by_request) {
    if (!layer.count(main_root)) continue;
    L->self_codec.push_back(
        (layer["protocol.encode"] + layer["protocol.decode"]) * 1e3);
    L->self_socket.push_back((layer["socket.send"] + layer["socket.wait"]) *
                             1e3);
    L->self_server.push_back(layer["server.solve"] * 1e3);
  }
  L->late_ms.push_back(round.traced.late_p90_ms);
  L->publish_lag_ms.insert(L->publish_lag_ms.end(),
                           round.publish_lag_ms.begin(),
                           round.publish_lag_ms.end());
  if (round.traced.stats_before && round.traced.stats_after) {
    const double busy = round.traced.stats_after->solve_busy_seconds -
                        round.traced.stats_before->solve_busy_seconds;
    L->busy_s.push_back(busy);
    L->utilisation.push_back(
        busy / (round.traced.seconds * double(std::max<size_t>(1, w.solve_threads))));
  }
  L->swaps.push_back(double(round.swaps));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v);
}

double Pct(std::vector<double> v, double q) {
  SortForQuantiles(v);
  return QuantileOfSorted(v, q);
}

Metrics LayerMetrics(const LayerSamples& L) {
  Metrics m;
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    m.push_back({name, {value, unit}});
  };
  const double validate = MedianOr0(L.validate_ms);
  const double solve = MedianOr0(L.solve_ms);
  const double positions = MedianOr0(L.positions);
  const double total = MedianOr0(L.total_pairs);
  put("serve.wait_ms.p50.main", Pct(L.wait_main_ms, 0.5), "ms");
  put("serve.wait_ms.p90.main", Pct(L.wait_main_ms, 0.9), "ms");
  put("serve.wait_ms.p50.light", Pct(L.wait_light_ms, 0.5), "ms");
  put("serve.wait_ms.p90.light", Pct(L.wait_light_ms, 0.9), "ms");
  put("serve.gen_late_ms.p90", MedianOr0(L.late_ms), "ms");
  put("serve.protocol.encode_us.main", MedianOr0(L.encode_main_us), "us");
  put("serve.protocol.decode_us.main", MedianOr0(L.decode_main_us), "us");
  put("serve.protocol.encode_us.light", MedianOr0(L.encode_light_us), "us");
  put("serve.protocol.decode_us.light", MedianOr0(L.decode_light_us), "us");
  put("serve.protocol.request_bytes.main", MedianOr0(L.req_bytes_main), "bytes");
  put("serve.protocol.response_bytes.main", MedianOr0(L.resp_bytes_main), "bytes");
  put("serve.protocol.request_bytes.light", MedianOr0(L.req_bytes_light), "bytes");
  put("serve.protocol.response_bytes.light", MedianOr0(L.resp_bytes_light),
      "bytes");
  put("serve.service.execute_ms.main", MedianOr0(L.execute_main_ms), "ms");
  put("serve.service.execute_ms.light", MedianOr0(L.execute_light_ms), "ms");
  put("serve.snapshot.swaps", Sum(L.swaps), "count");
  put("serve.snapshot.publish_lag_ms", MedianOr0(L.publish_lag_ms), "ms");
  put("data.load_ms", MedianOr0(L.load_ms), "ms");
  put("core.prepare_ms", MedianOr0(L.prepare_ms), "ms");
  put("core.prepare.store_ms", MedianOr0(L.store_ms), "ms");
  put("core.prepare.rtree_ms", MedianOr0(L.rtree_ms), "ms");
  put("core.prepare.radius_memo_hits", MedianOr0(L.memo_hits), "count");
  put("core.reprepare_ms", MedianOr0(L.reprepare_ms), "ms");
  put("core.prune_ms", MedianOr0(L.prune_ms), "ms");
  put("core.prune.pairs_ia", MedianOr0(L.pairs_ia), "count");
  put("core.prune.pairs_nib", MedianOr0(L.pairs_nib), "count");
  put("core.prune.remnant_pairs", MedianOr0(L.remnant), "count");
  put("core.order_ms", MedianOr0(L.order_ms), "ms");
  put("core.reduce.after_prune_share",
      total > 0 ? MedianOr0(L.remnant) / total : 0.0, "share");
  put("core.reduce.after_cutoff_share",
      total > 0 ? MedianOr0(L.validated) / total : 0.0, "share");
  put("core.validate_ms", validate, "ms");
  put("core.validate.share", solve > 0 ? validate / solve : 0.0, "share");
  put("core.validate.pairs_validated", MedianOr0(L.validated), "count");
  put("core.validate.positions_scanned", positions, "count");
  put("core.validate.early_stops", MedianOr0(L.early_stops), "count");
  put("core.validate.heap_pops", MedianOr0(L.heap_pops), "count");
  put("core.validate.strategy1_cutoffs", MedianOr0(L.cutoffs), "count");
  put("prob.kernel.ns_per_position",
      positions > 0 ? validate * 1e6 / positions : 0.0, "ns");
  put("core.probe_ms", MedianOr0(L.probe_ms), "ms");
  put("core.approx_ms", MedianOr0(L.approx_ms), "ms");
  put("core.approx.refined_share", MedianOr0(L.refined_share), "share");
  put("core.skyline_ms", MedianOr0(L.skyline_ms), "ms");
  put("core.skyline.bound_skipped", MedianOr0(L.bound_skipped), "count");
  put("core.diverse_ms", MedianOr0(L.diverse_ms), "ms");
  put("core.diverse.gain_evaluations", MedianOr0(L.gain_evals), "count");
  put("parallel.busy_s", Sum(L.busy_s), "s");
  put("parallel.utilisation", MedianOr0(L.utilisation), "share");
  put("core.stream.observe_us", MedianOr0(L.observe_us), "us");
  put("core.stream.advance_us", MedianOr0(L.advance_us), "us");
  put("core.stream.live_positions", MedianOr0(L.live_positions), "count");
  put("core.stream.live_objects", MedianOr0(L.live_objects), "count");
  put("self_ms.main.codec", MedianOr0(L.self_codec), "ms");
  put("self_ms.main.socket", MedianOr0(L.self_socket), "ms");
  put("self_ms.main.server", MedianOr0(L.self_server), "ms");
  const double untraced = Pct(L.main_untraced_ms, 0.5);
  const double traced = Pct(L.main_traced_ms, 0.5);
  put("trace.overhead_ms", traced - untraced, "ms");
  return m;
}

// ----------------------------------------------------------------- output

std::string Json(const Metrics& metrics, bool correct, int64_t attempted,
                 int64_t failed) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    double v = metrics[i].second.first;
    if (!std::isfinite(v)) v = 0.0;
    os << "\"" << metrics[i].first << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  os << "}}";
  return os.str();
}

void LogHost() {
  std::ifstream cpu("/proc/cpuinfo");
  std::string line, model = "unknown";
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ifstream load("/proc/loadavg");
  std::string loadavg;
  std::getline(load, loadavg);
  std::cerr << "host: nproc " << std::thread::hardware_concurrency()
            << ", loadavg " << loadavg << ", cpu " << model << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  RunOptions opt;
  const auto workload = FindWorkload(flags.GetString("workload", ""));
  if (!workload.has_value()) {
    std::cerr << "perfbench_driver: unknown --workload (vo-topk, "
                 "stream-ingest)\n";
    return 2;
  }
  opt.workload = *workload;
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.seconds = flags.GetDouble("seconds", 10.0);
  opt.trace = flags.GetInt("trace", 0) != 0;
  opt.server_binary = flags.GetString("server", "");
  opt.workdir = flags.GetString("workdir", "");
  if (opt.server_binary.empty() || opt.workdir.empty() || opt.seconds <= 0) {
    std::cerr << "perfbench_driver: --server, --workdir and --seconds > 0 "
                 "are required\n";
    return 2;
  }
  std::filesystem::create_directories(opt.workdir);
  const WorkloadSpec& w = opt.workload;
  signal(SIGPIPE, SIG_IGN);
  PinToCpus(0, 1);

  // Noise hygiene: one generator thread plus the server threads that can
  // be busy at once must fit the machine.
  const size_t nproc = std::thread::hardware_concurrency();
  // One connection, so at most one worker is busy.
  const size_t busy_server = std::max<size_t>(1, w.solve_threads);
  LogHost();
  std::cerr << "workload " << w.name << ": seed " << opt.seed << ", "
            << w.rounds << " rounds of Gowalla x" << w.scale << " / "
            << w.candidates << " candidates; generator 1 thread + "
            << busy_server << " busy server threads\n";
  if (1 + busy_server > nproc) {
    std::cerr << "perfbench_driver: needs " << 1 + busy_server
              << " CPUs, machine has " << nproc << "\n";
    return 3;
  }

  const size_t rounds = opt.trace ? (w.rounds + 1) / 2 : w.rounds;
  // Trace mode measures half the rounds twice (untraced, then traced), so
  // both modes drive the server for --seconds in total.
  const double slice_seconds = opt.seconds / double(w.rounds);
  Checker checker;
  int64_t attempted = 0, failed = 0;
  std::vector<double> setups, rss;
  std::vector<std::vector<double>> latency_ms(kNumCls);  // pooled, by class
  double measured_seconds = 0;
  double server_work_s = 0;  // sum of solve_seconds the answers report
  // Per-round latency quantiles and rates. A round is one server on one
  // instance, and a class's cost is the instance's (up to 3x apart between
  // rounds), so pooled quantiles would be set by the costliest instances.
  // The run reports the geometric mean over rounds: every round's noise
  // averages in, where a median over such unequal rounds (or a pooled
  // quantile) rests on the one or two rounds nearest it. Re-scored over
  // earlier ten-seed sets, the IQR over seeds of a median over rounds was
  // up to 1.9x the geometric mean's, and of stream-ingest's pooled light
  // quantiles 1.3-1.6x (vo-topk's probes were steady either way). A stall
  // that doubles one round moves it by 6%.
  std::vector<double> round_main_p50, round_main_p90, round_light_p50,
      round_light_p90, round_rates;
  const Cls main_cls = MainClass(w);
  const Cls light_cls = LightClass(w);
  LayerSamples layers;

  // Wall time of the run's phases, for the report.
  double t_inputs = 0, t_server = 0, t_checks = 0, t_replays = 0;
  for (size_t r = 0; r < rounds; ++r) {
    double mark = Now();
    const RoundInputs in = MakeRoundInputs(w, opt.seed, r, opt.workdir);
    t_inputs += Now() - mark;
    mark = Now();
    std::optional<StreamTraffic> stream;
    if (w.stream_window > 0.0) stream.emplace(w, in);
    RoundResult round;
    {
      ServerProcess server;
      Conn conn;
      std::string error;
      if (!BootAndSetup(opt, in, r, &server, &conn,
                        stream ? &*stream : nullptr, &round, &error)) {
        std::cerr << "round " << r << ": " << error << "\n";
        return 1;
      }
      round.untraced = DriveSlice(opt, in, &conn, stream ? &*stream : nullptr,
                                  slice_seconds, false);
      if (opt.trace) {
        round.traced = [&] {
          auto before = FetchStats(&conn);
          Slice s = DriveSlice(opt, in, &conn, stream ? &*stream : nullptr,
                               slice_seconds, true);
          s.stats_before = before;
          s.stats_after = FetchStats(&conn);
          return s;
        }();
        if (w.stream_window == 0.0) {
          MeasurePublication(&conn, in, &round.publication_calls,
                             &round.publish_lag_ms);
        }
      }
      const auto stats = FetchStats(&conn);
      if (stats.has_value()) round.swaps = stats->snapshot_swaps;
      round.rss_mb = server.PeakRssMb();
      close(conn.fd);
      conn.fd = -1;
      server.Stop();
    }

    t_server += Now() - mark;
    mark = Now();

    // ---- checks (outside every timed section)
    std::vector<const Call*> all;
    for (const Call& c : round.setup_calls) all.push_back(&c);
    for (const Call& c : round.untraced.calls) all.push_back(&c);
    for (const Call& c : round.traced.calls) all.push_back(&c);
    for (const Call& c : round.publication_calls) all.push_back(&c);
    // A call without the expected answer (no answer, an error, another
    // response type) is a failure like a wrong answer.
    const int64_t before = checker.mismatches;
    std::vector<Call> updates;
    for (const Call* c : all) {
      ++attempted;
      if (!c->ok) {
        const std::string cls = kClsName[c->cls];
        if (!c->response.has_value()) {
          checker.Fail(cls + ": no answer");
        } else if (c->response->type == ResponseType::kError) {
          checker.Fail(cls + " error: " + c->response->error.message);
        } else {
          checker.Fail(cls + ": unexpected response type " +
                       std::to_string(int(c->response->type)));
        }
      }
      if (c->cls == kUpdateCls && c->ok) updates.push_back(*c);
    }
    if (w.stream_window > 0.0) {
      std::vector<double> observe_us, advance_us;
      checker.CheckStream(w, in, all, opt.trace ? &observe_us : nullptr,
                          opt.trace ? &advance_us : nullptr);
      // Per-call engine time, measured on the traced slice's calls only.
      const size_t skip = all.size() - round.traced.calls.size();
      if (opt.trace) {
        size_t oi = 0, ai = 0;
        for (size_t i = 0; i < all.size(); ++i) {
          const bool obs = all[i]->cls == kObserveCls;
          const double v = obs ? observe_us[oi++] : advance_us[ai++];
          if (i >= skip) (obs ? layers.observe_us : layers.advance_us).push_back(v);
        }
        const Call& last = round.traced.calls.back();
        if (last.ok) {
          layers.live_positions.push_back(
              double(last.response->stream.live_positions));
          layers.live_objects.push_back(
              double(last.response->stream.live_objects));
        }
      }
    } else {
      std::vector<const Call*> answers;
      for (const Call* c : all) {
        if (c->cls == kTopKCls || c->cls == kProbeCls) answers.push_back(c);
      }
      checker.CheckSnapshotAnswers(in, answers, updates);
    }
    failed += checker.mismatches - before;
    t_checks += Now() - mark;

    // ---- samples
    setups.push_back(round.setup_s);
    rss.push_back(round.rss_mb);
    measured_seconds += round.untraced.seconds;
    std::vector<double> main_ms, light_ms;
    double main_ops = 0;
    for (const Call& c : round.untraced.calls) {
      if (!c.ok) continue;
      const double ms = (c.done - c.due) * 1e3;
      server_work_s += ServerSeconds(*c.response);
      latency_ms[c.cls].push_back(ms);
      if (c.cls == main_cls) {
        main_ms.push_back(ms);
        main_ops += c.cls == kObserveCls ? double(c.response->stream.applied)
                                         : 1.0;
      }
      if (c.cls == light_cls) light_ms.push_back(ms);
    }
    layers.main_untraced_ms.insert(layers.main_untraced_ms.end(),
                                   main_ms.begin(), main_ms.end());
    round_main_p50.push_back(Pct(main_ms, 0.5));
    round_main_p90.push_back(Pct(main_ms, 0.9));
    round_light_p50.push_back(Pct(light_ms, 0.5));
    round_light_p90.push_back(Pct(light_ms, 0.9));
    round_rates.push_back(main_ops / round.untraced.seconds);
    std::cerr << "round " << r << ": setup " << round.setup_s * 1e3
              << " ms, main n " << main_ms.size() << " p50 "
              << Pct(main_ms, 0.5) << " p90 " << Pct(main_ms, 0.9)
              << ", light n " << light_ms.size() << " p50 "
              << Pct(light_ms, 0.5) << " p90 " << Pct(light_ms, 0.9)
              << ", rate " << round_rates.back() << "/s\n";
    if (opt.trace) {
      for (const Call& c : round.traced.calls) {
        if (c.ok && c.cls == main_cls) {
          layers.main_traced_ms.push_back((c.done - c.due) * 1e3);
        }
      }
      mark = Now();
      CollectTracedServing(w, round, &layers);
      ReplayLayers(opt, in, round, &layers);
      t_replays += Now() - mark;
    }
    std::filesystem::remove(in.pino_path);
  }

  // ---------------------------------------------------------------- report
  std::cerr << "run phases: inputs " << t_inputs << " s, server rounds "
            << t_server << " s (measured " << measured_seconds
            << " s), checks " << t_checks << " s, replays " << t_replays
            << " s\n";
  std::cerr << "server work share (reported solve time / measured time): "
            << server_work_s / measured_seconds << "\n";
  std::cerr << "pooled over rounds:\n"
            << "class        count      p50 ms     p90 ms     p99 ms\n";
  for (size_t c = 0; c < kNumCls; ++c) {
    if (latency_ms[c].empty()) continue;
    std::vector<double> v = latency_ms[c];
    SortForQuantiles(v);
    char line[160];
    std::snprintf(line, sizeof(line), "%-10s %7zu %10.3f %10.3f %10.3f%s\n",
                  kClsName[c], v.size(), QuantileOfSorted(v, 0.5),
                  QuantileOfSorted(v, 0.9), QuantileOfSorted(v, 0.99),
                  c == main_cls    ? "  (main)"
                  : c == light_cls ? "  (light)"
                                   : "");
    std::cerr << line;
  }
  for (const std::string& note : checker.notes) {
    std::cerr << "MISMATCH: " << note << "\n";
  }
  const double failed_share =
      attempted > 0 ? double(failed) / double(attempted) : 1.0;
  std::cerr << "attempted " << attempted << ", failed " << failed
            << " (failed_share " << failed_share << "), mismatches "
            << checker.mismatches << "\n";

  Metrics metrics;
  if (opt.trace) {
    metrics = LayerMetrics(layers);
    WriteSpans(opt.workdir + "/spans.jsonl");
  } else {
    metrics = {
        {"setup_s", {Median(setups), "s"}},
        {"rss_mb", {Median(rss), "MB"}},
        {"main_p50_ms", {GeometricMean(round_main_p50), "ms"}},
        {"main_p90_ms", {GeometricMean(round_main_p90), "ms"}},
        {"light_p50_ms", {GeometricMean(round_light_p50), "ms"}},
        {"light_p90_ms", {GeometricMean(round_light_p90), "ms"}},
        {"rate_per_s", {GeometricMean(round_rates), "1/s"}},
        {"ok_share", {1.0 - failed_share, "share"}},
    };
  }
  for (const auto& [name, value] : metrics) {
    std::cerr << "  " << name << " = " << value.first << " " << value.second
              << "\n";
  }
  const bool correct = failed == 0;
  std::cout << Json(metrics, correct, attempted, failed) << std::endl;
  return correct ? 0 : 1;
}
