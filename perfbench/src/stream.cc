// sosed_stream: a closed loop against a separate `sosed` server process over
// a Unix socket. One load-generator process (this one) runs C synchronous
// ServiceClient connections, one per thread. Each client does what the
// service's own selfcheck does (src/sosed/selfcheck.cc): it opens a session,
// sends one `update` per ascending row and waits for each reply, fetches the
// final sketch and compares it bit for bit with batch ApplySparse on the
// same data. Unlike selfcheck it also interleaves reads, alternately
// `sketch` and `distortion`, at a fixed ratio.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "core/random.h"
#include "core/sparse.h"
#include "sketch/registry.h"
#include "sosed/client.h"

extern char** environ;

namespace perfbench {

namespace {

using sose::sosed::Reply;
using sose::sosed::ServiceClient;
using sose::sosed::UpdateEntry;

// selfcheck's session shape (m, s, k and the 70% fill of a row's cells),
// over a larger ambient dimension so a pass can stream many rows.
constexpr int64_t kAmbientN = int64_t{1} << 20;
constexpr int64_t kTargetM = 64;
constexpr int64_t kSparsity = 4;
constexpr int64_t kColumns = 6;
constexpr double kFill = 0.7;
/// Rows each client streams per pass: short passes, so that the median
/// pass is one that no scheduler stall hit.
constexpr int64_t kRowsPerPass = 4096;
/// One read per this many updates. No in-repo client reads mid-stream;
/// the ratio is this benchmark's choice, so that reads stay a small share
/// of the traffic yet give over a hundred latency samples per pass.
constexpr size_t kUpdatesPerQuery = 64;
constexpr double kTimeout = 10.0;

/// The sosed child process: spawned with its stdout on a pipe so the
/// `ready` line can be awaited; killed and reaped if still running when
/// this object goes away.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
  }

  std::string Start(const std::string& binary, const std::string& socket) {
    int fds[2];
    if (pipe(fds) != 0) return "pipe failed";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string unix_flag = "--unix=" + socket;
    char* argv[] = {const_cast<char*>(binary.c_str()),
                    const_cast<char*>(unix_flag.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv,
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = 0;
      return "cannot spawn " + binary;
    }
    // Await `ready,<unix_path>,<tcp_port>`.
    std::string line;
    const double deadline = MonotonicSeconds() + kTimeout;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      const int left = static_cast<int>(1e3 * (deadline - MonotonicSeconds()));
      if (left <= 0 || poll(&p, 1, left) <= 0) return "sosed never became ready";
      char buf[256];
      const ssize_t got = read(out_, buf, sizeof(buf));
      if (got <= 0) return "sosed exited before ready";
      line.append(buf, static_cast<size_t>(got));
    }
    if (line.rfind("ready,", 0) != 0) return "unexpected sosed banner: " + line;
    return "";
  }

  /// Waits (bounded) for a clean exit after `shutdown`.
  bool Reap() {
    const double deadline = MonotonicSeconds() + 5.0;
    while (MonotonicSeconds() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      usleep(2000);
    }
    return false;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = 0;
  int out_ = -1;
};

/// A number following `"key":` at or after `from` in a JSON document.
double JsonNumber(const std::string& doc, const std::string& key,
                  size_t from = 0) {
  const size_t at = doc.find("\"" + key + "\"", from);
  if (at == std::string::npos) return 0.0;
  size_t p = doc.find(':', at) + 1;
  while (p < doc.size() && doc[p] == ' ') ++p;
  return std::strtod(doc.c_str() + p, nullptr);
}

/// Server-side totals read from one `stats` reply.
struct ServerStats {
  double update_s = 0.0;
  double query_s = 0.0;
  int64_t busy = 0;
  int64_t pauses = 0;
};

std::optional<ServerStats> FetchStats(ServiceClient* control) {
  auto doc = control->Stats(kTimeout);
  if (!doc.ok()) return std::nullopt;
  const std::string& d = doc.value();
  auto hist_sum = [&d](const std::string& name) {
    const size_t at = d.find("\"" + name + "\"");
    return at == std::string::npos ? 0.0 : JsonNumber(d, "sum", at);
  };
  ServerStats s;
  s.update_s = hist_sum("sosed.request.update.seconds");
  s.query_s = hist_sum("sosed.request.sketch.seconds") +
              hist_sum("sosed.request.distortion.seconds");
  s.busy = static_cast<int64_t>(JsonNumber(d, "busy"));
  s.pauses = static_cast<int64_t>(JsonNumber(d, "backpressure_pauses"));
  return s;
}

/// One client's share of one pass.
struct ClientPass {
  std::string family;
  uint64_t sketch_seed = 0;
  std::vector<std::pair<int64_t, std::vector<UpdateEntry>>> data;
  std::vector<double> update_s;
  std::vector<double> query_s;
  int64_t rows = 0;
  int64_t attempted = 0;
  std::vector<std::string> misses;
  std::optional<sose::Matrix> final_sketch;
};

/// The ascending-row turnstile data of one client pass: every cell is
/// written at most once, which pins the streamed accumulation order to
/// ApplySparse's CSC walk and makes the comparison exact.
void MakeData(uint64_t data_seed, ClientPass* pass) {
  sose::Rng rng(data_seed);
  const int64_t stride = kAmbientN / kRowsPerPass;
  for (int64_t j = 0; j < kRowsPerPass; ++j) {
    const int64_t row = j * stride + static_cast<int64_t>(rng.UniformInt(
                                         static_cast<uint64_t>(stride)));
    std::vector<UpdateEntry> entries;
    for (int64_t c = 0; c < kColumns; ++c) {
      // Column 0 is always written, so no update is empty.
      if (c == 0 || rng.UniformDouble() < kFill) {
        entries.push_back({c, rng.UniformDouble(-1.0, 1.0)});
      }
    }
    pass->data.emplace_back(row, std::move(entries));
  }
}

void RunClient(ServiceClient* client, const std::string& sid, int64_t op,
               ClientPass* pass) {
  Trace::SetOp(op);
  auto request = [&](const char* what, auto&& call) -> bool {
    ++pass->attempted;
    auto reply = call();
    if (!reply.ok()) {
      pass->misses.push_back(sid + " " + what + ": " + reply.status().ToString());
      return false;
    }
    if constexpr (std::is_same_v<std::decay_t<decltype(reply.value())>, Reply>) {
      if (reply.value().kind != Reply::Kind::kOk) {
        pass->misses.push_back(sid + " " + what + ": " + reply.value().message);
        return false;
      }
    }
    return true;
  };
  auto timed = [](Layer layer, std::vector<double>* samples, auto&& call) {
    return [layer, samples, &call] {
      Span span(layer);
      const double start = MonotonicSeconds();
      auto reply = call();
      samples->push_back(MonotonicSeconds() - start);
      return reply;
    };
  };
  auto fetch = [&] { return client->FetchSketch(sid, kTimeout); };
  auto distortion = [&] { return client->Distortion(sid, kTimeout); };
  if (!request("open", [&] {
        return client->Open(sid, pass->family, kAmbientN, kTargetM, kSparsity,
                            kColumns, pass->sketch_seed, kTimeout);
      })) {
    return;
  }
  for (size_t j = 0; j < pass->data.size(); ++j) {
    const auto& update = pass->data[j];
    if (!request("update", timed(Layer::kUpdate, &pass->update_s, [&] {
          return client->Update(sid, update.first, update.second, kTimeout);
        }))) {
      return;
    }
    ++pass->rows;
    const size_t done = j + 1;
    if (done % kUpdatesPerQuery != 0) continue;
    const bool ok = (done / kUpdatesPerQuery) % 2 == 1
                        ? request("sketch", timed(Layer::kQuery, &pass->query_s, fetch))
                        : request("distortion",
                                  timed(Layer::kQuery, &pass->query_s, distortion));
    if (!ok) return;
  }
  ++pass->attempted;
  auto final_sketch = timed(Layer::kQuery, &pass->query_s, fetch)();
  if (!final_sketch.ok()) {
    pass->misses.push_back(sid + " final sketch: " +
                           final_sketch.status().ToString());
    return;
  }
  pass->final_sketch = std::move(final_sketch).value();
  request("close", [&] { return client->CloseSession(sid, kTimeout); });
}

/// The selfcheck guarantee: the streamed sketch equals batch ApplySparse
/// on the same data, bit for bit.
std::string Verify(const ClientPass& pass) {
  sose::CooBuilder builder(kAmbientN, kColumns);
  for (const auto& [row, entries] : pass.data) {
    for (const UpdateEntry& e : entries) builder.Add(row, e.col, e.value);
  }
  sose::SketchConfig config;
  config.rows = kTargetM;
  config.cols = kAmbientN;
  config.sparsity = kSparsity;
  config.seed = pass.sketch_seed;
  auto sketch = sose::CreateSketch(pass.family, config);
  if (!sketch.ok()) return sketch.status().ToString();
  auto batch = sketch.value()->ApplySparse(builder.ToCsc());
  if (!batch.ok()) return batch.status().ToString();
  const sose::Matrix& s = *pass.final_sketch;
  const sose::Matrix& b = batch.value();
  if (s.rows() != b.rows() || s.cols() != b.cols()) return "shape mismatch";
  int64_t mismatched = 0;
  for (int64_t i = 0; i < b.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      if (std::bit_cast<uint64_t>(s.At(i, j)) != std::bit_cast<uint64_t>(b.At(i, j))) {
        ++mismatched;
      }
    }
  }
  return mismatched == 0 ? "" : std::to_string(mismatched) + " cells differ";
}

struct PassTotals {
  double wall = 0.0;
  int64_t rows = 0;
};

PassTotals RunPass(std::vector<ServiceClient>& clients, uint64_t pass_seed,
                   int64_t pass, std::vector<double>* update_s,
                   std::vector<double>* query_s, RunResult* result) {
  std::vector<ClientPass> work(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    work[c].family = c % 2 == 0 ? "countsketch" : "osnap";
    work[c].sketch_seed = sose::DeriveSeed(pass_seed, 2 * c);
    MakeData(sose::DeriveSeed(pass_seed, 2 * c + 1), &work[c]);
  }
  const double start = MonotonicSeconds();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      std::string sid = "c";
      sid += std::to_string(c);
      sid += 'p';
      sid += std::to_string(pass);
      threads.emplace_back(RunClient, &clients[c], sid,
                           pass * 1000 + static_cast<int64_t>(c), &work[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  PassTotals totals;
  totals.wall = MonotonicSeconds() - start;
  for (ClientPass& w : work) {
    result->attempted += w.attempted;
    const std::string where = "pass " + std::to_string(pass) + " ";
    for (const std::string& miss : w.misses) result->Miss(where + miss);
    if (w.final_sketch) {
      const std::string diff = Verify(w);
      if (!diff.empty()) result->Miss(where + "parity: " + diff);
    }
    totals.rows += w.rows;
    update_s->insert(update_s->end(), w.update_s.begin(), w.update_s.end());
    query_s->insert(query_s->end(), w.query_s.begin(), w.query_s.end());
  }
  return totals;
}

}  // namespace

RunResult RunStream(const RunConfig& config) {
  RunResult result;
  // Closed loop: at most nproc − 1 clients, so the server keeps a core.
  const int num_clients = std::max(1, std::min(2, Nproc() - 1));
  result.Info("clients", std::to_string(num_clients));
  result.Info("op", "update (one row, request to reply)");
  result.Info("work", "streamed row updates");

  // Set-up: spawn the server, await `ready`, connect every client plus a
  // control connection for `stats` and `shutdown`.
  ServerProcess server;
  const std::string error = server.Start(config.sosed_path, config.socket_path);
  if (!error.empty()) {
    result.Miss(error);
    return result;
  }
  std::vector<ServiceClient> clients;
  for (int c = 0; c <= num_clients; ++c) {
    auto client = ServiceClient::ConnectUnix(config.socket_path, kTimeout);
    if (!client.ok()) {
      result.Miss("connect: " + client.status().ToString());
      return result;
    }
    clients.push_back(std::move(client).value());
  }
  ServiceClient control = std::move(clients.back());
  clients.pop_back();
  result.first_call = MonotonicSeconds();

  PerLayer layer;
  std::vector<double> query_s;
  const double start = MonotonicSeconds();
  for (int64_t pass = 0;
       !config.setup_only && KeepGoing(start, config.seconds, result.passes,
                                           config.trace);
       ++pass, ++result.passes) {
    const uint64_t pass_seed =
        sose::DeriveSeed(config.seed, static_cast<uint64_t>(pass % kPassCycle));
    const PassTotals plain =
        RunPass(clients, pass_seed, 2 * pass, &result.op_seconds, &query_s,
                &result);
    // Every update is one kind of operation.
    result.op_kinds.resize(result.op_seconds.size(), 0);
    result.walls.push_back(plain.wall);
    result.pass_work.push_back(static_cast<double>(plain.rows));
    if (!config.trace) continue;
    const std::optional<ServerStats> before = FetchStats(&control);
    Trace::SetOn(true);
    std::vector<double> ignored;
    const PassTotals traced =
        RunPass(clients, pass_seed, 2 * pass + 1, &ignored, &ignored, &result);
    Trace::SetOn(false);
    const std::optional<ServerStats> after = FetchStats(&control);
    if (!before || !after) {
      result.Miss("stats request failed");
      break;
    }
    layer.update_server_s += after->update_s - before->update_s;
    layer.query_server_s += after->query_s - before->query_s;
    layer.busy_replies += after->busy - before->busy;
    layer.backpressure_pauses += after->pauses - before->pauses;
    FoldSpans(Trace::Drain(), &layer.totals);
    layer.untraced_walls.push_back(plain.wall);
    layer.traced_walls.push_back(traced.wall);
    ++layer.traced_passes;
  }
  result.peak_rss_mb = PeakRssMb(server.pid());
  ++result.attempted;
  auto bye = control.ShutdownServer(kTimeout);
  if (!bye.ok() || !server.Reap()) result.Miss("sosed did not shut down cleanly");
  if (config.setup_only) return result;

  if (config.trace) {
    EmitPerLayer(layer, &result);
    return result;
  }
  EmitEndToEnd(&result);
  const Tail query_tail = HighestTail(query_s);
  result.Info("query_p50_ms", Num(1e3 * Median(query_s)));
  result.Info("query_tail_ms", Num(1e3 * query_tail.value));
  result.Info("query_tail_level_permille",
              std::to_string(query_tail.level_permille));
  result.Info("query_samples", std::to_string(query_tail.count));
  return result;
}

}  // namespace perfbench
