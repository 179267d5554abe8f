// Load generator for the serve and refresh workloads: one process, one
// thread and one keep-alive connection per daemon worker, plus (serve) one
// health-probe connection driven from the main thread.
//
//   perfbench_tool load --mode serve|refresh --workload W --seed S
//       --port P --pid PID --rounds N --dir INPUTS --out FILE
//       [--script FILE]            serve: check requests sent after the
//                                  rounds, answers compared byte for byte
//                                  with an in-process QueryEngine
//       [--delta-file FILE]        refresh: the daemon's --delta-corpus
//
// Open-loop requests are timed from the moment they were due, so a stall
// also charges the requests queued behind it; how late the generator sent
// them is reported separately.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "data/io.h"
#include "serve/engine.h"
#include "served/protocol.h"
#include "tool.h"
#include "workload.h"

namespace perfbench {

namespace {

using latent::StatusCode;
using latent::served::Client;
using latent::served::Verb;
using latent::served::WireRequest;
using latent::served::WireResponse;

// Every request carries this deadline: generous, so a slow answer is a
// latency sample rather than a failure.
constexpr long long kQueryDeadlineMs = 5000;
// Refresh: give up on a generation that has not appeared after this long.
constexpr double kRefreshGiveUpMs = 60000;

WireRequest ToWire(const Query& q) {
  WireRequest req;
  req.verb = q.verb == "lookup"   ? Verb::kLookup
             : q.verb == "search" ? Verb::kSearch
             : q.verb == "entity" ? Verb::kEntity
                                  : Verb::kSubtree;
  req.arg = q.arg;
  req.k = q.k;
  req.deadline_ms = kQueryDeadlineMs;
  return req;
}

void SleepUntilMs(double due_ms) {
  const double now = NowMs();
  if (due_ms <= now) return;
  const double ms = due_ms - now;
  timespec ts{static_cast<time_t>(ms / 1000),
              static_cast<long>(std::fmod(ms, 1000.0) * 1e6)};
  nanosleep(&ts, nullptr);
}

/// utime + stime of `pid` in seconds, from /proc/<pid>/stat.
double ProcCpuS(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14 || f == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct Tally {
  std::mutex mu;
  std::vector<double> latency_ms;  // open loop, from due time
  std::vector<double> late_ms;     // send time - due time
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;  // first few failure messages

  void Add(const std::vector<double>& lat, const std::vector<double>& late,
           long long att, long long fail, const std::vector<std::string>& errs) {
    std::lock_guard<std::mutex> lock(mu);
    latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    late_ms.insert(late_ms.end(), late.begin(), late.end());
    attempted += att;
    failed += fail;
    for (const std::string& e : errs) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

// One keep-alive query connection and its per-phase bookkeeping.
struct Conn {
  Client client;
  std::vector<double> lat, late, due;
  long long attempted = 0, failed = 0;
  std::vector<std::string> errors;
  long long last_generation = 0;
  bool generation_regressed = false;

  // Sends `req`; returns the response (code kInternal on transport
  // errors). Check requests pass counted = false: they verify answers and
  // are not workload operations.
  WireResponse Send(const WireRequest& req, bool counted = true) {
    if (counted) ++attempted;
    auto resp = client.Call(req);
    WireResponse out;
    if (!resp.ok()) {
      out.code = StatusCode::kInternal;
      out.body = resp.status().message();
    } else {
      out = std::move(resp.value());
    }
    if (out.code != StatusCode::kOk) {
      if (counted) ++failed;
      if (errors.size() < 5) errors.push_back(out.body);
    } else {
      if (out.generation < last_generation) generation_regressed = true;
      last_generation = out.generation;
    }
    return out;
  }

  void Flush(Tally* t) {
    t->Add(lat, late, attempted, failed, errors);
    lat.clear();
    late.clear();
    attempted = failed = 0;
    errors.clear();
  }
};

std::string StatsJson(std::vector<double> v) {
  const size_t n = v.size();
  const double p50 = Percentile(&v, 50), p99 = Percentile(&v, 99);
  const double max = v.empty() ? 0 : v.back();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"n\": %zu, \"p50\": %.6f, \"p99\": %.6f, \"max\": %.6f}", n,
                p50, p99, max);
  return buf;
}

std::string JoinDoubles(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

// Open loop on one connection: request j of this connection is due at
// start + offset + j / rate.
void OpenLoop(Conn* c, const QueryStream& qs, uint64_t stream, double start_ms,
              double offset_ms, double rate_per_s, double until_ms) {
  const double gap = 1000.0 / rate_per_s;
  for (uint64_t j = 0;; ++j) {
    const double due = start_ms + offset_ms + j * gap;
    if (due >= until_ms) break;
    SleepUntilMs(due);
    const double sent = NowMs();
    c->Send(ToWire(qs.At(stream, j)));
    const double done = NowMs();
    c->late.push_back(sent - due);
    c->lat.push_back(done - due);
  }
}

// Parses "verb<TAB>k<TAB>arg" script lines.
std::vector<Query> ReadScript(const std::string& path) {
  std::vector<Query> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    out.push_back({line.substr(0, a), line.substr(b + 1),
                   std::stoi(line.substr(a + 1, b - a - 1))});
  }
  return out;
}

// In-process engine over the saved tree, built the way latent_served
// builds its snapshot (same corpus, miner support, namer and top-k).
std::unique_ptr<latent::serve::QueryEngine> LocalEngine(
    const std::string& dir, const Workload& w,
    latent::data::EntityAttachments* attachments,
    latent::text::Corpus* corpus) {
  using namespace latent;
  auto c = data::LoadCorpusFromFile(dir + "/corpus.txt", {});
  if (!c.ok()) return nullptr;
  *corpus = std::move(c.value());
  serve::IndexOptions iopt;
  if (w.entities) {
    auto a = data::LoadEntityAttachments(dir + "/entities.tsv",
                                         corpus->num_docs());
    if (!a.ok()) return nullptr;
    *attachments = std::move(a.value());
    iopt.namer = [corpus, attachments](int type, int id) -> std::string {
      if (type == 0) {
        if (id < corpus->vocab_size()) return corpus->vocab().Token(id);
      } else if (type - 1 <
                 static_cast<int>(attachments->entity_names.size())) {
        const text::Vocabulary& names = attachments->entity_names[type - 1];
        if (id < names.size()) return names.Token(id);
      }
      return "#" + std::to_string(id);
    };
  }
  auto blob = data::ReadFile(dir + "/tree.bin");
  if (!blob.ok()) return nullptr;
  phrase::MinerOptions miner;
  miner.min_support = w.min_support;
  auto index = serve::HierarchyIndex::Load(blob.value(), *corpus, miner, iopt);
  if (!index.ok()) return nullptr;
  serve::QueryOptions qopt;
  qopt.cache_bytes = 0;
  auto engine = serve::QueryEngine::Create(std::move(index.value()), qopt);
  if (!engine.ok()) return nullptr;
  return std::move(engine.value());
}

int ServeMode(const Workload& w, uint64_t seed,
              const std::map<std::string, std::string>& args) {
  const int port = std::stoi(args.at("port"));
  const int pid = std::stoi(args.at("pid"));
  const int rounds = std::stoi(args.at("rounds"));
  const std::string dir = args.at("dir");
  const QueryStream qs(w, seed);
  const int conns = w.max_inflight;

  // One connection per daemon worker; each first answers one request, so
  // every worker is held by a keep-alive connection before timing starts.
  std::vector<std::unique_ptr<Conn>> cs;
  for (int c = 0; c < conns; ++c) {
    cs.push_back(std::make_unique<Conn>());
    if (!cs.back()->client.Connect(port).ok()) return 1;
    if (cs.back()->Send(ToWire({"lookup", "o", -1})).code != StatusCode::kOk) {
      return 1;
    }
    cs.back()->attempted = cs.back()->failed = 0;
  }

  Tally open, closed;
  std::vector<double> closed_s, probe_wait_ms, round_p50, round_p99;
  long long probes = 0, probes_failed = 0;
  std::string probe_error;
  const int probes_per_round =
      static_cast<int>(w.open_s * 1000 / w.probe_every_ms);
  const double cpu0 = ProcCpuS(pid);
  for (int r = 0; r < rounds; ++r) {
    const double start = NowMs() + 5;
    const double until = start + w.open_s * 1000;
    std::vector<std::thread> ts;
    for (int c = 0; c < conns; ++c) {
      ts.emplace_back([&, c] {
        OpenLoop(cs[c].get(), qs, (r * 4 + 0) * 4 + c, start,
                 c * 1000.0 / w.open_qps, w.open_qps / conns, until);
      });
    }
    // Health probes on their own connection at a fixed interval.
    for (int p = 0; p < probes_per_round; ++p) {
      SleepUntilMs(start + p * w.probe_every_ms);
      const double t0 = NowMs();
      Client probe;
      bool ok = false;
      if (probe.Connect(port).ok()) {
        timeval tv{0, w.probe_deadline_ms * 1000};
        setsockopt(probe.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        WireRequest req;
        req.verb = Verb::kHealth;
        req.deadline_ms = w.probe_deadline_ms;
        auto resp = probe.Call(req);
        ok = resp.ok() && resp.value().code == StatusCode::kOk;
        if (!ok && probe_error.empty()) {
          probe_error = resp.ok() ? resp.value().body : resp.status().message();
        }
      }
      probe.Close();
      probe_wait_ms.push_back(NowMs() - t0);
      ++probes;
      if (!ok) ++probes_failed;
    }
    for (std::thread& t : ts) t.join();
    std::vector<double> round_lat;
    for (auto& c : cs) {
      round_lat.insert(round_lat.end(), c->lat.begin(), c->lat.end());
      c->Flush(&open);
    }
    round_p50.push_back(Percentile(&round_lat, 50));
    round_p99.push_back(Percentile(&round_lat, 99));

    // Closed loop: a fixed query count split over the same connections.
    const double c0 = NowMs();
    ts.clear();
    for (int c = 0; c < conns; ++c) {
      ts.emplace_back([&, c] {
        const uint64_t stream = (r * 4 + 1) * 4 + c;
        for (int j = 0; j < w.closed_queries / conns; ++j) {
          cs[c]->Send(ToWire(qs.At(stream, j)));
        }
      });
    }
    for (std::thread& t : ts) t.join();
    closed_s.push_back((NowMs() - c0) / 1000);
    for (auto& c : cs) c->Flush(&closed);
  }
  // Daemon CPU per round, over all rounds (the clock ticks are too coarse
  // to time one round).
  const double cpu_per_round = (ProcCpuS(pid) - cpu0) / rounds;

  // Checks: the script's answers, each compared with the in-process
  // engine built from the same saved tree.
  std::string checks = "[]";
  long long mismatches = 0, compared = 0;
  if (args.count("script") > 0) {
    latent::data::EntityAttachments attachments;
    latent::text::Corpus corpus;
    auto engine = LocalEngine(dir, w, &attachments, &corpus);
    if (engine == nullptr) return 1;
    checks = "[";
    for (const Query& q : ReadScript(args.at("script"))) {
      const WireResponse resp = cs[0]->Send(ToWire(q), false);
      latent::serve::Request req;
      req.kind = latent::served::VerbToRequestKind(ToWire(q).verb);
      req.arg = q.arg;
      req.k = q.k;
      const latent::serve::Response local = engine->Run(req);
      const std::string& local_body =
          local.code == StatusCode::kOk ? local.text : local.message;
      ++compared;
      if (resp.code != local.code || resp.body != local_body) ++mismatches;
      if (checks.size() > 1) checks += ",\n";
      checks += "{\"verb\": " + JsonStr(q.verb) + ", \"arg\": " +
                JsonStr(q.arg) + ", \"k\": " + std::to_string(q.k) +
                ", \"code\": " + std::to_string(static_cast<int>(resp.code)) +
                ", \"body\": " + JsonStr(resp.body) + "}";
    }
    checks += "]";
  }
  for (auto& c : cs) c->client.Close();

  std::ofstream out(args.at("out"));
  out << "{\"open\": " << StatsJson(open.latency_ms)
      << ",\n \"late\": " << StatsJson(open.late_ms)
      << ",\n \"open_attempted\": " << open.attempted
      << ", \"open_failed\": " << open.failed
      << ",\n \"closed_attempted\": " << closed.attempted
      << ", \"closed_failed\": " << closed.failed
      << ",\n \"round_p50\": " << JoinDoubles(round_p50)
      << ",\n \"round_p99\": " << JoinDoubles(round_p99)
      << ",\n \"closed_s\": " << JoinDoubles(closed_s)
      << ",\n \"cpu_s\": " << cpu_per_round
      << ",\n \"probes\": " << probes << ", \"probes_failed\": " << probes_failed
      << ", \"probe_error\": " << JsonStr(probe_error)
      << ", \"probe_wait_ms\": " << JoinDoubles(probe_wait_ms)
      << ",\n \"errors\": [";
  std::vector<std::string> errs = open.errors;
  errs.insert(errs.end(), closed.errors.begin(), closed.errors.end());
  for (size_t i = 0; i < errs.size(); ++i) {
    out << (i ? ", " : "") << JsonStr(errs[i]);
  }
  out << "],\n \"compared\": " << compared << ", \"mismatches\": " << mismatches
      << ",\n \"checks\": " << checks << "}\n";
  return out.good() ? 0 : 1;
}

// Refresh: open-loop traffic on every connection for the whole run while
// the main thread appends one delta per round and signals the daemon.
int RefreshMode(const Workload& w, uint64_t seed,
                const std::map<std::string, std::string>& args) {
  const int port = std::stoi(args.at("port"));
  const int pid = std::stoi(args.at("pid"));
  const int rounds = std::stoi(args.at("rounds"));
  const std::string dir = args.at("dir");
  const std::string delta_file = args.at("delta-file");
  const QueryStream qs(w, seed);
  const int conns = w.max_inflight;

  std::vector<std::unique_ptr<Conn>> cs;
  for (int c = 0; c < conns; ++c) {
    cs.push_back(std::make_unique<Conn>());
    if (!cs.back()->client.Connect(port).ok()) return 1;
    if (cs.back()->Send(ToWire({"lookup", "o", -1})).code != StatusCode::kOk) {
      return 1;
    }
    cs.back()->attempted = cs.back()->failed = 0;
  }

  // Check requests ride connection 0 between its scheduled requests (every
  // daemon worker is held by a query connection, so a separate check
  // connection would never be served).
  std::mutex mu;
  std::condition_variable cv;
  std::string check_query;  // pending search, empty = none
  WireResponse check_answer;
  bool check_done = false;
  // Generation watch: first receive time at or past `want_gen`.
  std::atomic<long long> want_gen{1 << 30};
  std::atomic<double> seen_at{0};
  std::atomic<bool> stop{false};

  const double start = NowMs() + 5;
  std::vector<std::thread> ts;
  for (int c = 0; c < conns; ++c) {
    ts.emplace_back([&, c] {
      Conn* conn = cs[c].get();
      const double gap = 1000.0 * conns / w.open_qps;
      const double offset = c * 1000.0 / w.open_qps;
      for (uint64_t j = 0; !stop.load(); ++j) {
        const double due = start + offset + j * gap;
        SleepUntilMs(due);
        if (stop.load()) break;
        const double sent = NowMs();
        const WireResponse resp = conn->Send(ToWire(qs.At(c, j)));
        const double done = NowMs();
        conn->late.push_back(sent - due);
        conn->lat.push_back(done - due);
        conn->due.push_back(due);
        if (resp.code == StatusCode::kOk && resp.generation >= want_gen.load()) {
          double zero = 0;
          seen_at.compare_exchange_strong(zero, done);
        }
        if (c != 0) continue;
        std::string q;
        {
          std::lock_guard<std::mutex> lock(mu);
          q = check_query;
        }
        if (q.empty()) continue;
        WireResponse a = conn->Send(ToWire({"search", q, -1}), false);
        std::lock_guard<std::mutex> lock(mu);
        check_answer = std::move(a);
        check_query.clear();
        check_done = true;
        cv.notify_all();
      }
    });
  }

  auto check = [&](const std::string& phrase) {
    std::unique_lock<std::mutex> lock(mu);
    check_done = false;
    check_query = phrase;
    cv.wait(lock, [&] { return check_done; });
    return check_answer;
  };

  std::vector<double> refresh_s;
  const double cpu0 = ProcCpuS(pid);
  std::string phrase_checks = "[";
  long long refreshes_failed = 0;
  for (int k = 0; k < rounds; ++k) {
    const double round_start = start + k * w.delta_every_s * 1000;
    SleepUntilMs(round_start);
    const std::string phrase = DeltaPhrase(w, k);
    const WireResponse before = check(phrase);
    // Append the delta and signal: the refresh clock starts here.
    auto blob = latent::data::ReadFile(dir + "/delta_" + std::to_string(k) + ".txt");
    if (!blob.ok()) return 1;
    const double t0 = NowMs();
    seen_at.store(0);
    want_gen.store(k + 2);
    {
      std::ofstream app(delta_file, std::ios::app | std::ios::binary);
      app << blob.value();
    }
    kill(pid, SIGHUP);
    while (seen_at.load() == 0 && NowMs() - t0 < kRefreshGiveUpMs) {
      SleepUntilMs(NowMs() + 0.5);
    }
    const double seen = seen_at.load();
    if (seen == 0) {
      ++refreshes_failed;
    } else {
      refresh_s.push_back((seen - t0) / 1000);
    }
    const WireResponse after = check(phrase);
    if (phrase_checks.size() > 1) phrase_checks += ",\n";
    phrase_checks += "{\"phrase\": " + JsonStr(phrase) + ", \"before_code\": " +
                     std::to_string(static_cast<int>(before.code)) +
                     ", \"before\": " + JsonStr(before.body) +
                     ", \"after_code\": " +
                     std::to_string(static_cast<int>(after.code)) +
                     ", \"after_generation\": " +
                     std::to_string(after.generation) +
                     ", \"after\": " + JsonStr(after.body) + "}";
    SleepUntilMs(round_start + w.delta_every_s * 1000);
  }
  // Daemon CPU per round: the refreshes and the traffic beside them.
  const double cpu_per_round = (ProcCpuS(pid) - cpu0) / rounds;
  phrase_checks += "]";
  stop.store(true);
  for (std::thread& t : ts) t.join();
  // Per-round latency: each request belongs to the round it was due in.
  const double round_ms = w.delta_every_s * 1000;
  std::vector<std::vector<double>> by_round(rounds);
  for (auto& c : cs) {
    for (size_t i = 0; i < c->due.size(); ++i) {
      const int r = std::clamp(static_cast<int>((c->due[i] - start) / round_ms),
                               0, rounds - 1);
      by_round[r].push_back(c->lat[i]);
    }
  }
  std::vector<double> round_p50, round_p99;
  for (auto& v : by_round) {
    round_p50.push_back(Percentile(&v, 50));
    round_p99.push_back(Percentile(&v, 99));
  }
  Tally open;
  bool regressed = false;
  long long last_gen = 0;
  for (auto& c : cs) {
    regressed = regressed || c->generation_regressed;
    last_gen = std::max(last_gen, c->last_generation);
    c->Flush(&open);
    c->client.Close();
  }

  std::ofstream out(args.at("out"));
  out << "{\"open\": " << StatsJson(open.latency_ms)
      << ",\n \"late\": " << StatsJson(open.late_ms)
      << ",\n \"open_attempted\": " << open.attempted
      << ", \"open_failed\": " << open.failed
      << ",\n \"round_p50\": " << JoinDoubles(round_p50)
      << ",\n \"round_p99\": " << JoinDoubles(round_p99)
      << ",\n \"refresh_s\": " << JoinDoubles(refresh_s)
      << ", \"refreshes\": " << rounds
      << ", \"refreshes_failed\": " << refreshes_failed
      << ",\n \"cpu_s\": " << cpu_per_round
      << ",\n \"generation_regressed\": " << (regressed ? "true" : "false")
      << ", \"last_generation\": " << last_gen << ",\n \"errors\": [";
  for (size_t i = 0; i < open.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonStr(open.errors[i]);
  }
  out << "],\n \"phrase_checks\": " << phrase_checks << "}\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int LoadMain(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  for (const char* key : {"mode", "workload", "seed", "port", "pid", "rounds",
                          "dir", "out"}) {
    if (args.count(key) == 0) {
      std::fprintf(stderr, "load: missing --%s\n", key);
      return 2;
    }
  }
  const Workload* w = FindWorkload(args.at("workload"));
  if (w == nullptr || w->max_inflight < 1) return 2;
  // Wake-ups within a few microseconds of the due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  signal(SIGPIPE, SIG_IGN);
  const uint64_t seed = std::stoull(args.at("seed"));
  if (args.at("mode") == "serve") return ServeMode(*w, seed, args);
  if (args.at("mode") == "refresh" && args.count("delta-file") > 0) {
    return RefreshMode(*w, seed, args);
  }
  return 2;
}

}  // namespace perfbench
