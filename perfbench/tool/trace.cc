// Traced run: every layer's public functions called in-process on the
// workload's generated inputs and timed from outside, plus the counters
// the layers already export through obs::Registry.
//
//   perfbench_tool trace --workload W --seed S --dir INPUTS --out FILE
//                        --equal-weights 0|1
//
// The mine is composed from its layer calls with latent_mine's options (or
// latent_served's, --equal-weights 1) and written to INPUTS/composed.bin,
// which run.py compares byte for byte with the program's --save artifact.
// Spans live only here, around the calls; none are added to the program.
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "api/latent.h"
#include "api/refresh.h"
#include "core/builder.h"
#include "core/clusterer.h"
#include "core/inference.h"
#include "core/serialize.h"
#include "data/io.h"
#include "hin/collapse.h"
#include "obs/obs.h"
#include "phrase/frequent_miner.h"
#include "phrase/kert.h"
#include "serve/engine.h"
#include "served/protocol.h"
#include "served/server.h"
#include "served/snapshot.h"
#include "strod/spectral_backend.h"
#include "strod/strod.h"
#include "tool.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace latent;

// Per-layer results, in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value) {
    for (auto& [n, v] : values_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{";
    for (size_t i = 0; i < values_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", values_[i].second);
      out << (i ? ",\n " : "") << JsonStr(values_[i].first) << ": " << buf;
    }
    out << "}\n";
    return out.good();
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// Wall and process-CPU time of one call, in ms.
struct Span {
  double wall0 = NowMs(), cpu0 = CpuMs();
  double wall() const { return NowMs() - wall0; }
  double cpu() const { return CpuMs() - cpu0; }
};

double HistMean(const obs::Registry& r, const std::string& name) {
  const obs::MetricsSnapshot snap = r.Scrape();
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0;
  return it->second.sum / it->second.count;
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

// Pool size of the parallel root fits when the workload mines serially:
// the machine's four cores, the benchmark's thread budget.
constexpr int kProbeThreads = 4;

// The pipeline configuration latent_mine builds from its flags (and the
// one latent_served's in-process mine uses, which keeps equal weights).
api::PipelineOptions MineOptions(const Workload& w, bool equal_weights) {
  api::PipelineOptions opt;
  opt.build.levels_k = {w.areas, w.subareas};
  opt.build.max_depth = 2;
  opt.build.cluster.weight_mode = equal_weights
                                      ? core::LinkWeightMode::kEqual
                                      : core::LinkWeightMode::kLearned;
  opt.build.cluster.seed = 42;
  opt.inference.backend = w.inference == "spectral"
                              ? core::InferenceBackendKind::kSpectral
                              : core::InferenceBackendKind::kEm;
  opt.miner.min_support = w.min_support;
  opt.exec.num_threads = w.threads;
  return opt;
}

// Per-iteration cost and fixed cost of one EM fit on the root network:
// two fits that differ only in max_iters (tol 0, one restart).
void EmSlope(const hin::HeteroNetwork& net, core::ClusterOptions c,
             exec::Executor* ex, double* per_iter_ms, double* fixed_ms) {
  constexpr int kShort = 2, kLong = 10, kReps = 3;
  c.tol = 0;
  c.restarts = 1;
  const std::vector<std::vector<double>> parent = core::DegreeDistributions(net);
  std::vector<double> t_short, t_long;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int iters : {kShort, kLong}) {
      c.max_iters = iters;
      Span s;
      core::FitCluster(net, parent, c, ex);
      (iters == kShort ? t_short : t_long).push_back(s.wall());
    }
  }
  const double a = Median(t_short), b = Median(t_long);
  *per_iter_ms = (b - a) / (kLong - kShort);
  *fixed_ms = a - kShort * *per_iter_ms;
}

struct ServedResult {
  std::vector<double> call_us;
  std::vector<double> probe_wait_ms;
  long long failures = 0;
};

// The daemon's serving path in-process: `conns` keep-alive clients (one
// per worker) replay the query stream while health probes arrive on their
// own connection, as in the serve workload.
ServedResult DriveServer(served::Server* server, const QueryStream& qs,
                         int conns, int probes, int probe_deadline_ms) {
  ServedResult out;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::vector<double>> lat(conns);
  std::atomic<long long> failures{0};
  std::vector<std::thread> ts;
  for (int c = 0; c < conns; ++c) {
    ts.emplace_back([&, c] {
      served::Client client;
      if (!client.Connect(server->port()).ok()) {
        failures.fetch_add(1);
        ready.fetch_add(1);
        return;
      }
      bool first = true;
      for (uint64_t j = 0; !stop.load(); ++j) {
        const Query q = qs.At(100 + c, j);
        served::WireRequest req;
        req.verb = q.verb == "lookup"   ? served::Verb::kLookup
                   : q.verb == "search" ? served::Verb::kSearch
                   : q.verb == "entity" ? served::Verb::kEntity
                                        : served::Verb::kSubtree;
        req.arg = q.arg;
        req.k = q.k;
        const double t0 = NowMs();
        auto resp = client.Call(req);
        lat[c].push_back((NowMs() - t0) * 1e3);
        if (!resp.ok() || resp.value().code != StatusCode::kOk) {
          failures.fetch_add(1);
        }
        if (first) {
          first = false;
          ready.fetch_add(1);
        }
      }
    });
  }
  while (ready.load() < conns) SleepMs(1);
  for (int p = 0; p < probes; ++p) {
    const double t0 = NowMs();
    served::Client probe;
    if (probe.Connect(server->port()).ok()) {
      timeval tv{0, probe_deadline_ms * 1000};
      setsockopt(probe.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      served::WireRequest req;
      req.verb = served::Verb::kHealth;
      req.deadline_ms = probe_deadline_ms;
      probe.Call(req);
    }
    probe.Close();
    out.probe_wait_ms.push_back(NowMs() - t0);
    SleepMs(50);
  }
  stop.store(true);
  for (std::thread& t : ts) t.join();
  for (const auto& v : lat) out.call_us.insert(out.call_us.end(), v.begin(), v.end());
  out.failures = failures.load();
  return out;
}

}  // namespace

int TraceMain(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  for (const char* key : {"workload", "seed", "dir", "out", "equal-weights"}) {
    if (args.count(key) == 0) {
      std::fprintf(stderr, "trace: missing --%s\n", key);
      return 2;
    }
  }
  const Workload* wp = FindWorkload(args.at("workload"));
  if (wp == nullptr) return 2;
  const Workload& w = *wp;
  const std::string dir = args.at("dir");
  const uint64_t seed = std::stoull(args.at("seed"));
  const bool equal_weights = args.at("equal-weights") == "1";
  signal(SIGPIPE, SIG_IGN);
  Report rep;
  auto fail = [](const std::string& what, const Status& s) {
    std::fprintf(stderr, "trace: %s: %s\n", what.c_str(), s.message().c_str());
    return 1;
  };

  // ---- data: load and tokenize.
  Span load;
  auto corpus_or = data::LoadCorpusFromFile(dir + "/corpus.txt", {});
  if (!corpus_or.ok()) return fail("load corpus", corpus_or.status());
  const text::Corpus& corpus = corpus_or.value();
  data::EntityAttachments att;
  if (w.entities) {
    auto a = data::LoadEntityAttachments(dir + "/entities.tsv", corpus.num_docs());
    if (!a.ok()) return fail("load entities", a.status());
    att = std::move(a.value());
  }
  rep.Set("data.load_ms", load.wall());

  api::PipelineOptions opt = MineOptions(w, equal_weights);
  auto executor = std::make_shared<exec::Executor>(opt.exec);
  exec::Executor* ex = executor->num_threads() > 1 ? executor.get() : nullptr;

  // ---- phrase: frequent contiguous phrases.
  Span mine;
  phrase::PhraseDict dict = phrase::MineFrequentPhrases(corpus, opt.miner, ex);
  rep.Set("phrase.mine_ms", mine.wall());
  rep.Set("phrase.mine_cpu_ms", mine.cpu());
  rep.Set("phrase.dict_size", dict.size());

  // ---- hin: collapse.
  Span collapse;
  auto net = hin::TryBuildCollapsedNetwork(corpus, att.type_names,
                                           att.TypeSizes(), att.entity_docs,
                                           opt.collapse);
  if (!net.ok()) return fail("collapse", net.status());
  rep.Set("hin.collapse_ms", collapse.wall());

  // ---- core (+ exec): the hierarchy build, with the registry attached.
  obs::Registry build_reg;
  obs::Scope build_scope(&build_reg);
  if (ex != nullptr) ex->set_obs(&build_reg);
  core::NodeEvidence root_evidence;
  std::unique_ptr<strod::SpectralBackend> spectral;
  core::InferencePlan plan;
  const core::InferencePlan* plan_ptr = nullptr;
  if (opt.inference.backend != core::InferenceBackendKind::kEm) {
    root_evidence = core::EvidenceFromCorpus(corpus);
    spectral = std::make_unique<strod::SpectralBackend>(opt.inference.spectral,
                                                        &att.entity_docs);
    plan.options = opt.inference;
    plan.spectral = spectral.get();
    plan.root_evidence = &root_evidence;
    plan_ptr = &plan;
  }
  Span build;
  auto tree = core::TryBuildHierarchy(net.value(), opt.build, ex, nullptr,
                                      nullptr, &build_scope, plan_ptr);
  if (!tree.ok()) return fail("build", tree.status());
  rep.Set("core.build_ms", build.wall());
  rep.Set("core.build_cpu_ms", build.cpu());
  if (ex != nullptr) ex->set_obs(nullptr);
  rep.Set("core.fits", build_reg.CounterValue("build.fit.nodes"));
  rep.Set("core.em_iterations", build_reg.CounterValue("em.iterations"));
  if (ex != nullptr) {
    rep.Set("exec.tasks", build_reg.CounterValue("exec.pool.tasks.run"));
    rep.Set("exec.idle_ms", build_reg.HistogramSum("exec.pool.idle.ms"));
  }

  // ---- phrase: KERT indexing and ranking (what the printed tree needs).
  Span kidx;
  phrase::KertScorer kert(corpus, dict, tree.value(), 0, ex);
  rep.Set("phrase.kert_index_ms", kidx.wall());
  Span krank;
  kert.RankAllTopics(phrase::KertOptions(), 5, ex);
  rep.Set("phrase.kert_rank_ms", krank.wall());

  // ---- core: serialize; data: write the artifacts.
  core::NodeNamer namer = [&](int type, int id) -> std::string {
    if (type == 0) return corpus.vocab().Token(id);
    return att.entity_names[type - 1].Token(id);
  };
  Span ser;
  const std::string blob = core::SerializeHierarchy(tree.value());
  const std::string json = core::HierarchyToJson(tree.value(), namer);
  rep.Set("core.serialize_ms", ser.wall());
  Span write;
  if (Status s = data::WriteFile(dir + "/composed.json", json); !s.ok()) {
    return fail("write", s);
  }
  if (Status s = data::WriteFile(dir + "/composed.bin", blob); !s.ok()) {
    return fail("write", s);
  }
  rep.Set("data.write_ms", write.wall());
  const double composed_ms = NowMs() - load.wall0;
  if (ex != nullptr) {
    // The layers above ran at the workload's thread count (their CPU
    // figures need its pool); the program promises the same tree serially.
    auto serial = core::TryBuildHierarchy(net.value(), opt.build, nullptr,
                                          nullptr, nullptr, nullptr, plan_ptr);
    if (!serial.ok()) return fail("serial build", serial.status());
    if (core::SerializeHierarchy(serial.value()) != blob) {
      std::fprintf(stderr, "trace: serial build differs from the %d-thread build\n",
                   w.threads);
      return 1;
    }
  }

  // ---- strod: the spectral fit on the root's documents.
  {
    core::SpectralOptions sopt = opt.inference.spectral;
    sopt.num_topics = w.areas;
    const std::vector<strod::SparseDoc> docs = strod::ToSparseDocs(corpus);
    Span fit;
    strod::FitStrod(docs, corpus.vocab_size(), sopt);
    rep.Set("strod.fit_ms", fit.wall());
  }

  // ---- core (+ exec): EM per-iteration and fixed cost on the root
  // network, serially and on the workload's pool. A workload that mines
  // serially has no pool, so its parallel fits run on a kProbeThreads pool
  // whose counters then stand for exec.*.
  {
    core::ClusterOptions c = opt.build.cluster;
    c.num_topics = w.areas;
    double per_iter = 0, fixed = 0, per_iter_par = 0, fixed_par = 0;
    EmSlope(net.value(), c, nullptr, &per_iter, &fixed);
    if (ex != nullptr) {
      EmSlope(net.value(), c, ex, &per_iter_par, &fixed_par);
    } else {
      obs::Registry probe_reg;
      exec::ExecOptions eopt;
      eopt.num_threads = kProbeThreads;
      exec::Executor probe(eopt);
      probe.set_obs(&probe_reg);
      EmSlope(net.value(), c, &probe, &per_iter_par, &fixed_par);
      probe.set_obs(nullptr);
      rep.Set("exec.tasks", probe_reg.CounterValue("exec.pool.tasks.run"));
      rep.Set("exec.idle_ms", probe_reg.HistogramSum("exec.pool.idle.ms"));
    }
    rep.Set("core.em_iter_ms", per_iter);
    rep.Set("core.fit_fixed_ms", fixed);
    rep.Set("core.em_iter_par_ms", per_iter_par);
  }

  // ---- ckpt + api: a checkpointed base mine, then Refresh over the
  // workload's deltas, compounding the way latent_served does.
  api::PipelineInput input(corpus, api::EntitySchema(att.type_names, att.TypeSizes()),
                           att.entity_docs);
  obs::Registry ckpt_reg;
  api::PipelineOptions base_opt = opt;
  base_opt.checkpoint_dir = dir + "/trace_ckpt_base";
  base_opt.metrics = &ckpt_reg;
  auto base = api::Mine(input, base_opt);
  if (!base.ok()) return fail("checkpointed mine", base.status());
  rep.Set("ckpt.bytes", ckpt_reg.CounterValue("ckpt.bytes"));
  rep.Set("ckpt.flush_ms", ckpt_reg.HistogramSum("ckpt.flush.ms"));
  {
    obs::Registry refresh_reg;
    auto current = std::make_unique<api::MinedHierarchy>(std::move(base.value()));
    std::vector<hin::EntityDoc> entity_docs = att.entity_docs;
    std::string base_dir = base_opt.checkpoint_dir;
    std::vector<double> wall, cpu;
    std::vector<std::unique_ptr<text::Corpus>> deltas;
    for (int k = 0; k < w.traced_deltas; ++k) {
      auto d = data::LoadCorpusFromFile(dir + "/delta_" + std::to_string(k) + ".txt", {});
      if (!d.ok()) return fail("load delta", d.status());
      deltas.push_back(std::make_unique<text::Corpus>(std::move(d.value())));
      api::RefreshOptions ropt;
      ropt.pipeline = opt;
      ropt.pipeline.metrics = &refresh_reg;
      ropt.pipeline.checkpoint_dir = dir + "/trace_ckpt_gen" + std::to_string(k + 1);
      ropt.base_checkpoint_dir = base_dir;
      if (!entity_docs.empty()) ropt.base_entity_docs = &entity_docs;
      api::PipelineInput delta_input;
      delta_input.corpus = deltas.back().get();
      Span s;
      auto refreshed = api::Refresh(*current, delta_input, ropt);
      if (!refreshed.ok()) return fail("refresh", refreshed.status());
      wall.push_back(s.wall());
      cpu.push_back(s.cpu());
      current = std::make_unique<api::MinedHierarchy>(std::move(refreshed.value()));
      base_dir = ropt.pipeline.checkpoint_dir;
      if (!entity_docs.empty()) {
        entity_docs.resize(static_cast<size_t>(current->corpus().num_docs()));
      }
    }
    rep.Set("api.refresh_ms", Median(wall));
    rep.Set("api.refresh_cpu_ms", Median(cpu));
    rep.Set("refresh.nodes_dirty", refresh_reg.CounterValue("refresh.nodes.dirty"));
    rep.Set("refresh.nodes_clean", refresh_reg.CounterValue("refresh.nodes.clean"));
    rep.Set("refresh.warm_fits", refresh_reg.CounterValue("refresh.warm.fits"));
  }

  // ---- serve: index build and load, then the engine on the query stream.
  serve::IndexOptions iopt;
  if (w.entities) iopt.namer = namer;
  serve::IndexSource source;
  source.corpus = &corpus;
  source.tree = &tree.value();
  source.dict = &dict;
  source.kert = &kert;
  auto build_index = [&]() { return serve::HierarchyIndex::Build(source, iopt, ex); };
  Span ib;
  auto built = build_index();
  if (!built.ok()) return fail("index build", built.status());
  rep.Set("serve.index_build_ms", ib.wall());
  Span il;
  auto loaded = serve::HierarchyIndex::Load(blob, corpus, opt.miner, iopt, ex);
  if (!loaded.ok()) return fail("index load", loaded.status());
  rep.Set("serve.index_load_ms", il.wall());

  const QueryStream qs(w, seed);
  constexpr int kStreamQueries = 20000;
  std::vector<serve::Request> stream;
  for (int j = 0; j < kStreamQueries; ++j) {
    const Query q = qs.At(0, j);
    serve::Request r;
    r.kind = q.verb == "lookup"   ? serve::RequestKind::kLookup
             : q.verb == "search" ? serve::RequestKind::kSearch
             : q.verb == "entity" ? serve::RequestKind::kEntity
                                  : serve::RequestKind::kSubtree;
    r.arg = q.arg;
    r.k = q.k;
    stream.push_back(r);
  }
  if (!w.entities) {
    // A text-only index answers entity queries with kNotFound; time that.
    for (int j = 0; j < 100; ++j) {
      stream.push_back({serve::RequestKind::kEntity, Word(j), -1});
    }
  }
  obs::Registry serve_reg;
  serve::QueryOptions qopt;
  qopt.metrics = &serve_reg;
  auto engine = serve::QueryEngine::Create(std::move(built.value()), qopt);
  if (!engine.ok()) return fail("engine", engine.status());
  for (const serve::Request& r : stream) engine.value()->Run(r);
  const double hits = serve_reg.CounterValue("serve.cache.hits");
  const double misses = serve_reg.CounterValue("serve.cache.misses");
  rep.Set("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses));
  {
    // Warm cache: every request of the stream again is a hit.
    Span s;
    for (const serve::Request& r : stream) engine.value()->Run(r);
    rep.Set("serve.engine_hit_us", s.wall() * 1e3 / stream.size());
  }
  {
    serve::QueryOptions nocache;
    nocache.cache_bytes = 0;
    auto cold = serve::QueryEngine::Create(std::move(loaded.value()), nocache);
    if (!cold.ok()) return fail("engine", cold.status());
    const char* kinds[] = {"lookup", "search", "entity", "subtree"};
    for (int kind = 0; kind < 4; ++kind) {
      double total = 0;
      int n = 0;
      for (const serve::Request& r : stream) {
        if (static_cast<int>(r.kind) != kind) continue;
        const double t0 = NowMs();
        cold.value()->Run(r);
        total += NowMs() - t0;
        ++n;
      }
      rep.Set(std::string("serve.engine_miss_us.") + kinds[kind],
              n > 0 ? total * 1e3 / n : 0);
    }
  }

  // ---- served: codec, snapshot publish, and the server under the
  // workload's connection model.
  {
    std::vector<std::string> bodies;
    for (int j = 0; j < 2000; ++j) {
      bodies.push_back(engine.value()->Run(stream[j]).text);
    }
    Span s;
    for (int j = 0; j < 2000; ++j) {
      served::WireRequest req;
      req.verb = served::Verb::kSearch;
      req.arg = stream[j].arg;
      served::WireResponse resp;
      resp.body = bodies[j];
      served::WireRequest req2;
      served::WireResponse resp2;
      const Status a = served::DecodeRequest(served::EncodeRequest(req), &req2);
      const Status b = served::DecodeResponse(served::EncodeResponse(resp), &resp2);
      if (!a.ok() || !b.ok()) return fail("codec", a.ok() ? b : a);
    }
    rep.Set("served.codec_us", s.wall() * 1e3 / 2000);
  }
  {
    const int conns = w.max_inflight > 0 ? w.max_inflight : 3;
    obs::Registry served_reg;
    served::SnapshotHandle snapshots;
    served::ServedOptions sopt;
    sopt.max_inflight = conns;
    sopt.max_queue = w.max_queue;
    sopt.metrics = &served_reg;
    exec::ExecOptions eopt;
    eopt.num_threads = conns;
    exec::Executor serve_ex(eopt);
    auto server = served::Server::Start(&snapshots, sopt, &serve_ex);
    if (!server.ok()) return fail("server", server.status());
    std::vector<double> publish_us;
    for (int p = 0; p < 3; ++p) {
      auto idx = build_index();
      if (!idx.ok()) return fail("index build", idx.status());
      serve::QueryOptions q;
      q.metrics = &served_reg;
      auto e = serve::QueryEngine::Create(std::move(idx.value()), q);
      if (!e.ok()) return fail("engine", e.status());
      Span s;
      auto gen = server.value()->PublishSnapshot(std::move(e.value()));
      publish_us.push_back(s.wall() * 1e3);
      if (!gen.ok()) return fail("publish", gen.status());
    }
    rep.Set("served.publish_us", Median(publish_us));
    ServedResult r = DriveServer(server.value().get(), qs, conns, 4,
                                 w.probe_deadline_ms > 0 ? w.probe_deadline_ms : 100);
    server.value()->RequestShutdown();
    server.value()->Wait();
    if (r.failures > 0) {
      std::fprintf(stderr, "trace: %lld in-process queries failed\n", r.failures);
      return 1;
    }
    rep.Set("served.call_us.p50", Percentile(&r.call_us, 50));
    rep.Set("served.call_us.p99", Percentile(&r.call_us, 99));
    rep.Set("served.queue_wait_ms", HistMean(served_reg, "served.queue.wait.ms"));
    rep.Set("served.request_ms", HistMean(served_reg, "served.request.ms"));
    rep.Set("served.probe_wait_ms", Median(r.probe_wait_ms));
  }

  std::fprintf(stderr, "trace: composed mine %.1f ms\n", composed_ms);
  return rep.Write(args.at("out")) ? 0 : 1;
}

}  // namespace perfbench
