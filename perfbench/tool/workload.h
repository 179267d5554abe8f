// Workload table and seeded input generator of the end-to-end benchmark.
//
// Every workload is one row of kWorkloads: the generated inputs (corpus,
// entity attachments, deltas, query stream) and the fixed knobs the
// program runs with. The generator writes only the files the program
// reads plus config.json, which carries this row and the planted truth the
// output checks need (run.py reads it; nothing else is shared).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  /// Corpus shape: documents, planted areas x subareas (= --levels),
  /// words per subarea / area / background pool, title length range.
  int docs = 0;
  int areas = 0;
  int subareas = 0;
  int sub_words = 0;
  int area_words = 0;
  int bg_words = 0;
  int min_len = 0;
  int max_len = 0;
  /// Share of documents that carry one of their subarea's planted phrases.
  double phrase_share = 0;
  /// Where a document's other tokens come from: its subarea's words, its
  /// area's words, or (the rest) the background pool.
  double sub_share = 0;
  double area_share = 0;
  /// > 0: each document mixes areas with proportions drawn from a
  /// symmetric Dirichlet of this total concentration (the LDA model STROD
  /// fits); 0: every token comes from the document's one area.
  double mix_alpha0 = 0;
  bool entities = false;
  std::string inference;  // em | spectral
  int threads = 1;
  /// Mine workloads: a run's rounds cycle over this many corpora (seeded
  /// from the run's seed and the corpus index), so its median spans
  /// corpora as well as repetitions. EM's cost depends on how fast each
  /// corpus's fits converge, which varies from corpus to corpus.
  int corpora = 1;
  int min_support = 5;
  /// Daemon + load generator (serve / refresh).
  int max_inflight = 0;
  int max_queue = 16;
  double open_qps = 0;      // open-loop rate, all connections together
  double open_s = 0;        // open-loop phase length per round
  int closed_queries = 0;   // closed-loop query count per round (serve)
  int probe_every_ms = 0;   // health probe interval (serve)
  int probe_deadline_ms = 0;
  /// Refresh schedule: one delta per round of delta_every_s seconds,
  /// alternating a delta concentrated in one area and one spread over all.
  double delta_every_s = 0;
  int delta_docs = 0;
  /// Deltas api::Refresh folds in during a traced run.
  int traced_deltas = 2;
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Generator vocabulary word `i`: three consonant-vowel syllables plus a
/// tail letter, never an English stopword, distinct for distinct i.
std::string Word(int i);

/// Word index of the i-th word of each pool (see gen.cc for the layout).
struct Layout {
  const Workload* w = nullptr;
  int SubWord(int area, int sub, int i) const;
  int AreaWord(int area, int i) const;
  int BgWord(int i) const;
  /// Words reserved for the planted phrase of delta `d` (never in the base).
  int DeltaWord(int d, int i) const;
  int VocabSize() const;  // base vocabulary (pools only)
};

/// The planted phrase of delta `k`: words no base document contains.
std::string DeltaPhrase(const Workload& w, int k);

/// One request of the serving query stream, in the served wire grammar.
struct Query {
  std::string verb;  // lookup | search | entity | subtree
  std::string arg;
  int k = -1;
};

/// The query stream: a Zipf-weighted head of repeated requests plus a
/// share of never-repeated searches, a pure function of (workload, seed,
/// stream, index), so any process can replay it.
class QueryStream {
 public:
  QueryStream(const Workload& w, uint64_t seed);
  Query At(uint64_t stream, uint64_t i) const;
  const std::vector<Query>& head() const { return head_; }
  /// Share of requests drawn from the never-repeated searches.
  static constexpr double kUniqueShare = 0.1;

 private:
  const Workload* w_;
  Layout layout_;
  uint64_t seed_;
  std::vector<Query> head_;
  std::vector<double> cdf_;
};

/// splitmix64: the generator's only randomness source.
uint64_t Mix(uint64_t x);

/// Writes corpus.txt, entities.tsv (entity workloads), delta_<d>.txt,
/// queries_head.txt and config.json into `dir`. `deltas` is the number of
/// deltas to generate.
int Generate(const Workload& w, uint64_t seed, int deltas,
             const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
