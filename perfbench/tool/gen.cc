// Seeded input generator: planted areas/subareas with their own words,
// phrases and entities, background words shared by all, append-only
// deltas each carrying a phrase no earlier document contains, and the
// serving query stream.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

namespace {

// Sizes of the planted structure that do not vary by workload.
constexpr int kPhrasesPerSub = 3;
constexpr int kAuthorsPerSub = 8;
constexpr int kVenuesPerArea = 3;
constexpr int kDeltaPhraseWords = 2;
// Entity affinities: an author comes from the document's subarea, else its
// area, else anywhere; a venue from its area, else anywhere.
constexpr double kAuthorOwnSub = 0.85;
constexpr double kAuthorOwnArea = 0.10;
constexpr double kVenueOwnArea = 0.90;
// Zipf exponent of the draws within each word pool and among a subarea's
// authors: a few frequent words anchor each planted topic.
constexpr double kPoolZipf = 0.7;
// Every fourth delta document carries the delta's planted phrase.
constexpr int kDeltaPhraseEvery = 4;

// serve and refresh run on the same entity corpus shape as mine_em.
const Workload kTable[] = {
    // EM (CATHYHIN) mine of short entity-linked titles: node fits dominate.
    // Three areas: with five, all of EM's restarts sometimes settle in a
    // split/merge local optimum that fails the area check (README).
    {.name = "mine_em", .docs = 12000, .areas = 3, .subareas = 3,
     .sub_words = 16, .area_words = 24, .bg_words = 60, .min_len = 5,
     .max_len = 8, .phrase_share = 0.45, .sub_share = 0.15, .area_share = 0.65,
     .entities = true, .inference = "em", .threads = 1,
     .corpora = 5},
    // Spectral (STROD) mine of a text-only corpus ten times larger with a
    // wider vocabulary: loading, collapse, phrase mining and KERT share
    // the time with cheap fits. Documents mix areas with Dirichlet
    // proportions of the concentration STROD assumes (alpha0 = 1).
    {.name = "mine_spectral", .docs = 120000, .areas = 5, .subareas = 3,
     .sub_words = 200, .area_words = 300, .bg_words = 2100, .min_len = 5,
     .max_len = 9, .phrase_share = 0.2, .sub_share = 0.15, .area_share = 0.65,
     .mix_alpha0 = 1.0, .entities = false, .inference = "spectral", .threads = 4},
    // Daemon serving a saved tree to keep-alive clients.
    {.name = "serve", .docs = 20000, .areas = 3, .subareas = 3,
     .sub_words = 16, .area_words = 24, .bg_words = 60, .min_len = 5,
     .max_len = 8, .phrase_share = 0.45, .sub_share = 0.15, .area_share = 0.65,
     .entities = true, .inference = "em", .threads = 4, .max_inflight = 3,
     .max_queue = 16, .open_qps = 3000, .open_s = 2.0,
     .closed_queries = 45000, .probe_every_ms = 250,
     .probe_deadline_ms = 100},
    // Daemon in refresh mode folding deltas in while it answers queries.
    {.name = "refresh", .docs = 20000, .areas = 3, .subareas = 3,
     .sub_words = 16, .area_words = 24, .bg_words = 60, .min_len = 5,
     .max_len = 8, .phrase_share = 0.45, .sub_share = 0.15, .area_share = 0.65,
     .entities = true, .inference = "em", .threads = 1, .max_inflight = 2,
     .max_queue = 16, .open_qps = 2000, .delta_every_s = 1.0,
     .delta_docs = 300},
};

class Rand {
 public:
  // Streams of different seeds start far apart (not one draw apart).
  explicit Rand(uint64_t seed) : s_(Mix(seed ^ 0xB5AD4ECEDA1CE2A9ull)) {}
  uint64_t Next() { return Mix(s_ += 0x9E3779B97F4A7C15ull); }
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  double Normal() {
    const double u1 = 1.0 - Uniform(), u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  // Marsaglia-Tsang; shapes below 1 boosted by U^(1/a).
  double Gamma(double a) {
    if (a < 1.0) return Gamma(a + 1.0) * std::pow(1.0 - Uniform(), 1.0 / a);
    const double d = a - 1.0 / 3.0, c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
      double x, v;
      do {
        x = Normal();
        v = 1.0 + c * x;
      } while (v <= 0);
      v = v * v * v;
      const double u = 1.0 - Uniform();
      if (std::log(u) < 0.5 * x * x + d - d * v + d * std::log(v)) return d * v;
    }
  }

 private:
  uint64_t s_;
};

// Zipf-like rank weights (rank+1)^-s as a cumulative table.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += std::pow(i + 1.0, -s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int Draw(const std::vector<double>& cdf, double u) {
  int lo = 0, hi = static_cast<int>(cdf.size()) - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (cdf[mid] < u) lo = mid + 1; else hi = mid;
  }
  return lo;
}

std::string Author(const Layout& l, int area, int sub, int i) {
  return "au_" + Word(l.VocabSize() + 100000 +
                      (area * l.w->subareas + sub) * kAuthorsPerSub + i);
}

std::string Venue(const Layout& l, int area, int i) {
  return "ve_" + Word(l.VocabSize() + 200000 + area * kVenuesPerArea + i);
}

std::vector<int> Phrase(const Layout& l, int area, int sub, int j) {
  // Phrase j takes subarea words 3j.. ; the first phrase has three words,
  // the others two.
  std::vector<int> words;
  const int len = j == 0 ? 3 : 2;
  for (int t = 0; t < len; ++t) words.push_back(l.SubWord(area, sub, 3 * j + t));
  return words;
}

std::string Join(const std::vector<int>& ids) {
  std::string out;
  for (int id : ids) {
    if (!out.empty()) out += ' ';
    out += Word(id);
  }
  return out;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items[i] + "\"";
  }
  return out + "]";
}

// One document of primary (area, sub): a title of the workload's length
// range with a planted phrase of the primary subarea in phrase_share of
// them and the rest of its tokens drawn from subarea, area and background
// pools. In a mixed workload each token first draws its area from the
// document's area proportions `theta` (its subarea is the primary one in
// the primary area, else random).
std::vector<int> MakeDoc(const Layout& l, int area, int sub,
                         const std::vector<double>* theta, Rand* r,
                         const std::vector<double>& sub_cdf,
                         const std::vector<double>& area_cdf,
                         const std::vector<double>& bg_cdf,
                         const std::vector<int>* extra_phrase) {
  const Workload& w = *l.w;
  const int len = w.min_len + r->Below(w.max_len - w.min_len + 1);
  std::vector<int> phrase;
  if (extra_phrase != nullptr) {
    phrase = *extra_phrase;
  } else if (r->Uniform() < w.phrase_share) {
    phrase = Phrase(l, area, sub, r->Below(kPhrasesPerSub));
  }
  std::vector<int> doc;
  const int fill = len - static_cast<int>(phrase.size());
  for (int t = 0; t < fill; ++t) {
    int a = area, s = sub;
    if (theta != nullptr) {
      a = Draw(*theta, r->Uniform());
      if (a != area) s = r->Below(w.subareas);
    }
    const double u = r->Uniform();
    if (u < w.sub_share) {
      doc.push_back(l.SubWord(a, s, Draw(sub_cdf, r->Uniform())));
    } else if (u < w.sub_share + w.area_share) {
      doc.push_back(l.AreaWord(a, Draw(area_cdf, r->Uniform())));
    } else {
      doc.push_back(l.BgWord(Draw(bg_cdf, r->Uniform())));
    }
  }
  const int at = r->Below(fill + 1);
  doc.insert(doc.begin() + at, phrase.begin(), phrase.end());
  return doc;
}

// Area proportions ~ Dirichlet(alpha0 / areas), as a cumulative table;
// `*primary` is the largest.
std::vector<double> DrawTheta(const Workload& w, Rand* r, int* primary) {
  std::vector<double> g(w.areas);
  double total = 0;
  for (double& x : g) total += (x = r->Gamma(w.mix_alpha0 / w.areas));
  *primary = static_cast<int>(std::max_element(g.begin(), g.end()) - g.begin());
  double acc = 0;
  for (double& x : g) x = (acc += x / total);
  g.back() = 1.0;
  return g;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kTable) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : kTable) names.push_back(w.name);
  return names;
}

std::string Word(int i) {
  static const char kCons[] = "bdfgklmnprstvz";
  static const char kVow[] = "aeiou";
  std::string out;
  for (int s = 0; s < 3; ++s) {
    const int syl = i % 70;
    i /= 70;
    out += kCons[syl / 5];
    out += kVow[syl % 5];
  }
  // A fourth syllable only past 70^3 words; the tail letter keeps every
  // word clear of the tokenizer's stopword list.
  if (i > 0) {
    out += kCons[i % 14];
    out += kVow[(i / 14) % 5];
  }
  return out + "x";
}

int Layout::SubWord(int area, int sub, int i) const {
  return (area * w->subareas + sub) * w->sub_words + i;
}
int Layout::AreaWord(int area, int i) const {
  return w->areas * w->subareas * w->sub_words + area * w->area_words + i;
}
int Layout::BgWord(int i) const {
  return w->areas * (w->subareas * w->sub_words + w->area_words) + i;
}
int Layout::DeltaWord(int d, int i) const {
  return VocabSize() + d * kDeltaPhraseWords + i;
}
std::string DeltaPhrase(const Workload& w, int k) {
  const Layout l{&w};
  std::vector<int> words;
  for (int t = 0; t < kDeltaPhraseWords; ++t) words.push_back(l.DeltaWord(k, t));
  return Join(words);
}

int Layout::VocabSize() const {
  return w->areas * (w->subareas * w->sub_words + w->area_words) + w->bg_words;
}

QueryStream::QueryStream(const Workload& w, uint64_t seed)
    : w_(&w), layout_{&w}, seed_(seed) {
  const Layout& l = layout_;
  // Head pool: every topic path as a lookup, level <= 1 paths as depth-1
  // subtrees, every planted phrase and some area-word pairs as searches,
  // and a slice of the authors plus every venue as entity queries.
  std::vector<Query> pool;
  pool.push_back({"lookup", "o", -1});
  pool.push_back({"subtree", "o", 1});
  for (int a = 0; a < w.areas; ++a) {
    const std::string pa = "o/" + std::to_string(a + 1);
    pool.push_back({"lookup", pa, -1});
    pool.push_back({"subtree", pa, 1});
    for (int s = 0; s < w.subareas; ++s) {
      pool.push_back({"lookup", pa + "/" + std::to_string(s + 1), -1});
      for (int j = 0; j < kPhrasesPerSub; ++j) {
        pool.push_back({"search", Join(Phrase(l, a, s, j)), -1});
      }
      if (w.entities) {
        for (int i = 0; i < 4; ++i) {
          pool.push_back({"entity", "author:" + Author(l, a, s, i), -1});
        }
      }
    }
    for (int i = 0; i < 5; ++i) {
      pool.push_back(
          {"search", Word(l.AreaWord(a, 2 * i)) + " " +
                         Word(l.AreaWord(a, 2 * i + 1)), -1});
    }
    if (w.entities) {
      for (int i = 0; i < kVenuesPerArea; ++i) {
        pool.push_back({"entity", "venue:" + Venue(l, a, i), -1});
      }
    }
  }
  // Seeded order, so which requests are hot differs by seed.
  Rand r(seed ^ 0x51A7E5ull);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[r.Below(static_cast<int>(i))]);
  }
  head_ = std::move(pool);
  cdf_ = ZipfCdf(static_cast<int>(head_.size()), 1.0);
}

Query QueryStream::At(uint64_t stream, uint64_t i) const {
  const uint64_t h = Mix(seed_ ^ Mix(stream * 0x100000001B3ull + i));
  const double u = (h >> 11) * (1.0 / 9007199254740992.0);
  if (u >= kUniqueShare) {
    return head_[Draw(cdf_, (u - kUniqueShare) / (1.0 - kUniqueShare))];
  }
  // Never-repeated search: (stream, i) indexes a bijection onto word
  // triples of the base vocabulary, so no two requests of a run share one.
  const uint64_t v = static_cast<uint64_t>(layout_.VocabSize());
  const uint64_t space = v * v * v;
  const uint64_t n = ((i << 12) | (stream & 0xFFF)) % space;
  uint64_t m = (n * 1000003ull + (seed_ % space)) % space;
  std::string arg;
  for (int t = 0; t < 3; ++t) {
    if (t > 0) arg += ' ';
    arg += Word(static_cast<int>(m % v));
    m /= v;
  }
  return {"search", arg, -1};
}

int Generate(const Workload& w, uint64_t seed, int deltas,
             const std::string& dir) {
  const Layout l{&w};
  Rand r(seed);
  const std::vector<double> sub_cdf = ZipfCdf(w.sub_words, kPoolZipf);
  const std::vector<double> area_cdf = ZipfCdf(w.area_words, kPoolZipf);
  const std::vector<double> bg_cdf = ZipfCdf(w.bg_words, kPoolZipf);
  const std::vector<double> author_cdf = ZipfCdf(kAuthorsPerSub, kPoolZipf);

  std::ofstream corpus(dir + "/corpus.txt");
  std::ofstream ents;
  if (w.entities) ents.open(dir + "/entities.tsv");
  for (int d = 0; d < w.docs; ++d) {
    int area = r.Below(w.areas);
    std::vector<double> theta;
    if (w.mix_alpha0 > 0) theta = DrawTheta(w, &r, &area);
    const int sub = r.Below(w.subareas);
    corpus << Join(MakeDoc(l, area, sub, theta.empty() ? nullptr : &theta, &r,
                           sub_cdf, area_cdf, bg_cdf, nullptr))
           << '\n';
    if (!w.entities) continue;
    const int authors = 1 + r.Below(3);
    for (int k = 0; k < authors; ++k) {
      const double u = r.Uniform();
      const int aa = u < kAuthorOwnSub + kAuthorOwnArea ? area : r.Below(w.areas);
      const int ss = u < kAuthorOwnSub ? sub : r.Below(w.subareas);
      ents << d << "\tauthor\t"
           << Author(l, aa, ss, Draw(author_cdf, r.Uniform())) << '\n';
    }
    const int va = r.Uniform() < kVenueOwnArea ? area : r.Below(w.areas);
    ents << d << "\tvenue\t" << Venue(l, va, r.Below(kVenuesPerArea)) << '\n';
  }
  if (!corpus.good() || (w.entities && !ents.good())) return 1;

  // Of every three deltas two are concentrated in one area (rotating) and
  // one is spread over every area, so the median refresh is a concentrated
  // one. Each delta plants its own never-seen phrase.
  std::string delta_json;
  for (int k = 0; k < deltas; ++k) {
    std::vector<int> phrase;
    for (int t = 0; t < kDeltaPhraseWords; ++t) phrase.push_back(l.DeltaWord(k, t));
    const int area = k % 3 != 2 ? (k - k / 3) % w.areas : -1;
    std::ofstream out(dir + "/delta_" + std::to_string(k) + ".txt");
    const int n = w.delta_docs > 0 ? w.delta_docs : 300;
    for (int d = 0; d < n; ++d) {
      const int a = area >= 0 ? area : r.Below(w.areas);
      const bool planted = d % kDeltaPhraseEvery == 0;
      out << Join(MakeDoc(l, a, r.Below(w.subareas), nullptr, &r, sub_cdf,
                          area_cdf, bg_cdf, planted ? &phrase : nullptr))
          << '\n';
    }
    if (!out.good()) return 1;
    if (!delta_json.empty()) delta_json += ",\n";
    delta_json += "    {\"file\": \"delta_" + std::to_string(k) +
                  ".txt\", \"docs\": " + std::to_string(n) +
                  ", \"area\": " + std::to_string(area) +
                  ", \"phrase\": \"" + DeltaPhrase(w, k) + "\"}";
  }

  QueryStream qs(w, seed);
  std::ofstream head(dir + "/queries_head.txt");
  for (const Query& q : qs.head()) {
    head << q.verb << ' ' << q.arg;
    if (q.k >= 0) head << ' ' << q.k;
    head << '\n';
  }

  // config.json: the workload row and the planted truth.
  std::ostringstream js;
  js << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": " << seed
     << ",\n  \"docs\": " << w.docs << ",\n  \"levels\": [" << w.areas << ", "
     << w.subareas << "],\n  \"vocab\": " << l.VocabSize()
     << ",\n  \"doc_len\": [" << w.min_len << ", " << w.max_len
     << "],\n  \"entities\": " << (w.entities ? "true" : "false")
     << ",\n  \"inference\": \"" << w.inference
     << "\",\n  \"corpora\": " << w.corpora << ",\n  \"threads\": "
     << w.threads << ",\n  \"min_support\": " << w.min_support
     << ",\n  \"max_inflight\": " << w.max_inflight
     << ",\n  \"max_queue\": " << w.max_queue
     << ",\n  \"open_qps\": " << w.open_qps << ",\n  \"open_s\": " << w.open_s
     << ",\n  \"closed_queries\": " << w.closed_queries
     << ",\n  \"probe_every_ms\": " << w.probe_every_ms
     << ",\n  \"probe_deadline_ms\": " << w.probe_deadline_ms
     << ",\n  \"delta_every_s\": " << w.delta_every_s
     << ",\n  \"traced_deltas\": " << w.traced_deltas
     << ",\n  \"head_queries\": " << qs.head().size()
     << ",\n  \"unique_share\": " << QueryStream::kUniqueShare
     << ",\n  \"deltas\": [\n" << delta_json << "\n  ],\n  \"areas\": [\n";
  for (int a = 0; a < w.areas; ++a) {
    std::vector<std::string> aw, venues;
    for (int i = 0; i < w.area_words; ++i) aw.push_back(Word(l.AreaWord(a, i)));
    for (int i = 0; i < kVenuesPerArea; ++i) venues.push_back(Venue(l, a, i));
    js << "    {\"words\": " << JsonList(aw) << ",\n     \"venues\": "
       << JsonList(venues) << ",\n     \"subareas\": [\n";
    for (int s = 0; s < w.subareas; ++s) {
      std::vector<std::string> sw, phrases, authors;
      for (int i = 0; i < w.sub_words; ++i) sw.push_back(Word(l.SubWord(a, s, i)));
      for (int j = 0; j < kPhrasesPerSub; ++j) phrases.push_back(Join(Phrase(l, a, s, j)));
      for (int i = 0; i < kAuthorsPerSub; ++i) authors.push_back(Author(l, a, s, i));
      js << "       {\"words\": " << JsonList(sw) << ", \"phrases\": "
         << JsonList(phrases) << ", \"authors\": " << JsonList(authors) << "}"
         << (s + 1 < w.subareas ? ",\n" : "\n");
    }
    js << "     ]}" << (a + 1 < w.areas ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  std::ofstream cfg(dir + "/config.json");
  cfg << js.str();
  return cfg.good() && head.good() ? 0 : 1;
}

}  // namespace perfbench
