//===- perfbench/driver.cpp - The lalrcex benchmark driver -----*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload against the library through the same public
/// calls grammar_debugger and batch_analyze make, times each call from
/// outside, checks every output, and prints one JSON result line. See
/// README.md in this directory for the workloads, metrics and budgets.
///
///   perfbench_driver --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> --root <repo> --work <dir>
///                    [--t0-ns <CLOCK_MONOTONIC ns at process launch>]
///   perfbench_driver --self-test --root <repo>
///
/// Every budget is a step budget (FinderOptions::MaxConfigurations, no
/// wall-clock limit), so a run does identical work every time and a
/// faster layer shows as less time. A run repeats whole passes over the
/// workload's operations until --seconds have elapsed and reports, for each
/// operation, its best time over the passes.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "cache/AnalysisCache.h"
#include "corpus/Corpus.h"
#include "counterexample/CounterexampleFinder.h"
#include "counterexample/IncrementalSession.h"
#include "grammar/Analysis.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarParser.h"
#include "grammar/GrammarPrinter.h"
#include "lr/Automaton.h"
#include "lr/ParseTable.h"
#include "support/Metrics.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace lalrcex;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// Per-conflict step budget of every workload (see README.md).
constexpr size_t StepBudget = 2000;

/// System CPU time of the calling thread, in ms.
double sysMs() {
  struct rusage RU;
  getrusage(RUSAGE_THREAD, &RU);
  return double(RU.ru_stime.tv_sec) * 1e3 + double(RU.ru_stime.tv_usec) / 1e3;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed public call: name, start, end, the span that caused it, and
/// the grammar / conflict (or edit) it served.
struct Span {
  const char *Name;
  int64_t Start, End;
  int Parent;
  int Pass;
  int Grammar;
  int Item;
};

/// In-memory span log. Disabled, it records nothing and costs a branch.
class Tracer {
public:
  bool On = false;
  int Pass = -1;
  std::vector<Span> Spans;

  class Scope {
  public:
    Scope(Tracer &T, const char *Name, int Grammar = -1, int Item = -1)
        : T(T), Id(-1) {
      if (!T.On)
        return;
      Id = int(T.Spans.size());
      T.Spans.push_back({Name, nowNs(), 0, T.Open.empty() ? -1 : T.Open.back(),
                         T.Pass, Grammar, Item});
      T.Open.push_back(Id);
    }
    ~Scope() {
      if (Id < 0)
        return;
      T.Spans[size_t(Id)].End = nowNs();
      T.Open.pop_back();
    }

  private:
    Tracer &T;
    int Id;
  };

  /// Self time (duration minus the children's) per span name, in ms, over
  /// the spans of \p P.
  std::map<std::string, double> selfMs(int P) const {
    std::vector<int64_t> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[size_t(S.Parent)] += S.End - S.Start;
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Pass == P)
        Out[Spans[I].Name] +=
            double(Spans[I].End - Spans[I].Start - Child[I]) / 1e6;
    return Out;
  }

  /// Writes the spans as Chrome trace_event JSON ("X" events, times in
  /// microseconds from the first span).
  bool writeChrome(const fs::path &Path,
                   const std::vector<std::string> &GrammarNames) const {
    std::ofstream OS(Path);
    int64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[512];
      std::snprintf(
          Buf, sizeof Buf,
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
          "\"pass\":%d,\"grammar\":\"%s\",\"item\":%d}}",
          I ? "," : "", S.Name, double(S.Start - Base) / 1e3,
          double(S.End - S.Start) / 1e3, I, S.Parent, S.Pass,
          S.Grammar >= 0 ? GrammarNames[size_t(S.Grammar)].c_str() : "",
          S.Item);
      OS << Buf;
    }
    OS << "\n]}\n";
    return bool(OS);
  }

private:
  std::vector<int> Open;
};

//===----------------------------------------------------------------------===//
// Workloads and inputs
//===----------------------------------------------------------------------===//

enum class Mode { Cold, Edit, Parallel };

struct Workload {
  const char *Name;
  Mode M;
  bool Unifying;
  std::vector<std::string> Grammars; ///< corpus names, or "file:<path>"
};

/// The cold workloads' grammars: the whole corpus plus the two imported
/// real grammars.
std::vector<std::string> corpusAndImported() {
  std::vector<std::string> Out;
  for (const CorpusEntry &E : corpus())
    Out.push_back(E.Name);
  Out.push_back("file:examples/grammars/sql.y");
  Out.push_back("file:examples/grammars/ansi_c.y");
  return Out;
}

const Workload *findWorkload(const std::string &Name) {
  static const std::vector<Workload> All = {
      {"cold-search", Mode::Cold, true, corpusAndImported()},
      {"cold-nonunifying", Mode::Cold, false, corpusAndImported()},
      {"edit-loop",
       Mode::Edit,
       true,
       {"Java.2", "file:examples/grammars/ansi_c.y",
        "file:examples/grammars/sql.y"}},
      {"parallel-default",
       Mode::Parallel,
       true,
       {"file:examples/grammars/sql.y", "worst-case-conflict",
        "stackovf10"}},
  };
  for (const Workload &W : All)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// edit-loop replays one fixed stream of random edits per grammar, the
/// stream batch_analyze -edit-loop -edit-seed 4 applies; see README.md for
/// why it does not vary with --seed.
constexpr uint64_t EditStreamSeed = 4;

/// Edits replayed per grammar in edit-loop.
unsigned editCount(const std::string &Grammar) {
  if (Grammar == "sql.y")
    return 1;
  return Grammar == "ansi_c.y" ? 15 : 16;
}

struct Source {
  std::string Name;
  std::string Text;
  int CorpusConflicts = -1;
  std::optional<bool> Ambiguous;
};

/// One edited version of a grammar: its text as a user would save it.
struct Edit {
  std::string Label; ///< the edit, as applyRandomEdit describes it
  std::string Text;
};

/// Conflict-level workers for parallel-default: the finder's default
/// (hardware concurrency), capped at the CPUs this process may run on.
unsigned cappedJobs() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return 0;
  unsigned Allowed = unsigned(CPU_COUNT(&Set));
  return std::thread::hardware_concurrency() > Allowed ? Allowed : 0;
}

FinderOptions finderOptions(bool Unifying, bool Serial) {
  FinderOptions O;
  O.ConflictTimeLimitSeconds = 0;
  O.CumulativeTimeLimitSeconds = 0;
  O.MaxConfigurations = StepBudget;
  O.UnifyingEnabled = Unifying;
  O.Jobs = Serial ? 1 : cappedJobs();
  O.JobsInner = Serial ? 1 : 0;
  return O;
}

/// Deterministic Fisher-Yates shuffle from the edit RNG (stable across
/// standard libraries, unlike std::shuffle).
template <typename T> void seededShuffle(std::vector<T> &V, EditRng &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(unsigned(I))]);
}

/// The best of an operation's times over the passes. The work is the same
/// in every pass, so anything above the best is the machine's, not the
/// program's: a slow spell that covers some passes drops out.
double best(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// Nearest-rank percentile: with 387 samples, p97 leaves 11 beyond it.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

/// Registry histogram sum difference, in ms.
double histMsDelta(const MetricsSnapshot &A, const MetricsSnapshot &B,
                   metric::Hist H) {
  return double(B.hist(H).Sum - A.hist(H).Sum) / 1e6;
}

uint64_t counterDelta(const MetricsSnapshot &A, const MetricsSnapshot &B,
                      metric::Counter C) {
  return B.counter(C) - A.counter(C);
}

//===----------------------------------------------------------------------===//
// The benchmark
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int64_t T0Ns = 0;
  fs::path Root = ".";
  fs::path Work = ".bench_build/perfbench/work";
  fs::path TraceOut;
  bool SelfTest = false;
};

/// Layer totals of one pass, in ms, by span name.
struct PassLayers {
  std::map<std::string, double> Ms;
};

class Bench {
public:
  Bench(const Args &A, const Workload &W) : A(A), W(W) {
    T.On = A.Trace;
  }

  bool setup();
  void run();
  void check();
  void print() const;
  bool writeTrace() const {
    std::vector<std::string> Names;
    for (const Source &S : Sources)
      Names.push_back(S.Name);
    return A.TraceOut.empty() || T.writeChrome(A.TraceOut, Names);
  }

private:
  /// One pass of cold-search, cold-nonunifying or parallel-default.
  void coldPass(int Pass);
  void editPass(int Pass);
  ConflictReport explainSplit(const Grammar &G, const StateItemGraph &Graph,
                              const UnifyingSearch &U,
                              const NonunifyingBuilder &NB,
                              const Conflict &C, int GI, int CI);
  void generateEdits();
  void restoreCache(size_t GI, int Pass) const;
  fs::path cacheDir(size_t GI, int Pass) const {
    return A.Work / ("pass-" + std::to_string(Pass)) /
           ("cache-" + std::to_string(GI));
  }
  fs::path snapshotDir(size_t GI) const {
    return A.Work / ("snapshot-" + std::to_string(GI));
  }
  void problem(const std::string &Where, const std::string &What) {
    Correct = false;
    if (Problems < 20)
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s: %s\n",
                   Where.c_str(), What.c_str());
    ++Problems;
  }
  /// Records the reports and renderings of one grammar (or edit) in pass
  /// 0, and checks that later passes reproduce them byte for byte.
  void keep(int Pass, size_t Key, std::vector<ConflictReport> Reports,
            std::vector<std::string> Rendered);
  static void record(std::vector<std::vector<double>> &Into, size_t I,
                     double Ms) {
    if (Into.size() <= I)
      Into.resize(I + 1);
    Into[I].push_back(Ms);
  }
  void recordOp(size_t Op, double Ms) { record(OpMs, Op, Ms); }
  /// The timed part of a run: the sum over its units (a grammar's whole
  /// analysis, or one edit) of each unit's best time over the passes.
  double analyzeSeconds() const {
    double Ms = 0;
    for (const std::vector<double> &V : W.M == Mode::Edit ? OpMs : UnitMs)
      Ms += best(V);
    return Ms / 1e3;
  }

  const Args &A;
  const Workload &W;
  Tracer T;
  MetricsRegistry Registry;
  MetricsRegistry *Reg() { return A.Trace ? &Registry : nullptr; }

  std::vector<Source> Sources;
  std::vector<std::optional<Grammar>> Grammars;
  /// edit-loop: each session's first generation.
  std::vector<std::optional<Grammar>> SessionStart;
  std::vector<Expectation> Expect;
  std::vector<size_t> Order;
  std::vector<std::vector<Edit>> Edits;

  double SetupS = 0;
  double SetupParseMs = 0;
  std::vector<double> PassS;
  std::vector<std::vector<double>> OpMs;   ///< [operation][pass]
  std::vector<std::vector<double>> UnitMs; ///< [grammar][pass]
  size_t OpsPerPass = 0;
  size_t FailedPerPass = 0;
  std::vector<PassLayers> Layers;
  /// Registry time spent outside the timed operations in this pass.
  std::map<metric::Hist, double> UntimedMs;

  /// Pass-0 outputs, keyed by grammar (or grammar * 1000 + edit).
  std::map<size_t, std::vector<ConflictReport>> Reports;
  std::map<size_t, std::vector<std::string>> Rendered;

  // Pass-0 counts.
  uint64_t States = 0, LssChecks = 0, LssExpanded = 0, Configs = 0,
           Unified = 0, Reused = 0, Remapped = 0, Recomputed = 0;
  size_t PeakBytes = 0;

  bool Correct = true;
  size_t Problems = 0;
  std::map<std::string, std::pair<double, double>> RegistryAgreement;
};

bool Bench::setup() {
  Tracer::Scope S(T, "setup");
  for (const std::string &Name : W.Grammars) {
    Source Src;
    if (Name.rfind("file:", 0) == 0) {
      fs::path P = A.Root / Name.substr(5);
      std::ifstream In(P, std::ios::binary);
      if (!In) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", P.c_str());
        return false;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Src.Name = P.filename().string();
      Src.Text = SS.str();
    } else {
      const CorpusEntry *E = findCorpusEntry(Name);
      if (!E) {
        std::fprintf(stderr, "perfbench: no corpus grammar %s\n",
                     Name.c_str());
        return false;
      }
      Src.Name = E->Name;
      Src.Text = E->Text;
      Src.CorpusConflicts = E->ExpectedConflicts;
      Src.Ambiguous = E->Ambiguous;
    }
    Sources.push_back(std::move(Src));
  }
  for (size_t GI = 0; GI < Sources.size(); ++GI) {
    int64_t P0 = nowNs();
    GrammarParseResult PR;
    {
      Tracer::Scope PS(T, "parse", int(GI));
      PR = parseGrammar(Sources[GI].Text);
    }
    SetupParseMs += double(nowNs() - P0) / 1e6;
    if (!PR.ok()) {
      std::fprintf(stderr, "perfbench: %s does not parse:\n%s",
                   Sources[GI].Name.c_str(),
                   PR.renderDiagnostics(Sources[GI].Text).c_str());
      return false;
    }
    Expect.push_back(expectationFor(*PR.G, Sources[GI].CorpusConflicts,
                                    Sources[GI].Ambiguous));
    Grammars.push_back(std::move(PR.G));
  }

  // The seed fixes the order the grammars are processed in.
  EditRng Rng(A.Seed);
  for (size_t GI = 0; GI < Sources.size(); ++GI)
    Order.push_back(GI);
  seededShuffle(Order, Rng);

  if (W.M == Mode::Edit) {
    // Open each grammar's first generation cold and fill its conflict
    // cache; every pass restarts from this state. Sessions start from the
    // grammar as the printer writes it, the form every edit arrives in.
    for (size_t GI = 0; GI < Grammars.size(); ++GI) {
      GrammarParseResult PR = parseGrammar(printGrammarText(*Grammars[GI]));
      if (!PR.ok()) {
        problem(Sources[GI].Name, "printed grammar does not parse");
        return false;
      }
      SessionStart.push_back(std::move(PR.G));
      double Sys0 = sysMs();
      int64_t C0 = nowNs();
      IncrementalSession Sess(*SessionStart[GI]);
      FinderOptions O = finderOptions(W.Unifying, /*Serial=*/true);
      O.CachePath = snapshotDir(GI).string();
      CounterexampleFinder F(Sess.table(), O);
      F.examineAll();
      std::fprintf(stderr,
                   "perfbench: set-up %s: %.1f ms, %.1f ms system\n",
                   Sources[GI].Name.c_str(), double(nowNs() - C0) / 1e6,
                   sysMs() - Sys0);
    }
  }
  SetupS = A.T0Ns ? double(nowNs() - A.T0Ns) / 1e9 : 0;
  if (W.M == Mode::Edit)
    generateEdits();
  return Correct;
}

void Bench::generateEdits() {
  Edits.resize(Grammars.size());
  for (size_t GI = 0; GI < Grammars.size(); ++GI) {
    EditableGrammar Model = EditableGrammar::fromGrammar(*Grammars[GI]);
    EditRng Rng(EditStreamSeed);
    while (Edits[GI].size() < editCount(Sources[GI].Name)) {
      std::optional<AppliedEdit> E =
          applyRandomEdit(Model, Rng, allEditKinds());
      std::string Error;
      std::optional<Grammar> G;
      if (E)
        G = Model.build(&Error);
      if (!G) {
        problem(Sources[GI].Name, "edit stream ended early " + Error);
        break;
      }
      // The edit reaches the tool as saved text.
      std::string Text = printGrammarText(*G);
      if (!parseGrammar(Text).ok()) {
        problem(Sources[GI].Name,
                "edited grammar text does not parse: " + E->Detail);
        break;
      }
      Edits[GI].push_back({E->Detail, std::move(Text)});
    }
  }
}

void Bench::restoreCache(size_t GI, int Pass) const {
  // Each pass gets a new directory of hard links to the snapshot. Links,
  // not copies: the cache only ever replaces a blob by renaming a new file
  // over it, so the snapshot stays intact and the restore writes no file
  // data. Nothing is deleted while the run lasts: on ext4 without a
  // journal, every new inode is allocated by scanning past the inodes freed
  // in the last minute or more, so deleting the last pass's few thousand
  // blobs would make this pass's blob writes many times slower (README.md,
  // "Noise").
  fs::create_directories(cacheDir(GI, Pass));
  for (const fs::directory_entry &E : fs::directory_iterator(snapshotDir(GI)))
    fs::create_hard_link(E.path(), cacheDir(GI, Pass) / E.path().filename());
}

void Bench::keep(int Pass, size_t Key, std::vector<ConflictReport> Reps,
                 std::vector<std::string> Rend) {
  if (Pass == 0) {
    // An edit is one operation however many reports it re-serves.
    size_t Bad = std::count_if(Reps.begin(), Reps.end(), reportFailed);
    FailedPerPass += W.M == Mode::Edit ? Bad > 0 : Bad;
    for (const ConflictReport &R : Reps) {
      Configs += R.Configurations;
      PeakBytes = std::max(PeakBytes, R.PeakBytes);
      Unified += R.Status == CounterexampleStatus::UnifyingFound;
    }
    Reports[Key] = std::move(Reps);
    Rendered[Key] = std::move(Rend);
  } else if (Rendered[Key] != Rend) {
    problem(W.Name, "pass " + std::to_string(Pass) +
                        " rendered different reports than pass 0");
  }
}

ConflictReport Bench::explainSplit(const Grammar &G,
                                   const StateItemGraph &Graph,
                                   const UnifyingSearch &U,
                                   const NonunifyingBuilder &NB,
                                   const Conflict &C, int GI, int CI) {
  // The same ladder CounterexampleFinder::examine climbs under a
  // step-only budget, one public call per layer so each can be timed.
  ConflictReport R;
  R.TheConflict = C;
  auto fail = [&](FailureReason::Kind K, const char *Stage,
                  std::string Detail) {
    if (!R.Failure)
      R.Failure = FailureReason{K, Stage, std::move(Detail)};
  };
  StateItemGraph::NodeId ReduceNode = Graph.nodeFor(C.State, C.reduceItem(G));
  std::vector<StateItemGraph::NodeId> Others;
  if (C.K == Conflict::ShiftReduce) {
    Others.push_back(Graph.nodeFor(C.State, C.ShiftItm));
    R.ShiftItem = C.ShiftItm;
  } else {
    Others.push_back(Graph.nodeFor(
        C.State,
        Item(C.OtherProd, uint32_t(G.production(C.OtherProd).Rhs.size()))));
  }
  if (ReduceNode == StateItemGraph::InvalidNode ||
      Others[0] == StateItemGraph::InvalidNode) {
    fail(FailureReason::InternalError, "conflict-setup",
         "conflict item missing from its state");
    return R;
  }

  std::optional<LssPath> Path;
  LssStats Stats;
  {
    Tracer::Scope S(T, "lss", GI, CI);
    Path = shortestLookaheadSensitivePath(Graph, ReduceNode, C.Token, true,
                                          nullptr, &Stats, Reg());
  }
  if (T.Pass == 0) {
    LssChecks += Stats.SubsetChecks;
    LssExpanded += Stats.Expanded;
  }
  if (!Path) {
    fail(FailureReason::PathUnavailable, "lss-path",
         "no shortest lookahead-sensitive path to the conflict item");
    return R;
  }

  if (W.Unifying) {
    UnifyingOptions UO;
    UO.TimeLimitSeconds = 0;
    UO.MaxConfigurations = StepBudget;
    UO.InnerJobs = 1;
    UO.Metrics = Reg();
    UnifyingResult UR = [&] {
      Tracer::Scope S(T, "unifying", GI, CI);
      return U.search(ReduceNode, Others, C.Token, &*Path, UO);
    }();
    R.Configurations = UR.ConfigurationsExplored;
    R.PeakBytes = UR.PeakBytes;
    R.UnifyingOutcome = UR.Status;
    switch (UR.Status) {
    case UnifyingStatus::Found:
      R.Status = CounterexampleStatus::UnifyingFound;
      R.Example = std::move(UR.Example);
      return R;
    case UnifyingStatus::Exhausted:
      R.Status = CounterexampleStatus::NonunifyingComplete;
      break;
    case UnifyingStatus::LimitHit:
      R.Status = CounterexampleStatus::NonunifyingTimeout;
      fail(FailureReason::StepLimit, "unifying-search",
           "configuration step budget exhausted");
      break;
    default:
      // Deadlines, memory limits, cancellation and errors cannot arise
      // under a step-only budget; the comparison with examine() flags it.
      R.Status = CounterexampleStatus::Failed;
      fail(FailureReason::InternalError, "unifying-search",
           "unexpected unifying outcome in the split path");
      break;
    }
  } else {
    R.Status = CounterexampleStatus::NonunifyingTimeout;
  }

  {
    Tracer::Scope S(T, "nonunifying", GI, CI);
    for (StateItemGraph::NodeId Other : Others) {
      std::optional<Counterexample> Ex;
      try {
        Ex = NB.build(*Path, Other, C.Token);
      } catch (const SearchError &E) {
        R.Status = CounterexampleStatus::Failed;
        fail(FailureReason::InternalError, "nonunifying-builder", E.what());
        continue;
      }
      if (Ex) {
        R.Example = std::move(Ex);
        break;
      }
    }
  }
  if (!R.Example && R.Status != CounterexampleStatus::Failed) {
    R.Status = CounterexampleStatus::Failed;
    fail(FailureReason::PathUnavailable, "nonunifying-builder",
         "no nonunifying derivation for the conflicting item");
  }
  return R;
}

void Bench::coldPass(int Pass) {
  bool Pool = W.M == Mode::Parallel;
  FinderOptions O = finderOptions(W.Unifying, /*Serial=*/!Pool);
  O.Metrics = Reg();
  size_t Op = 0;
  for (size_t GI : Order) {
    int G32 = int(GI);
    const Grammar &G = *Grammars[GI];
    int64_t U0 = nowNs();
    Tracer::Scope GS(T, "grammar", G32);
    std::optional<GrammarAnalysis> An;
    {
      Tracer::Scope S(T, "analysis", G32);
      An.emplace(G, Reg());
    }
    std::optional<Automaton> M;
    {
      Tracer::Scope S(T, "automaton", G32);
      M.emplace(G, *An, AutomatonOptions{AutomatonKind::Lalr1, true, Reg(),
                                         nullptr});
    }
    std::optional<ParseTable> Tab;
    {
      Tracer::Scope S(T, "table", G32);
      Tab.emplace(*M);
    }
    std::optional<CounterexampleFinder> F;
    {
      Tracer::Scope S(T, "graph", G32);
      F.emplace(*Tab, O);
    }
    std::vector<ConflictReport> Reps;
    std::vector<std::string> Rend;
    if (Pool) {
      {
        Tracer::Scope S(T, "pool", G32);
        Reps = F->examineAll();
      }
      Tracer::Scope S(T, "render", G32);
      for (const ConflictReport &R : Reps)
        Rend.push_back(F->render(R));
    } else {
      // The traced split path drives the layers itself; its own search
      // objects are built outside every layer span.
      std::optional<UnifyingSearch> U;
      std::optional<NonunifyingBuilder> NB;
      if (A.Trace) {
        U.emplace(F->graph());
        NB.emplace(F->graph());
      }
      std::vector<Conflict> Cs = Tab->reportedConflicts();
      for (size_t CI = 0; CI < Cs.size(); ++CI, ++Op) {
        int64_t T0 = nowNs();
        Tracer::Scope CS(T, "conflict", G32, int(CI));
        ConflictReport R = A.Trace ? explainSplit(G, F->graph(), *U, *NB,
                                                  Cs[CI], G32, int(CI))
                                   : F->examine(Cs[CI]);
        {
          Tracer::Scope S(T, "render", G32, int(CI));
          Rend.push_back(F->render(R));
        }
        recordOp(Op, double(nowNs() - T0) / 1e6);
        Reps.push_back(std::move(R));
      }
    }
    record(UnitMs, GI, double(nowNs() - U0) / 1e6);
    // On the worker pool conflicts run concurrently inside one call, so
    // per-conflict latency is the finder's own per-report time.
    if (Pool)
      for (const ConflictReport &R : Reps)
        recordOp(Op++, R.Seconds * 1e3);
    if (Pass == 0)
      States += M->numStates();
    keep(Pass, GI, std::move(Reps), std::move(Rend));
  }
  OpsPerPass = Op;
}

void Bench::editPass(int Pass) {
  size_t Op = 0;
  for (size_t GI : Order) {
    int G32 = int(GI);
    // Untimed: every pass starts from the state set-up left behind.
    restoreCache(GI, Pass);
    MetricsSnapshot S0 = Registry.snapshot();
    IncrementalSession Sess(*SessionStart[GI], AutomatonKind::Lalr1, Reg());
    // The session's first generation is built cold and untimed; keep its
    // registry times out of the edit layers.
    MetricsSnapshot S1 = Registry.snapshot();
    for (metric::Hist H : {metric::TimeAnalysisNs, metric::TimeAutomatonNs,
                           metric::TimeGraphBuildNs})
      UntimedMs[H] += histMsDelta(S0, S1, H);
    // Wall and system time of the grammar's edits, for the pass log.
    double GWall = 0, GSys = 0;
    for (size_t K = 0; K < Edits[GI].size(); ++K, ++Op) {
      double Sys0 = sysMs();
      int64_t T0 = nowNs();
      Tracer::Scope ES(T, "edit", G32, int(K));
      GrammarParseResult PR;
      {
        Tracer::Scope S(T, "parse", G32, int(K));
        PR = parseGrammar(Edits[GI][K].Text);
      }
      const IncrementalSession::AdvanceStats *Adv;
      {
        Tracer::Scope S(T, "advance", G32, int(K));
        Adv = &Sess.advance(std::move(*PR.G));
      }
      FinderOptions O = finderOptions(W.Unifying, /*Serial=*/true);
      O.Metrics = Reg();
      O.CachePath = cacheDir(GI, Pass).string();
      O.Incremental = Sess.handoff();
      std::vector<ConflictReport> Reps;
      std::optional<CounterexampleFinder> F;
      {
        Tracer::Scope S(T, "examineAll", G32, int(K));
        F.emplace(Sess.table(), O);
        Reps = F->examineAll();
      }
      std::vector<std::string> Rend;
      {
        Tracer::Scope S(T, "render", G32, int(K));
        for (const ConflictReport &R : Reps)
          Rend.push_back(F->render(R));
      }
      recordOp(Op, double(nowNs() - T0) / 1e6);
      GWall += OpMs[Op].back();
      GSys += sysMs() - Sys0;
      if (Pass == 0) {
        const CacheActivity &CA = F->cacheActivity();
        std::fprintf(stderr,
                     "perfbench: %s edit %zu (%s): %.1f ms, %s, reports "
                     "reused %zu remapped %zu recomputed %zu of %zu\n",
                     Sources[GI].Name.c_str(), K, Edits[GI][K].Label.c_str(),
                     OpMs[Op].back(), Adv->Patched ? "patched" : "cold",
                     CA.ConflictsReused, CA.ConflictsRemapped,
                     CA.ConflictsRecomputed, Reps.size());
        States += Sess.automaton().numStates();
        Reused += CA.ConflictsReused;
        Remapped += CA.ConflictsRemapped;
        Recomputed += CA.ConflictsRecomputed;
      }
      keep(Pass, GI * 1000 + K, std::move(Reps), std::move(Rend));
    }
    std::fprintf(stderr, "perfbench: pass %d %s: %.1f ms, %.1f ms system\n",
                 Pass, Sources[GI].Name.c_str(), GWall, GSys);
  }
  OpsPerPass = Op;
}

void Bench::run() {
  int64_t Start = nowNs();
  for (int Pass = 0;; ++Pass) {
    T.Pass = Pass;
    MetricsSnapshot Before;
    if (A.Trace)
      Before = Registry.snapshot();
    UntimedMs.clear();
    int64_t P0 = nowNs();
    switch (W.M) {
    case Mode::Cold:
    case Mode::Parallel:
      coldPass(Pass);
      break;
    case Mode::Edit:
      editPass(Pass);
      break;
    }
    PassS.push_back(double(nowNs() - P0) / 1e9);
    if (A.Trace) {
      MetricsSnapshot After = Registry.snapshot();
      PassLayers L;
      L.Ms = T.selfMs(Pass);
      if (W.M != Mode::Cold) {
        // Layers that run inside examineAll (worker pool) or advance
        // (incremental session) cannot be split from outside; their times
        // come from the program's registry.
        L.Ms["lss"] = histMsDelta(Before, After, metric::TimeLssNs);
        L.Ms["unifying"] = histMsDelta(Before, After, metric::TimeUnifyingNs);
        L.Ms["nonunifying"] =
            histMsDelta(Before, After, metric::TimeNonunifyingNs);
        if (Pass == 0) {
          LssChecks = counterDelta(Before, After, metric::LssSubsetChecks);
          LssExpanded = counterDelta(Before, After, metric::LssExpanded);
          Configs =
              counterDelta(Before, After, metric::UnifyingConfigurations);
        }
      }
      if (W.M == Mode::Edit) {
        for (auto [Name, H] :
             {std::pair{"analysis", metric::TimeAnalysisNs},
              std::pair{"automaton", metric::TimeAutomatonNs},
              std::pair{"graph", metric::TimeGraphBuildNs}})
          L.Ms[Name] = histMsDelta(Before, After, H) - UntimedMs[H];
        // What is left of advance and examineAll is the incremental
        // machinery itself: delta, patching, cache and remap.
        L.Ms["advance"] -=
            L.Ms["analysis"] + L.Ms["automaton"] + L.Ms["graph"];
        L.Ms["examineAll"] -= L.Ms["lss"] + L.Ms["unifying"] +
                              L.Ms["nonunifying"];
      }
      if (W.M == Mode::Cold) {
        // The registry times the same calls from inside: a second,
        // independent total for the outside-timed layers.
        static const std::pair<const char *, metric::Hist> Pairs[] = {
            {"analysis", metric::TimeAnalysisNs},
            {"automaton", metric::TimeAutomatonNs},
            {"lss", metric::TimeLssNs},
            {"unifying", metric::TimeUnifyingNs}};
        for (const auto &[Name, H] : Pairs) {
          auto &Agg = RegistryAgreement[Name];
          Agg.first += L.Ms[Name];
          Agg.second += histMsDelta(Before, After, H);
        }
      }
      Layers.push_back(std::move(L));
    }
    std::fprintf(stderr, "perfbench: pass %d %.4f s\n", Pass, PassS.back());
    if (double(nowNs() - Start) / 1e9 >= A.Seconds)
      break;
  }
}

void Bench::check() {
  // The outside-timed layer totals of the traced cold workloads must agree
  // with the program's own time.*_ns registry within 1% + 1 ms.
  for (const auto &[Name, OutReg] : RegistryAgreement) {
    auto [Outside, Inside] = OutReg;
    std::fprintf(stderr,
                 "perfbench: layer %s outside %.3f ms, registry %.3f ms\n",
                 Name.c_str(), Outside, Inside);
    if (std::fabs(Outside - Inside) > 0.01 * Inside + 1)
      problem(Name, "outside-timed total disagrees with time.*_ns registry");
  }
  if (W.M == Mode::Edit) {
    // Every incremental report must equal a cacheless cold analysis of
    // the same edited grammar.
    for (size_t GI = 0; GI < Grammars.size(); ++GI) {
      for (size_t K = 0; K < Edits[GI].size(); ++K) {
        const std::vector<ConflictReport> &Incr = Reports[GI * 1000 + K];
        const std::vector<std::string> &IncrText = Rendered[GI * 1000 + K];
        std::string Where =
            Sources[GI].Name + " edit " + std::to_string(K) + " (" +
            Edits[GI][K].Label + ")";
        for (const ConflictReport &R : Incr)
          if (R.Failure && R.Failure->K == FailureReason::Deadline)
            problem(Where, "deadline failure under a step-only budget");
        int64_t C0 = nowNs();
        GrammarParseResult PR = parseGrammar(Edits[GI][K].Text);
        GrammarAnalysis An(*PR.G);
        Automaton M(*PR.G, An);
        ParseTable Tab(M);
        CounterexampleFinder F(Tab, finderOptions(W.Unifying, true));
        std::vector<ConflictReport> Cold = F.examineAll();
        std::string IncrAll, ColdAll;
        for (const ConflictReport &R : Cold)
          ColdAll += F.render(R) + "\n";
        std::fprintf(stderr, "perfbench: %s: cold reference %.1f ms\n",
                     Where.c_str(), double(nowNs() - C0) / 1e6);
        for (const std::string &S : IncrText)
          IncrAll += S + "\n";
        std::string Why = checkSameReport(IncrAll, ColdAll);
        if (!Why.empty())
          problem(Where, Why);
      }
    }
    return;
  }

  for (size_t GI = 0; GI < Grammars.size(); ++GI) {
    const Grammar &G = *Grammars[GI];
    const std::vector<ConflictReport> &Reps = Reports[GI];
    std::string Why = checkConflictCount(Reps.size(), Expect[GI]);
    if (!Why.empty())
      problem(Sources[GI].Name, Why);
    GrammarAnalysis An(G);
    DerivationCounter D(G, An);
    for (size_t CI = 0; CI < Reps.size(); ++CI) {
      Why = checkReport(G, D, Reps[CI], Expect[GI]);
      if (!Why.empty())
        problem(Sources[GI].Name + " conflict " + std::to_string(CI), Why);
    }
    // The traced split path must reproduce examine(), and the worker
    // pool must reproduce the serial finder, byte for byte.
    if ((W.M == Mode::Cold && A.Trace) || W.M == Mode::Parallel) {
      Automaton M(G, An);
      ParseTable Tab(M);
      CounterexampleFinder F(Tab, finderOptions(W.Unifying, true));
      std::vector<Conflict> Cs = Tab.reportedConflicts();
      for (size_t CI = 0; CI < Cs.size() && CI < Reps.size(); ++CI)
        if (F.render(F.examine(Cs[CI])) != Rendered[GI][CI])
          problem(Sources[GI].Name + " conflict " + std::to_string(CI),
                  W.M == Mode::Parallel
                      ? "parallel report differs from serial"
                      : "split-path report differs from examine()");
    }
  }
}

void printMetric(bool &First, const char *Name, double V, const char *Unit) {
  std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name, V, Unit);
  First = false;
}

void Bench::print() const {
  size_t Passes = PassS.size();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", OpsPerPass * Passes,
              FailedPerPass * Passes);
  bool First = true;
  if (!A.Trace) {
    std::vector<double> PerOp;
    for (const std::vector<double> &V : OpMs)
      PerOp.push_back(best(V));
    struct rusage RU;
    getrusage(RUSAGE_SELF, &RU);
    printMetric(First, "setup_s", SetupS, "s");
    printMetric(First, "analyze_s", analyzeSeconds(), "s");
    printMetric(First, "op_ms_p50", percentile(PerOp, 0.50), "ms");
    printMetric(First, "op_ms_p97", percentile(PerOp, 0.97), "ms");
    printMetric(First, "peak_rss_mb", double(RU.ru_maxrss) / 1024.0, "MiB");
  } else {
    auto layer = [&](const char *Span) {
      std::vector<double> V;
      for (const PassLayers &L : Layers) {
        auto It = L.Ms.find(Span);
        V.push_back(It == L.Ms.end() ? 0.0 : It->second);
      }
      return best(V);
    };
    double UnifyingMs = layer("unifying");
    printMetric(First, "grammar.parse_ms",
                W.M == Mode::Edit ? layer("parse") : SetupParseMs, "ms");
    printMetric(First, "grammar.analysis_ms", layer("analysis"), "ms");
    printMetric(First, "lr.automaton_ms", layer("automaton"), "ms");
    printMetric(First, "lr.table_ms", layer("table"), "ms");
    printMetric(First, "lr.states", double(States), "count");
    printMetric(First, "cex.graph_ms", layer("graph"), "ms");
    printMetric(First, "cex.lss_ms", layer("lss"), "ms");
    printMetric(First, "cex.lss_subset_checks", double(LssChecks), "count");
    printMetric(First, "cex.lss_expanded", double(LssExpanded), "count");
    printMetric(First, "cex.unifying_ms", UnifyingMs, "ms");
    printMetric(First, "cex.unifying_configs", double(Configs), "count");
    printMetric(First, "cex.unifying_configs_per_s",
                UnifyingMs > 0 ? double(Configs) / (UnifyingMs / 1e3) : 0,
                "1/s");
    printMetric(First, "cex.unifying_peak_mb",
                double(PeakBytes) / (1024.0 * 1024.0), "MiB");
    printMetric(First, "cex.unified", double(Unified), "count");
    printMetric(First, "cex.nonunifying_ms", layer("nonunifying"), "ms");
    printMetric(First, "cex.render_ms", layer("render"), "ms");
    printMetric(First, "inc.advance_ms", layer("advance"), "ms");
    printMetric(First, "inc.examine_ms", layer("examineAll"), "ms");
    printMetric(First, "inc.conflicts_reused", double(Reused), "count");
    printMetric(First, "inc.conflicts_remapped", double(Remapped), "count");
    printMetric(First, "inc.conflicts_recomputed", double(Recomputed),
                "count");
    printMetric(First, "trace.analyze_s", analyzeSeconds(), "s");
  }
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Self-test: every check rejects a planted bad output
//===----------------------------------------------------------------------===//

/// \p D with its first terminal leaf removed (the tree stays a tree).
DerivPtr dropFirstLeaf(const Grammar &G, const DerivPtr &D, bool &Dropped) {
  if (Dropped || !D->isNode())
    return D;
  std::vector<DerivPtr> Kids;
  for (const DerivPtr &C : D->children()) {
    if (!Dropped && C->isLeaf() && G.isTerminal(C->symbol())) {
      Dropped = true;
      continue;
    }
    Kids.push_back(dropFirstLeaf(G, C, Dropped));
  }
  return Derivation::node(D->symbol(), D->productionIndex(), std::move(Kids));
}

int selfTest() {
  int Failures = 0;
  auto expect = [&](const char *Name, bool Ok) {
    std::printf("%s %s\n", Ok ? "ok  " : "FAIL", Name);
    Failures += !Ok;
  };
  const CorpusEntry *E = findCorpusEntry("figure1");
  Grammar G = loadCorpusGrammar("figure1");
  GrammarAnalysis An(G);
  Automaton M(G, An);
  ParseTable Tab(M);
  CounterexampleFinder F(Tab, finderOptions(true, true));
  DerivationCounter D(G, An);
  Expectation Ex = expectationFor(G, E->ExpectedConflicts, E->Ambiguous);
  std::vector<ConflictReport> Reps = F.examineAll();

  bool AllPass = !Reps.empty();
  for (const ConflictReport &R : Reps)
    AllPass &= checkReport(G, D, R, Ex).empty();
  expect("real reports pass", AllPass);
  auto Unif = std::find_if(Reps.begin(), Reps.end(), [](const auto &R) {
    return R.Status == CounterexampleStatus::UnifyingFound;
  });
  expect("a report is unifying", Unif != Reps.end());
  if (Unif == Reps.end())
    return 1;
  const ConflictReport &Good = *Unif;

  ConflictReport Dropped = Good;
  bool Did = false;
  Dropped.Example->Derivs1[0] = dropFirstLeaf(G, Dropped.Example->Derivs1[0],
                                              Did);
  Did = false;
  Dropped.Example->Derivs2[0] = dropFirstLeaf(G, Dropped.Example->Derivs2[0],
                                              Did);
  expect("unifying example with one symbol dropped is rejected",
         !checkReport(G, D, Dropped, Ex).empty());

  Expectation Unambiguous = Ex;
  Unambiguous.Ambiguous = false;
  expect("unifying report on an unambiguous grammar is rejected",
         !checkReport(G, D, Good, Unambiguous).empty());

  expect("true conflict count passes",
         checkConflictCount(Reps.size(), Ex).empty());
  Expectation OffByOne = Ex;
  OffByOne.Conflicts = Ex.Conflicts + 1;
  expect("conflict count off by one is rejected",
         !checkConflictCount(Reps.size(), OffByOne).empty());

  std::string Cold = F.render(Reps[0]);
  expect("identical incremental report passes",
         checkSameReport(Cold, Cold).empty());
  expect("incremental report differing from cold is rejected",
         !checkSameReport(F.render(Reps[1]), Cold).empty());

  ConflictReport Late = Good;
  Late.Status = CounterexampleStatus::NonunifyingTimeout;
  Late.Example->Unifying = false;
  Late.Failure = FailureReason{FailureReason::Deadline, "unifying-search",
                               "per-conflict wall-clock budget exhausted"};
  expect("report with a Deadline failure is rejected",
         !checkReport(G, D, Late, Ex).empty());
  std::printf("%s\n", Failures ? "self-test FAILED" : "self-test passed");
  return Failures ? 1 : 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--t0-ns")
      A.T0Ns = std::stoll(V);
    else if (K == "--root")
      A.Root = V;
    else if (K == "--work")
      A.Work = V;
    else if (K == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  try {
    if (!parseArgs(Argc, Argv, A)) {
      std::fprintf(stderr, "usage: perfbench_driver --workload <name> "
                           "--seed <n> --seconds <s> --trace <0|1> "
                           "--root <repo> --work <dir> | --self-test\n");
      return 2;
    }
  } catch (const std::exception &) {
    std::fprintf(stderr, "perfbench: bad numeric argument\n");
    return 2;
  }
  if (A.SelfTest)
    return selfTest();
  const Workload *W = findWorkload(A.Workload);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  Bench B(A, *W);
  if (!B.setup())
    return 1;
  int64_t R0 = nowNs();
  B.run();
  int64_t R1 = nowNs();
  B.check();
  std::fprintf(stderr, "perfbench: runs %.2f s, checks %.2f s\n",
               double(R1 - R0) / 1e9, double(nowNs() - R1) / 1e9);
  if (!B.writeTrace()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 A.TraceOut.c_str());
    return 1;
  }
  B.print();
  return 0;
}
