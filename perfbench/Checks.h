//===- perfbench/Checks.h - Output checks of the benchmark -----*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks every benchmark run applies to the reports it produced. Each
/// one rests on a computation independent of the LR search (the Earley
/// derivation counter, the corpus's declared conflict counts and
/// ambiguity marks) or on a property the method must have (no report
/// degraded by a wall-clock deadline when every budget is a step budget).
/// A check returns an empty string when the output passes and a one-line
/// reason otherwise, so the self-test can show each one rejecting a
/// planted bad output.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_PERFBENCH_CHECKS_H
#define LALRCEX_PERFBENCH_CHECKS_H

#include "counterexample/CounterexampleFinder.h"
#include "earley/DerivationCounter.h"

#include <optional>
#include <string>

namespace perfbench {

/// What is known about a grammar independently of the search.
struct Expectation {
  /// Exact number of reported conflicts, or -1 when nothing is declared.
  int Conflicts = -1;
  /// Whether the grammar is ambiguous, when the corpus says so.
  std::optional<bool> Ambiguous;
};

/// The corpus's expectation for \p CorpusConflicts / \p CorpusAmbiguous,
/// or, for an imported grammar (\p CorpusConflicts < 0), its declared
/// %expect plus %expect-rr.
Expectation expectationFor(const lalrcex::Grammar &G, int CorpusConflicts,
                           std::optional<bool> CorpusAmbiguous);

/// A report the operation itself gave up on (Failed or Cancelled): counted
/// as a failed operation rather than as a wrong output.
bool reportFailed(const lalrcex::ConflictReport &R);

/// Checks one report: no Deadline failure; a unifying example is
/// well-formed, has one yield on both sides and at least two Earley
/// derivations from its root, and appears only on grammars not marked
/// unambiguous; a nonunifying pair derives from the start symbol with
/// viable prefixes up to the conflict point.
std::string checkReport(const lalrcex::Grammar &G,
                        const lalrcex::DerivationCounter &D,
                        const lalrcex::ConflictReport &R,
                        const Expectation &E);

/// Checks a grammar's reported conflict count against \p E.
std::string checkConflictCount(size_t Reported, const Expectation &E);

/// Checks that an incremental report rendering equals the cold one.
std::string checkSameReport(const std::string &Incremental,
                            const std::string &Cold);

} // namespace perfbench

#endif // LALRCEX_PERFBENCH_CHECKS_H
