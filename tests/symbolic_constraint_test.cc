/** @file Tests for the constraint store and the built-in solver. */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "symbolic/constraint.hh"

namespace sierra::symbolic {
namespace {

using air::CondKind;

/** Shared interner standing in for the harness's PointsToResult: all
 *  keys in one store must come from the same table (ids compare). */
util::StringInterner &
testKeys()
{
    static util::StringInterner table;
    return table;
}

analysis::FieldKey
key(std::string_view name)
{
    return analysis::FieldKey::intern(testKeys(), name);
}

race::MemLoc
loc(const std::string &k, int obj = 1)
{
    race::MemLoc l;
    l.obj = obj;
    l.key = key(k);
    return l;
}

Atom
atom(Operand lhs, CondKind c, Operand rhs)
{
    Atom a;
    a.lhs = std::move(lhs);
    a.cond = c;
    a.rhs = std::move(rhs);
    return a;
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/**
 * The solver as it was before it moved to a flat per-thread array,
 * kept verbatim as the differential oracle: one std::map entry per
 * location, excluded points in a std::set. (Its `v - 1` / `v + 1`
 * overflow on `x < INT64_MIN` / `x > INT64_MAX`, so those two atoms
 * are checked against the new solver alone, below.)
 */
bool
oracleSolveLocConstSystem(const std::vector<Atom> &atoms)
{
    // Group loc-vs-const atoms per location; other atoms (loc-vs-loc,
    // reg atoms) are treated as satisfiable.
    struct Domain {
        int64_t lo{std::numeric_limits<int64_t>::min()};
        int64_t hi{std::numeric_limits<int64_t>::max()};
        bool hasEq{false};
        int64_t eq{0};
        std::set<int64_t> ne;
    };
    // Domain key: (base object, static?, interned key id). Interned
    // ids replace the old "s:"/"i:"-prefixed strings; satisfiability
    // does not depend on domain ordering, so id order is fine.
    std::map<std::tuple<int, bool, analysis::FieldId>, Domain> domains;

    for (const Atom &a : atoms) {
        if (!a.lhs.isLoc() || !a.rhs.isConst())
            continue;
        auto key = std::make_tuple(a.lhs.loc.obj, a.lhs.loc.isStatic,
                                   a.lhs.loc.key.id);
        Domain &d = domains[key];
        int64_t v = a.rhs.value;
        switch (a.cond) {
          case CondKind::Eq:
            if (d.hasEq && d.eq != v)
                return false;
            d.hasEq = true;
            d.eq = v;
            break;
          case CondKind::Ne:
            d.ne.insert(v);
            break;
          case CondKind::Lt:
            d.hi = std::min(d.hi, v - 1);
            break;
          case CondKind::Le:
            d.hi = std::min(d.hi, v);
            break;
          case CondKind::Gt:
            d.lo = std::max(d.lo, v + 1);
            break;
          case CondKind::Ge:
            d.lo = std::max(d.lo, v);
            break;
        }
    }
    for (const auto &[key, d] : domains) {
        if (d.lo > d.hi)
            return false;
        if (d.hasEq) {
            if (d.eq < d.lo || d.eq > d.hi || d.ne.count(d.eq))
                return false;
            continue;
        }
        // Interval minus excluded points must be non-empty. Width is
        // computed in unsigned arithmetic: hi - lo would overflow for
        // the unbounded interval (and an unbounded interval can never
        // be fully excluded by a finite ne-set anyway).
        uint64_t width = static_cast<uint64_t>(d.hi) -
                         static_cast<uint64_t>(d.lo);
        if (width != std::numeric_limits<uint64_t>::max() &&
            width + 1 <= d.ne.size()) {
            uint64_t count = 0;
            for (int64_t v : d.ne) {
                if (v >= d.lo && v <= d.hi)
                    ++count;
            }
            if (count >= width + 1)
                return false;
        }
    }
    return true;
}

/** Seeded random systems for the differential check. Locations are
 *  three objects x two field keys x instance/static, so several
 *  objects share a field id; values mix small integers (which make
 *  equal and duplicate bounds likely) with the INT64 extremes. A
 *  quarter of the systems pin one location to a narrow interval and
 *  exclude points inside it, often all of them. */
class SystemGen
{
  public:
    explicit SystemGen(uint32_t seed) : _rng(seed) {}

    std::vector<Atom>
    next()
    {
        std::vector<Atom> atoms;
        const int n = 1 + pick(10);
        for (int i = 0; i < n; ++i)
            atoms.push_back(randomAtom());
        if (pick(4) == 0)
            addNarrowDomain(atoms);
        std::shuffle(atoms.begin(), atoms.end(), _rng);
        return atoms;
    }

  private:
    int
    pick(int n)
    {
        return static_cast<int>(_rng() % static_cast<uint32_t>(n));
    }

    race::MemLoc
    randomLoc()
    {
        static const char *const kKeys[] = {"R.a", "R.b"};
        race::MemLoc l = loc(kKeys[pick(2)], pick(3));
        l.isStatic = pick(5) == 0;
        return l;
    }

    int64_t
    randomValue()
    {
        static const int64_t kExtremes[] = {kMin, kMin + 1, kMax - 1,
                                            kMax};
        if (pick(10) < 3)
            return kExtremes[pick(4)];
        return pick(7) - 3;
    }

    Atom
    randomAtom()
    {
        const int shape = pick(10);
        if (shape == 0) // loc-vs-loc: ignored by the solver
            return atom(Operand::locOp(randomLoc()), CondKind::Eq,
                        Operand::locOp(randomLoc()));
        if (shape == 1) // register atom: ignored by the solver
            return atom(Operand::regOp(pick(4)), CondKind::Ne,
                        Operand::constant(randomValue()));
        auto cond = static_cast<CondKind>(pick(6));
        int64_t v = randomValue();
        // The oracle overflows on these two; see the tests below.
        if (cond == CondKind::Lt && v == kMin)
            cond = CondKind::Le;
        if (cond == CondKind::Gt && v == kMax)
            cond = CondKind::Ge;
        return atom(Operand::locOp(randomLoc()), cond,
                    Operand::constant(v));
    }

    void
    addNarrowDomain(std::vector<Atom> &atoms)
    {
        race::MemLoc l = randomLoc();
        const int64_t lo = pick(2) ? pick(5) - 2 : kMax - 3;
        const int64_t width = pick(3);
        atoms.push_back(atom(Operand::locOp(l), CondKind::Ge,
                             Operand::constant(lo)));
        atoms.push_back(atom(Operand::locOp(l), CondKind::Le,
                             Operand::constant(lo + width)));
        for (int k = 0, n = 1 + pick(5); k < n; ++k) {
            atoms.push_back(atom(Operand::locOp(l), CondKind::Ne,
                                 Operand::constant(lo + pick(4))));
        }
    }

    std::mt19937 _rng;
};

TEST(Solver, MatchesOracleOnRandomSystems)
{
    SystemGen gen(20261017);
    int sat = 0, unsat = 0;
    for (int i = 0; i < 20000; ++i) {
        std::vector<Atom> atoms = gen.next();
        bool want = oracleSolveLocConstSystem(atoms);
        ASSERT_EQ(solveLocConstSystem(atoms), want)
            << "system " << i << ": " << [&] {
                   std::string text;
                   for (const Atom &a : atoms)
                       text += a.toString() + "; ";
                   return text;
               }();
        ++(want ? sat : unsat);
    }
    // Both outcomes well represented, so agreement means something.
    EXPECT_GT(sat, 2000);
    EXPECT_GT(unsat, 2000);
}

TEST(Solver, DuplicateNeValuesCountOnce)
{
    // 3 <= x <= 4 minus {3} leaves 4; a second "x != 3" excludes
    // nothing new (counting it twice would wrongly empty the domain).
    race::MemLoc x = loc("A.f");
    std::vector<Atom> atoms{
        atom(Operand::locOp(x), CondKind::Ge, Operand::constant(3)),
        atom(Operand::locOp(x), CondKind::Le, Operand::constant(4)),
        atom(Operand::locOp(x), CondKind::Ne, Operand::constant(3)),
        atom(Operand::locOp(x), CondKind::Ne, Operand::constant(3))};
    EXPECT_TRUE(solveLocConstSystem(atoms));
    atoms.push_back(
        atom(Operand::locOp(x), CondKind::Ne, Operand::constant(4)));
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, Int64Extremes)
{
    race::MemLoc x = loc("A.f");
    auto solve = [&](CondKind c, int64_t v) {
        return solveLocConstSystem(
            {atom(Operand::locOp(x), c, Operand::constant(v))});
    };
    // Nothing lies below the minimum or above the maximum.
    EXPECT_FALSE(solve(CondKind::Lt, kMin));
    EXPECT_FALSE(solve(CondKind::Gt, kMax));
    EXPECT_TRUE(solve(CondKind::Le, kMin));
    EXPECT_TRUE(solve(CondKind::Ge, kMax));
    EXPECT_TRUE(solve(CondKind::Lt, kMax));
    EXPECT_TRUE(solve(CondKind::Gt, kMin));
    // The top two values, both excluded.
    EXPECT_FALSE(solveLocConstSystem(
        {atom(Operand::locOp(x), CondKind::Gt, Operand::constant(kMax - 2)),
         atom(Operand::locOp(x), CondKind::Ne, Operand::constant(kMax)),
         atom(Operand::locOp(x), CondKind::Ne,
              Operand::constant(kMax - 1))}));
}

TEST(Solver, SingleNeIsSatisfiable)
{
    // Regression: the unbounded interval must not be "fully excluded"
    // by one point (a signed-overflow bug found during bring-up).
    std::vector<Atom> atoms{atom(Operand::locOp(loc("A.f")), CondKind::Ne,
                                 Operand::constant(0))};
    EXPECT_TRUE(solveLocConstSystem(atoms));
}

TEST(Solver, EqNeContradiction)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(1)),
        atom(Operand::locOp(loc("A.f")), CondKind::Ne,
             Operand::constant(1))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, TwoDifferentEqsContradict)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(1)),
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(2))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, DistinctObjectsDoNotConflict)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f", 1)), CondKind::Eq,
             Operand::constant(1)),
        atom(Operand::locOp(loc("A.f", 2)), CondKind::Eq,
             Operand::constant(2))};
    EXPECT_TRUE(solveLocConstSystem(atoms))
        << "same field on different objects";
}

TEST(Solver, IntervalEmptiness)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Gt,
             Operand::constant(5)),
        atom(Operand::locOp(loc("A.f")), CondKind::Lt,
             Operand::constant(6))};
    EXPECT_FALSE(solveLocConstSystem(atoms)) << "5 < x < 6 is empty";

    std::vector<Atom> ok{
        atom(Operand::locOp(loc("A.f")), CondKind::Ge,
             Operand::constant(5)),
        atom(Operand::locOp(loc("A.f")), CondKind::Le,
             Operand::constant(5))};
    EXPECT_TRUE(solveLocConstSystem(ok));
}

TEST(Solver, FiniteIntervalFullyExcluded)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Ge,
             Operand::constant(3)),
        atom(Operand::locOp(loc("A.f")), CondKind::Le,
             Operand::constant(4)),
        atom(Operand::locOp(loc("A.f")), CondKind::Ne,
             Operand::constant(3)),
        atom(Operand::locOp(loc("A.f")), CondKind::Ne,
             Operand::constant(4))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, EqOutsideInterval)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(10)),
        atom(Operand::locOp(loc("A.f")), CondKind::Lt,
             Operand::constant(5))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Store, AddConstConstEvaluates)
{
    ConstraintStore s;
    EXPECT_TRUE(s.add(atom(Operand::constant(1), CondKind::Eq,
                           Operand::constant(1))));
    EXPECT_EQ(s.size(), 0u) << "trivially true atoms are dropped";
    EXPECT_FALSE(s.add(atom(Operand::constant(1), CondKind::Eq,
                            Operand::constant(2))));
    EXPECT_TRUE(s.failed());
}

TEST(Store, UnknownOperandsDrop)
{
    ConstraintStore s;
    EXPECT_TRUE(s.add(atom(Operand::unknown(), CondKind::Eq,
                           Operand::constant(2))));
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.consistent());
}

TEST(Store, RegSubstitutionResolvesAtoms)
{
    ConstraintStore s;
    // r5 != 0, then (backward) r5 := loc, then loc := 0 -> contradiction.
    ASSERT_TRUE(s.add(atom(Operand::regOp(5), CondKind::Ne,
                           Operand::constant(0))));
    ASSERT_TRUE(s.substituteReg(5, Operand::locOp(loc("T.flag"))));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_FALSE(
        s.substituteLoc(loc("T.flag"), Operand::constant(0)))
        << "strong update to 0 conflicts with != 0";
    EXPECT_TRUE(s.failed());
}

TEST(Store, StrongUpdateThroughRegister)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.flag")), CondKind::Eq,
                           Operand::constant(1))));
    // loc := r7 (backward over "putfield flag = r7")...
    ASSERT_TRUE(s.substituteLoc(loc("T.flag"), Operand::regOp(7)));
    // ...then r7 := 1 (backward over "const r7 = 1"): consistent.
    EXPECT_TRUE(s.substituteReg(7, Operand::constant(1)));
    EXPECT_TRUE(s.consistent());
}

TEST(Store, NormalizationSwapsConstLeft)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::constant(3), CondKind::Lt,
                           Operand::locOp(loc("T.x")))));
    // 3 < x normalizes to x > 3; adding x < 2 contradicts.
    EXPECT_FALSE(s.add(atom(Operand::locOp(loc("T.x")), CondKind::Lt,
                            Operand::constant(2))));
}

TEST(Store, DropHelpers)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::regOp(3), CondKind::Eq,
                           Operand::constant(1))));
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.a")), CondKind::Eq,
                           Operand::constant(1))));
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.b")), CondKind::Eq,
                           Operand::constant(2))));
    s.dropRegAtoms();
    EXPECT_EQ(s.size(), 2u);
    s.dropLocsByKey({key("T.a")});
    EXPECT_EQ(s.size(), 1u);
    s.dropRegsInRange(0, 10); // no reg atoms left: no-op
    EXPECT_EQ(s.size(), 1u);
}

TEST(Store, DropRegsInRange)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::regOp(65536 + 2), CondKind::Eq,
                           Operand::constant(1))));
    ASSERT_TRUE(s.add(atom(Operand::regOp(3), CondKind::Eq,
                           Operand::constant(1))));
    s.dropRegsInRange(65536, 2 * 65536);
    EXPECT_EQ(s.size(), 1u) << "only the second frame's atom dropped";
}

TEST(Store, SubstituteKeyWithConst)
{
    ConstraintStore s;
    race::MemLoc what = loc("android.os.Message.what", 42);
    ASSERT_TRUE(s.add(atom(Operand::locOp(what), CondKind::Eq,
                           Operand::constant(2))));
    EXPECT_FALSE(
        s.substituteKeyWithConst(key("android.os.Message.what"), 1))
        << "a what==2 guard cannot hold for a what=1 message";
}

TEST(Store, SelfComparisonSimplifies)
{
    ConstraintStore s;
    EXPECT_TRUE(s.add(atom(Operand::locOp(loc("T.x")), CondKind::Eq,
                           Operand::locOp(loc("T.x")))));
    EXPECT_EQ(s.size(), 0u);
    EXPECT_FALSE(s.add(atom(Operand::locOp(loc("T.x")), CondKind::Ne,
                            Operand::locOp(loc("T.x")))));
}

/** Field-by-field atom equality (Atom has no operator==). */
bool
sameAtoms(const std::vector<Atom> &a, const std::vector<Atom> &b)
{
    auto same_op = [](const Operand &x, const Operand &y) {
        return x.kind == y.kind && x.value == y.value && x.reg == y.reg &&
               x.loc == y.loc && x.loc.key.name == y.loc.key.name &&
               x.loc.key.flags == y.loc.key.flags;
    };
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!same_op(a[i].lhs, b[i].lhs) || a[i].cond != b[i].cond ||
            !same_op(a[i].rhs, b[i].rhs))
            return false;
    }
    return true;
}

TEST(Store, UnmatchedSubstitutionKeepsAtoms)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::regOp(3), CondKind::Ne,
                           Operand::constant(0))));
    ASSERT_TRUE(s.add(atom(Operand::constant(1), CondKind::Lt,
                           Operand::locOp(loc("T.a")))));
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.b", 2)), CondKind::Eq,
                           Operand::regOp(4))));
    const std::vector<Atom> before = s.atoms();
    const std::string text = s.toString();

    EXPECT_TRUE(s.substituteReg(99, Operand::constant(0)));
    EXPECT_TRUE(s.substituteLoc(loc("T.zzz"), Operand::constant(7)));
    EXPECT_TRUE(s.substituteLoc(loc("T.a", 5), Operand::constant(0)))
        << "same key, other object: no match";
    EXPECT_TRUE(s.substituteKeyWithConst(key("T.none"), 1));
    EXPECT_TRUE(s.renameReg(98, 97));
    EXPECT_TRUE(sameAtoms(s.atoms(), before));
    EXPECT_EQ(s.toString(), text);
    EXPECT_FALSE(s.failed());
}

TEST(Store, FailedStoreStaysFailed)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.a")), CondKind::Eq,
                           Operand::regOp(3))));
    ASSERT_FALSE(s.add(atom(Operand::constant(1), CondKind::Eq,
                            Operand::constant(2))));
    ASSERT_TRUE(s.failed());

    EXPECT_FALSE(s.add(atom(Operand::constant(1), CondKind::Eq,
                            Operand::constant(1))));
    EXPECT_FALSE(s.substituteReg(3, Operand::constant(1)));
    EXPECT_FALSE(s.substituteReg(99, Operand::constant(1)));
    EXPECT_FALSE(s.substituteLoc(loc("T.a"), Operand::constant(1)));
    EXPECT_FALSE(s.substituteKeyWithConst(key("T.a"), 1));
    EXPECT_FALSE(s.renameReg(3, 4));
    s.dropRegAtoms();
    s.dropRegsInRange(0, 100);
    s.dropLocsByKey(key("T.a"));
    EXPECT_TRUE(s.failed());
    EXPECT_FALSE(s.consistent());
}

TEST(Store, ToStringShowsAtoms)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.flag")), CondKind::Ne,
                           Operand::constant(0))));
    EXPECT_NE(s.toString().find("T.flag"), std::string::npos);
    EXPECT_NE(s.toString().find("ne"), std::string::npos);
}

} // namespace
} // namespace sierra::symbolic
