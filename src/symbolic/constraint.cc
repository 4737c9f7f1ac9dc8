#include "constraint.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <tuple>

#include "air/logging.hh"

namespace sierra::symbolic {

using air::CondKind;

std::string
Operand::toString() const
{
    switch (kind) {
      case Kind::Unknown: return "?";
      case Kind::Const: return std::to_string(value);
      case Kind::Reg: return "r" + std::to_string(reg);
      case Kind::Loc:
        return (loc.isStatic ? "static:" : "") + loc.key.str() + "#" +
               std::to_string(loc.obj);
    }
    panic("unreachable operand kind");
}

std::string
Atom::toString() const
{
    return lhs.toString() + " " + air::condName(cond) + " " +
           rhs.toString();
}

namespace {

bool
sameLoc(const race::MemLoc &a, const race::MemLoc &b)
{
    return a == b;
}

/** Replace `op` by `value` when it is the `pattern` operand. */
bool
substOperand(Operand &op, const Operand &pattern, const Operand &value)
{
    if ((pattern.isReg() && op.isReg() && op.reg == pattern.reg) ||
        (pattern.isLoc() && op.isLoc() && sameLoc(op.loc, pattern.loc))) {
        op = value;
        return true;
    }
    return false;
}

} // namespace

int
ConstraintStore::simplify(Atom &atom)
{
    if (atom.lhs.isUnknown() || atom.rhs.isUnknown())
        return 1; // unconstrained: drop (conservatively satisfiable)
    if (atom.lhs.isConst() && atom.rhs.isConst()) {
        return air::evalCond(atom.cond, atom.lhs.value, atom.rhs.value)
                   ? 1
                   : -1;
    }
    // Normalize Const-vs-Loc to Loc-vs-Const.
    if (atom.lhs.isConst() && atom.rhs.isLoc()) {
        std::swap(atom.lhs, atom.rhs);
        switch (atom.cond) {
          case CondKind::Lt: atom.cond = CondKind::Gt; break;
          case CondKind::Le: atom.cond = CondKind::Ge; break;
          case CondKind::Gt: atom.cond = CondKind::Lt; break;
          case CondKind::Ge: atom.cond = CondKind::Le; break;
          default: break;
        }
    }
    // Trivially true self-comparisons.
    if (atom.lhs.isLoc() && atom.rhs.isLoc() &&
        sameLoc(atom.lhs.loc, atom.rhs.loc)) {
        bool holds = atom.cond == CondKind::Eq ||
                     atom.cond == CondKind::Le ||
                     atom.cond == CondKind::Ge;
        return holds ? 1 : -1;
    }
    return 0;
}

bool
ConstraintStore::resimplifyAll()
{
    if (_failed)
        return false;
    size_t kept = 0;
    for (Atom &a : _atoms) {
        int s = simplify(a);
        if (s == -1) {
            _failed = true;
            return false;
        }
        if (s == 0)
            _atoms[kept++] = a;
    }
    _atoms.resize(kept);
    if (!solveLocConstSystem(_atoms)) {
        _failed = true;
        return false;
    }
    return true;
}

template <typename Pred>
void
ConstraintStore::dropIf(Pred drop)
{
    _atoms.erase(std::remove_if(_atoms.begin(), _atoms.end(), drop),
                 _atoms.end());
}

bool
ConstraintStore::add(Atom atom)
{
    if (_failed)
        return false;
    int s = simplify(atom);
    if (s == -1) {
        _failed = true;
        return false;
    }
    if (s == 1)
        return true; // nothing added: the invariant still holds
    // The other atoms are already simplified; only the domains change.
    _atoms.push_back(atom);
    if (!solveLocConstSystem(_atoms)) {
        _failed = true;
        return false;
    }
    return true;
}

bool
ConstraintStore::substitute(const Operand &pattern, const Operand &value)
{
    if (_failed)
        return false;
    bool hit = false;
    for (Atom &a : _atoms) {
        hit |= substOperand(a.lhs, pattern, value);
        hit |= substOperand(a.rhs, pattern, value);
    }
    // Untouched atoms are as simplified and as satisfiable as before.
    return hit ? resimplifyAll() : true;
}

bool
ConstraintStore::substituteReg(int reg, const Operand &value)
{
    return substitute(Operand::regOp(reg), value);
}

bool
ConstraintStore::substituteLoc(const race::MemLoc &loc,
                               const Operand &value)
{
    return substitute(Operand::locOp(loc), value);
}

void
ConstraintStore::dropRegAtoms()
{
    dropIf([](const Atom &a) { return a.lhs.isReg() || a.rhs.isReg(); });
}

void
ConstraintStore::dropRegsInRange(int lo, int hi)
{
    auto mentions = [&](const Operand &op) {
        return op.isReg() && op.reg >= lo && op.reg < hi;
    };
    dropIf([&](const Atom &a) {
        return mentions(a.lhs) || mentions(a.rhs);
    });
}

bool
ConstraintStore::substituteKeyWithConst(analysis::FieldKey key,
                                        int64_t value,
                                        std::span<const int> objs)
{
    if (_failed)
        return false;
    Operand v = Operand::constant(value);
    auto matches = [&](const Operand &op) {
        return op.isLoc() && op.loc.key == key &&
               (objs.empty() || std::find(objs.begin(), objs.end(),
                                          op.loc.obj) != objs.end());
    };
    bool hit = false;
    for (Atom &a : _atoms) {
        if (matches(a.lhs)) {
            a.lhs = v;
            hit = true;
        }
        if (matches(a.rhs)) {
            a.rhs = v;
            hit = true;
        }
    }
    return hit ? resimplifyAll() : true;
}

void
ConstraintStore::dropLocsByKey(std::span<const analysis::FieldKey> keys)
{
    if (keys.empty())
        return;
    auto mentions = [&](const Operand &op) {
        return op.isLoc() &&
               std::find(keys.begin(), keys.end(), op.loc.key) !=
                   keys.end();
    };
    dropIf([&](const Atom &a) {
        return mentions(a.lhs) || mentions(a.rhs);
    });
}

bool
ConstraintStore::renameReg(int from, int to)
{
    return substituteReg(from, Operand::regOp(to));
}

bool
ConstraintStore::consistent() const
{
    if (_failed)
        return false;
    return solveLocConstSystem(_atoms);
}

std::string
ConstraintStore::toString() const
{
    std::ostringstream os;
    if (_failed)
        os << "<unsat> ";
    for (size_t i = 0; i < _atoms.size(); ++i) {
        if (i)
            os << " && ";
        os << _atoms[i].toString();
    }
    return os.str();
}

namespace {

/** One loc-vs-const atom, flattened: its domain and its bound. */
struct Bound {
    int obj;
    bool isStatic;
    analysis::FieldId key;
    CondKind cond;
    int64_t value;

    bool
    sameDomain(const Bound &o) const
    {
        return obj == o.obj && isStatic == o.isStatic && key == o.key;
    }
    /** Domain first, then value: a domain's bounds are contiguous and
     *  its equal `ne` values adjacent. */
    bool
    operator<(const Bound &o) const
    {
        return std::tie(obj, isStatic, key, value) <
               std::tie(o.obj, o.isStatic, o.key, o.value);
    }
};

/** Is one location's domain, given by its bounds [first, last) sorted
 *  by value, non-empty? */
bool
domainSatisfiable(const Bound *first, const Bound *last)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    int64_t lo = kMin, hi = kMax;
    bool has_eq = false;
    int64_t eq = 0;
    for (const Bound *b = first; b != last; ++b) {
        const int64_t v = b->value;
        switch (b->cond) {
          case CondKind::Eq:
            if (has_eq && eq != v)
                return false;
            has_eq = true;
            eq = v;
            break;
          case CondKind::Ne: break; // counted below
          case CondKind::Lt:
            if (v == kMin)
                return false; // nothing is below the minimum
            hi = std::min(hi, v - 1);
            break;
          case CondKind::Le: hi = std::min(hi, v); break;
          case CondKind::Gt:
            if (v == kMax)
                return false;
            lo = std::max(lo, v + 1);
            break;
          case CondKind::Ge: lo = std::max(lo, v); break;
        }
    }
    if (lo > hi)
        return false;
    if (has_eq) {
        if (eq < lo || eq > hi)
            return false;
        for (const Bound *b = first; b != last; ++b) {
            if (b->cond == CondKind::Ne && b->value == eq)
                return false;
        }
        return true;
    }
    // Interval minus the excluded points must be non-empty. Width is
    // computed in unsigned arithmetic: hi - lo would overflow for the
    // unbounded interval (which a finite ne-set never fully excludes).
    uint64_t width =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (width == std::numeric_limits<uint64_t>::max())
        return true;
    // Distinct in-range `ne` values: equal ones are adjacent.
    uint64_t excluded = 0;
    bool any = false;
    int64_t prev = 0;
    for (const Bound *b = first; b != last; ++b) {
        if (b->cond != CondKind::Ne || b->value < lo || b->value > hi)
            continue;
        if (!any || b->value != prev)
            ++excluded;
        any = true;
        prev = b->value;
    }
    return excluded < width + 1;
}

} // namespace

bool
solveLocConstSystem(const std::vector<Atom> &atoms)
{
    // Flatten the loc-vs-const atoms into a per-thread scratch array
    // and sort it by domain; other atoms (loc-vs-loc, reg atoms) are
    // treated as satisfiable. Satisfiability does not depend on the
    // order of domains, so interned-id order is fine.
    thread_local std::vector<Bound> bounds;
    bounds.clear();
    for (const Atom &a : atoms) {
        if (!a.lhs.isLoc() || !a.rhs.isConst())
            continue;
        bounds.push_back({a.lhs.loc.obj, a.lhs.loc.isStatic,
                          a.lhs.loc.key.id, a.cond, a.rhs.value});
    }
    std::sort(bounds.begin(), bounds.end());
    const Bound *data = bounds.data();
    for (size_t i = 0, n = bounds.size(); i < n;) {
        size_t j = i + 1;
        while (j < n && data[j].sameDomain(data[i]))
            ++j;
        if (!domainSatisfiable(data + i, data + j))
            return false;
        i = j;
    }
    return true;
}

} // namespace sierra::symbolic
