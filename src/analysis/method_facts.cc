#include "method_facts.hh"

#include "air/logging.hh"

namespace sierra::analysis {

MethodFacts::MethodFacts(const air::Module &module)
{
    for (const air::Klass *k : module.classes()) {
        for (const auto &m : k->methods()) {
            if (m->hasBody())
                _entries.try_emplace(m.get(), *m);
        }
    }
}

const MethodFacts::Entry &
MethodFacts::entryOf(const air::Method &m) const
{
    auto it = _entries.find(&m);
    SIERRA_ASSERT(it != _entries.end(), "no method facts for ",
                  m.qualifiedName());
    return it->second;
}

const Cfg &
MethodFacts::cfg(const air::Method &m) const
{
    return entryOf(m).cfg;
}

const DominatorTree &
MethodFacts::dominators(const air::Method &m) const
{
    const Entry &e = entryOf(m);
    std::call_once(e.domOnce, [&e] {
        e.dom = std::make_unique<DominatorTree>(e.cfg);
    });
    return *e.dom;
}

const MethodConstants &
MethodFacts::constants(const air::Method &m) const
{
    const Entry &e = entryOf(m);
    std::call_once(e.constOnce, [&e] {
        e.constants = std::make_unique<MethodConstants>(e.cfg);
    });
    return *e.constants;
}

} // namespace sierra::analysis
