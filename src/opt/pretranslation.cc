#include "opt/pretranslation.hh"

namespace vans::opt
{

PreTranslation::PreTranslation(const PreTranslationParams &params)
    : p(params), rng(params.seed), statGroup("pretrans")
{}

void
PreTranslation::attach(cpu::CpuCore &core)
{
    core.tlbAssist = [this](Addr addr) { return deliver(addr); };
}

void
PreTranslation::update(Addr addr)
{
    std::uint64_t page = pageOf(addr);
    if (table.count(page))
        return;
    table.insert(page);
    tableFifo.push_back(page);
    std::uint64_t cap = p.tableBytes / p.entryBytes;
    while (tableFifo.size() > cap) {
        table.erase(tableFifo.front());
        tableFifo.pop_front();
    }
    tableUpdates.inc();
}

bool
PreTranslation::deliver(Addr addr)
{
    std::uint64_t page = pageOf(addr);

    // The mkpt on the previous load both requested delivery and
    // (on a miss) updates the table for the next traversal
    // (Fig 13c step 6-8).
    bool present = table.count(page) > 0 || rlbSet.count(page) > 0;
    update(addr);
    if (!present) {
        misses.inc();
        return false;
    }

    // Check-before-read: a stale entry costs the fallback walk
    // (the uncertain bit forces the real translation).
    if (rng.uniform() >= p.validProb) {
        stale.inc();
        return false;
    }

    // Refresh the RLB.
    if (!rlbSet.count(page)) {
        rlb.push_front(page);
        rlbSet.insert(page);
        std::uint64_t cap = p.rlbBytes / p.entryBytes;
        while (rlb.size() > cap) {
            rlbSet.erase(rlb.back());
            rlb.pop_back();
        }
    }
    deliveries.inc();
    return true;
}

} // namespace vans::opt
