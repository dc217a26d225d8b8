/**
 * @file
 * Allocation guard for the hot invariant checks.
 *
 * The checks in netlist construction, Netlist::validate() and the
 * TP-ISA machine's memory accesses run once per gate, net, pin or
 * instruction. A check that assembles its failure message on every
 * call costs a heap allocation even when it passes. This binary
 * replaces the global operator new/delete with counting versions and
 * requires that the number of allocations in each hot region does
 * not grow with the size of the work: the same design at two sizes,
 * the same kernel run for two instruction budgets.
 *
 * It is its own executable because the replaced operators apply to
 * the whole program.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "arch/machine.hh"
#include "netlist/netlist.hh"
#include "workloads/kernels.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace printed
{
namespace
{

/** Allocations made while fn runs. */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    const std::size_t before =
        allocations.load(std::memory_order_relaxed);
    fn();
    return allocations.load(std::memory_order_relaxed) - before;
}

/** Inputs a, b and a chain of gates alternating NAND2 and INV. */
struct Chain
{
    Netlist nl{"chain"};
    NetId a = invalidNet;
    NetId b = invalidNet;

    explicit Chain(std::size_t gates)
    {
        nl.reserve(gates + 2, gates);
        a = nl.addInput("a");
        b = nl.addInput("b");
    }

    void
    addGates(std::size_t gates)
    {
        NetId last = a;
        for (std::size_t i = 0; i < gates; ++i)
            last = (i % 2) ? nl.addGate(CellKind::INVX1, last)
                           : nl.addGate(CellKind::NAND2X1, last, b);
        nl.addOutput("y", last);
    }
};

constexpr std::size_t smallGates = 1000;
constexpr std::size_t largeGates = 8000;

std::size_t
addGateAllocations(std::size_t gates)
{
    Chain c(gates);
    return allocationsDuring([&] { c.addGates(gates); });
}

TEST(AllocGuard, AddGateIntoReservedNetlistDoesNotAllocatePerGate)
{
    const std::size_t small = addGateAllocations(smallGates);
    const std::size_t large = addGateAllocations(largeGates);
    EXPECT_LE(large, small) << smallGates << " gates: " << small
                            << " allocations, " << largeGates
                            << " gates: " << large;
}

std::size_t
validateAllocations(std::size_t gates)
{
    Chain c(gates);
    c.addGates(gates);
    return allocationsDuring([&] { c.nl.validate(); });
}

TEST(AllocGuard, ValidateDoesNotAllocatePerNetGateOrPin)
{
    const std::size_t small = validateAllocations(smallGates);
    const std::size_t large = validateAllocations(largeGates);
    EXPECT_LE(large, small) << smallGates << " gates: " << small
                            << " allocations, " << largeGates
                            << " gates: " << large;
}

TEST(AllocGuard, MachineRunDoesNotAllocatePerInstruction)
{
    const Workload wl = makeWorkload(Kernel::InSort, 8, 8);
    const auto inputs = defaultInputs(Kernel::InSort, 8);
    auto loaded = [&] {
        TpIsaMachine m(wl.program, wl.dmemWords);
        wl.load([&](std::size_t a, std::uint64_t v) { m.setMem(a, v); },
                inputs);
        return m;
    };

    TpIsaMachine whole = loaded();
    const std::uint64_t total = whole.run().instructions;
    ASSERT_NE(whole.stats().halt, HaltReason::MaxSteps);
    ASSERT_GE(total, 400u);

    // Two budgets short of the full run, so both stop on MaxSteps
    // and the longer one executes twice the instructions.
    auto runAllocations = [&](std::uint64_t budget) {
        TpIsaMachine m = loaded();
        const std::size_t n =
            allocationsDuring([&] { m.run(budget); });
        EXPECT_EQ(m.stats().instructions, budget);
        return n;
    };
    const std::size_t small = runAllocations(total / 4);
    const std::size_t large = runAllocations(total / 2);
    EXPECT_LE(large, small) << total / 4 << " instructions: " << small
                            << " allocations, " << total / 2
                            << " instructions: " << large;
}

} // namespace
} // namespace printed
