/**
 * @file
 * Figure 5, group 1: lmbench basic CPU operations — integer multiply
 * and divide, double add/multiply, and bogomflops — across the four
 * system configurations.
 *
 * Expected shape (paper): the three Android-device configurations are
 * essentially identical except integer divide, where the iOS
 * toolchain's codegen loses to Linux GCC; the iPad mini is worse on
 * every operation.
 */

#include "bench/bench_util.h"

namespace cider::bench {
namespace {

constexpr std::uint64_t kOps = 200000;

double
runOpTest(SystemConfig config, hw::CpuOp op)
{
    SystemOptions opts;
    opts.config = config;
    CiderSystem sys(opts);

    // lmbench's inner loop: run kOps operations of one kind; the
    // binary's toolchain (ELF/GCC vs Mach-O/Xcode) decides codegen.
    std::uint64_t loop_ns = 0;
    installAndRun(sys, "basic_ops", [&, op](binfmt::UserEnv &env) {
        hw::Codegen cg = env.process().image().codegen;
        loop_ns = measureVirtual([&] {
            volatile std::uint64_t sink = 1;
            for (std::uint64_t i = 0; i < kOps; i += 10000) {
                sys.profile().chargeCpuOps(op, cg, 10000);
                sink = sink * 3 + i; // keep the loop honest
            }
        });
        return 0;
    });
    // Latency per operation in picoseconds for resolution.
    return static_cast<double>(loop_ns) * 1000.0 /
           static_cast<double>(kOps);
}

} // namespace
} // namespace cider::bench

int
main()
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    const std::vector<std::pair<std::string, cider::hw::CpuOp>> tests = {
        {"intmul", cider::hw::CpuOp::IntMul},
        {"intdiv", cider::hw::CpuOp::IntDiv},
        {"double-add", cider::hw::CpuOp::DoubleAdd},
        {"double-mul", cider::hw::CpuOp::DoubleMul},
        {"bogomflops", cider::hw::CpuOp::Bogomflop},
    };

    ResultTable table("Fig5.basic-ops", "ps/op", false);
    for (const auto &[name, op] : tests)
        for (SystemConfig config : kAllConfigs)
            table.set(name, config, runOpTest(config, op));

    printTables({&table});
    return 0;
}
