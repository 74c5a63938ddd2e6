/**
 * @file
 * Figure 6, group 1: PassMark CPU tests — integer, floating point,
 * find primes, random string sort, data encryption, data
 * compression. Throughput in operations per second, normalised to
 * vanilla Android; higher is better.
 *
 * Expected shape (paper): the Android app is interpreted by Dalvik,
 * so the *same* workload as a native iOS binary on Cider is several
 * times faster on identical hardware; the iPad mini is also faster
 * than vanilla Android but loses to Cider because its CPU is slower
 * than the Nexus 7's.
 */

#include "bench/bench_util.h"
#include "bench/passmark.h"

namespace cider::bench {
namespace {

constexpr std::uint64_t kIters = 20000;

/** Android PassMark app: dex methods interpreted by the Dalvik VM. */
double
androidThroughput(CiderSystem &sys, const std::string &method)
{
    binfmt::DexFile suite = passmark::buildDexSuite();
    std::uint64_t ns = 0;
    installAndRun(sys, "pm_and_" + method, [&](binfmt::UserEnv &) {
        ns = measureVirtual([&] {
            sys.dalvik().run(suite, method, {std::int64_t(kIters)});
        });
        return 0;
    });
    return ns > 0 ? static_cast<double>(kIters) * 1e9 /
                        static_cast<double>(ns)
                  : 0;
}

/** iOS PassMark app: the native build of the same kernels. */
double
iosThroughput(CiderSystem &sys, const std::string &method)
{
    std::uint64_t ns = 0;
    installAndRun(sys, "pm_ios_" + method, [&](binfmt::UserEnv &env) {
        passmark::NativeSuite native(sys.profile(),
                                     env.process().image().codegen);
        ns = measureVirtual([&] {
            if (method == "integer")
                native.integer(kIters);
            else if (method == "fp")
                native.fp(kIters);
            else if (method == "primes")
                native.primes(kIters);
            else if (method == "sort")
                native.sort(kIters / 60);
            else if (method == "encrypt")
                native.encrypt(kIters);
            else if (method == "compress")
                native.compress(kIters);
            return;
        });
        return 0;
    });
    std::uint64_t ops = method == "sort" ? kIters / 60 : kIters;
    return ns > 0 ? static_cast<double>(ops) * 1e9 /
                        static_cast<double>(ns)
                  : 0;
}

} // namespace
} // namespace cider::bench

int
main()
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    const std::vector<std::pair<std::string, std::string>> tests = {
        {"integer", "integer"},       {"floating-point", "fp"},
        {"find-primes", "primes"},    {"string-sort", "sort"},
        {"encryption", "encrypt"},    {"compression", "compress"},
    };

    ResultTable table("Fig6.cpu", "ops/s", true);
    for (SystemConfig config : kAllConfigs) {
        SystemOptions opts;
        opts.config = config;
        CiderSystem sys(opts);
        for (const auto &[row, method] : tests) {
            double throughput;
            if (runsIosBinaries(config))
                throughput = iosThroughput(sys, method);
            else
                throughput = androidThroughput(sys, method);
            // The Android "sort" app measures passes too.
            if (!runsIosBinaries(config) && method == "sort") {
                binfmt::DexFile suite = passmark::buildDexSuite();
                std::uint64_t ns = 0;
                installAndRun(sys, "pm_sortp",
                              [&](binfmt::UserEnv &) {
                                  ns = measureVirtual([&] {
                                      sys.dalvik().run(
                                          suite, "sort",
                                          {std::int64_t(kIters / 60)});
                                  });
                                  return 0;
                              });
                throughput =
                    ns > 0 ? static_cast<double>(kIters / 60) * 1e9 /
                                 static_cast<double>(ns)
                           : 0;
            }
            table.set(row, config, throughput);
        }
    }

    printTables({&table});
    return 0;
}
