/**
 * @file
 * Figure 6, group 3: PassMark memory write and read throughput.
 *
 * Expected shape (paper): the interpreted Android app pays Dalvik
 * dispatch per copied block, so the native iOS binary on Cider is
 * markedly faster on identical hardware; the iPad mini is also
 * faster than vanilla Android but behind Cider (slower memory
 * system on the A5).
 */

#include "bench/bench_util.h"
#include "bench/passmark.h"

namespace cider::bench {
namespace {

constexpr std::uint64_t kBlocks = 8192; // x 512 B = 4 MB

double
memoryThroughput(CiderSystem &sys, bool write_test)
{
    const std::string method = write_test ? "memwrite" : "memread";
    std::uint64_t ns = 0;
    std::uint64_t bytes = kBlocks * 512;

    if (runsIosBinaries(sys.config())) {
        installAndRun(sys, "mem_ios_" + method,
                      [&](binfmt::UserEnv &env) {
                          passmark::NativeSuite native(
                              sys.profile(),
                              env.process().image().codegen);
                          ns = measureVirtual([&] {
                              if (write_test)
                                  native.memwrite(bytes);
                              else
                                  native.memread(bytes);
                          });
                          return 0;
                      });
    } else {
        binfmt::DexFile suite = passmark::buildDexSuite();
        passmark::registerMemoryNatives(sys.dalvik(), sys.profile());
        installAndRun(sys, "mem_and_" + method,
                      [&](binfmt::UserEnv &) {
                          ns = measureVirtual([&] {
                              sys.dalvik().run(
                                  suite, method,
                                  {std::int64_t(kBlocks)});
                          });
                          return 0;
                      });
    }
    return ns > 0 ? static_cast<double>(bytes) * 1e9 /
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

    ResultTable table("Fig6.memory", "bytes/s", true);
    for (SystemConfig config : kAllConfigs) {
        SystemOptions opts;
        opts.config = config;
        CiderSystem sys(opts);
        table.set("memory-write", config, memoryThroughput(sys, true));
        table.set("memory-read", config, memoryThroughput(sys, false));
    }
    printTables({&table});
    return 0;
}
