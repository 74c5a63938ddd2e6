/**
 * @file
 * Figure 6, group 4: PassMark 2D graphics — solid vectors,
 * transparent vectors, complex vectors, image rendering, and image
 * filters. Throughput normalised to vanilla Android; higher is
 * better.
 *
 * Expected shape (paper): these tests are CPU bound in the 2D
 * drawing libraries. Android's libraries are better optimised, so
 * the Android app wins everywhere *except* complex vectors, where
 * the iOS library is the stronger one; image rendering additionally
 * suffers on Cider from the prototype's broken GL fence support; the
 * iPad loses to Cider on the CPU-bound tests (slower CPU).
 */

#include "bench/bench_util.h"
#include "bench/gl_driver.h"

namespace cider::bench {
namespace {

constexpr std::int64_t kWidth = 320;
constexpr std::int64_t kHeight = 480;
constexpr int kFrames = 12;

/** CPU cost of one pixel in each ecosystem's 2D library. */
struct PixelCosts
{
    int androidOps;
    int iosOps;
};

/** CPU-bound 2D drawing: per-pixel library work plus the store. */
double
cpu2dThroughput(CiderSystem &sys, const PixelCosts &costs)
{
    std::uint64_t ns = 0;
    const std::uint64_t pixels =
        static_cast<std::uint64_t>(kWidth * kHeight) * kFrames;
    installAndRun(sys, "2d_cpu", [&](binfmt::UserEnv &env) {
        bool ios_lib = runsIosBinaries(sys.config());
        int ops = ios_lib ? costs.iosOps : costs.androidOps;
        hw::Codegen cg = env.process().image().codegen;
        const hw::DeviceProfile &profile = sys.profile();
        ns = measureVirtual([&] {
            std::uint64_t ps = 0;
            for (std::uint64_t px = 0; px < pixels; px += 4096) {
                ps += 4096ull *
                      (static_cast<std::uint64_t>(ops) *
                           profile.cpuOpPs(hw::CpuOp::IntAdd, cg) +
                       4 * profile.memWriteBytePs);
            }
            charge(ps / 1000);
        });
        return 0;
    });
    return ns > 0 ? static_cast<double>(pixels) * 1e9 /
                        static_cast<double>(ns)
                  : 0;
}

/**
 * Image rendering: CPU-side image decode/convert per frame (the 2D
 * library again) plus a GL upload and a per-image glFinish — the
 * synchronisation path where Cider's fence bug bites.
 */
double
imageRenderingThroughput(CiderSystem &sys)
{
    constexpr int kImagesPerFrame = 8;
    constexpr std::uint64_t kImagePixels = 256 * 256;
    std::uint64_t ns = 0;
    installAndRun(sys, "2d_imgrender", [&](binfmt::UserEnv &env) {
        GlDriver gl(sys, env);
        if (!gl.ok() || !gl.makeCurrent(kWidth, kHeight))
            return 1;
        bool ios_lib = runsIosBinaries(sys.config());
        int decode_ops = ios_lib ? 4 : 2;
        hw::Codegen cg = env.process().image().codegen;
        const hw::DeviceProfile &profile = sys.profile();
        ns = measureVirtual([&] {
            for (int f = 0; f < kFrames; ++f) {
                for (int img = 0; img < kImagesPerFrame; ++img) {
                    // Library-side decode/convert of the image.
                    charge(kImagePixels *
                           (static_cast<std::uint64_t>(decode_ops) *
                                profile.cpuOpPs(hw::CpuOp::IntAdd,
                                                cg) +
                            4 * profile.memWriteBytePs) /
                           1000);
                    gl.call("glBindTexture",
                            {std::int64_t{0}, std::int64_t{1}});
                    gl.call("glTexImage2D",
                            {std::int64_t{256}, std::int64_t{256}});
                    gl.call("glDrawArrays",
                            {std::int64_t{4}, std::int64_t{0},
                             std::int64_t{4}});
                    gl.call("glFinish");
                }
            }
        });
        return 0;
    });
    return ns > 0 ? static_cast<double>(kFrames) * 1e9 /
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

    // {row, android-lib ops/px, ios-lib ops/px}: Android's 2D
    // libraries are better optimised except for complex vectors.
    const std::vector<std::pair<std::string, PixelCosts>> tests = {
        {"solid-vectors", {2, 4}},
        {"transparent-vectors", {4, 7}},
        {"complex-vectors", {10, 8}},
        {"image-filters", {6, 9}},
    };

    ResultTable table("Fig6.2d", "px/s", true);
    for (SystemConfig config : kAllConfigs) {
        SystemOptions opts;
        opts.config = config;
        CiderSystem sys(opts);
        for (const auto &[row, costs] : tests)
            table.set(row, config, cpu2dThroughput(sys, costs));
        table.set("image-rendering", config,
                  imageRenderingThroughput(sys));
    }

    printTables({&table});
    return 0;
}
