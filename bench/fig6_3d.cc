/**
 * @file
 * Figure 6, group 5: PassMark 3D graphics — simple and complex
 * scenes. Frames per second, normalised to vanilla Android.
 *
 * Expected shape (paper): the iOS binary on Cider runs 20-37% below
 * the Android app because every OpenGL ES call is mediated through a
 * diplomat, and the overhead grows with the per-frame call count
 * (complex scene worse than simple); the iPad mini beats everyone —
 * its GPU is faster than the Nexus 7's.
 */

#include "bench/bench_util.h"
#include "bench/gl_driver.h"

namespace cider::bench {
namespace {

constexpr int kFrames = 12;

struct Scene
{
    int calls;
    int draws;
    int vertices;
};

double
fps(CiderSystem &sys, const Scene &scene)
{
    std::uint64_t ns = 0;
    installAndRun(sys, "3d", [&](binfmt::UserEnv &env) {
        GlDriver gl(sys, env);
        if (!gl.ok() || !gl.makeCurrent(320, 480))
            return 1;
        ns = measureVirtual([&] {
            for (int f = 0; f < kFrames; ++f) {
                render3dFrame(gl, scene.calls, scene.draws,
                              scene.vertices);
                gl.present();
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

    const Scene simple{450, 10, 8000};
    const Scene complex_scene{4000, 200, 60000};

    ResultTable table("Fig6.3d", "frames/s", true);
    for (SystemConfig config : kAllConfigs) {
        {
            SystemOptions opts;
            opts.config = config;
            CiderSystem sys(opts);
            table.set("3d-simple", config, fps(sys, simple));
        }
        {
            SystemOptions opts;
            opts.config = config;
            CiderSystem sys(opts);
            table.set("3d-complex", config, fps(sys, complex_scene));
        }
    }

    printTables({&table});
    return 0;
}
